// Metrics registry: named counters, gauges, and log-bucketed latency
// histograms behind one dump path.
//
// The repo already counts plenty — Runtime::Stats, fabric::Fabric::Stats,
// ShmTransport::Stats, am::AmRuntime::Stats — but each struct dumps (or
// doesn't) through its own ad-hoc accessor. The registry gives every number
// a stable dotted name ("node3.runtime.frames_sent_full") and one snapshot
// call; obs/collect.hpp funnels the legacy structs in, and runtime/workload
// hot paths record latencies directly.
//
// Concurrency: instrument *lookup* (registry.counter(...)) takes a mutex and
// is meant for setup or cold paths — cache the returned reference. Recording
// on a cached instrument is a relaxed atomic op, safe from any thread.
// Instruments live as long as the registry (node-stable map storage).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tc::obs {

class Counter {
 public:
  void add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  /// Overwrite-to-current, for mirroring an external monotone counter
  /// (obs/collect snapshots legacy Stats structs idempotently).
  void set(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log2-bucketed latency histogram: bucket i counts samples whose value has
/// bit width i, i.e. bucket 0 holds {0}, bucket 1 {1}, bucket 2 {2,3},
/// bucket 3 {4..7}, ... bucket 64 {2^63..}. Upper bound of bucket i is
/// 2^i - 1. Recording is one relaxed fetch_add — no floating point, no
/// locks — and 65 buckets cover the full u64 range, so nanosecond samples
/// from sub-ns to centuries all land.
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = 65;

  void record(std::uint64_t value) {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  static std::size_t bucket_index(std::uint64_t value) {
    return static_cast<std::size_t>(std::bit_width(value));
  }
  /// Inclusive upper bound of `bucket`; lower bound is the previous
  /// bucket's bound + 1 (bucket 0 is exactly {0}).
  static std::uint64_t bucket_upper_bound(std::size_t bucket) {
    if (bucket >= 64) return ~0ull;
    return (1ull << bucket) - 1;
  }

  std::uint64_t bucket_count(std::size_t bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  std::uint64_t total_count() const {
    std::uint64_t total = 0;
    for (const auto& bucket : buckets_) {
      total += bucket.load(std::memory_order_relaxed);
    }
    return total;
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Upper bound of the bucket containing quantile `q` (0..1] — a coarse
  /// (power-of-two) percentile, good enough for dashboards and summaries.
  std::uint64_t quantile_bound(double q) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// One registry per run (or per cluster). Names are dotted paths; the
/// snapshot orders them lexicographically so dumps diff cleanly.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  struct Snapshot {
    struct CounterEntry {
      std::string name;
      std::uint64_t value;
    };
    struct GaugeEntry {
      std::string name;
      std::int64_t value;
    };
    struct HistogramEntry {
      std::string name;
      std::uint64_t count;
      std::uint64_t sum;
      std::uint64_t p50;  ///< bucket upper bounds, power-of-two coarse
      std::uint64_t p99;
      std::uint64_t max_bound;
      /// (bucket index, count) for every non-empty bucket.
      std::vector<std::pair<std::size_t, std::uint64_t>> buckets;
    };
    std::vector<CounterEntry> counters;
    std::vector<GaugeEntry> gauges;
    std::vector<HistogramEntry> histograms;
  };

  Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace tc::obs
