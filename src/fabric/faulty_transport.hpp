// FaultyTransport: a fault-injecting decorator over any Transport backend.
//
// ROADMAP's "third transport" acceptance gate: before the protocol stack can
// claim readiness for a real lossy fabric (sockets, RDMA with flaky links),
// its recovery machinery — NACK redelivery, truncated-send retry, ack-driven
// Dijkstra-Scholten termination — has to survive actual loss, duplication
// and reordering. This shim manufactures those conditions deterministically
// on top of either existing backend, at the *frame* boundary (post_send):
//
//   drop      — the frame never arrives; the sender's completion fails after
//               a short detection delay (modeling a NIC-level delivery
//               timeout), so retry machinery above can fire.
//   duplicate — the frame arrives twice. The receiving side of the shim
//               de-duplicates by per-link sequence number, so exactly one
//               copy surfaces to the runtime — the shim plays the role of a
//               reliable-delivery layer whose *upper* interface is
//               exactly-once while the wire below it is not.
//   delay     — the frame is held back `delay_ns` before entering the inner
//               transport, overtaking later sends on the same link (the
//               reordering case).
//   truncate  — only a prefix of the frame arrives. The receiving shim
//               detects the length mismatch against the shim header, drops
//               the mangled frame, and the sender's completion fails —
//               deliberately *not* surfacing the prefix upward, because a
//               prefix cut exactly at Frame::truncated_size() is a valid
//               truncated frame and would execute *and* be retried (double
//               execution). A real transport detects this with a CRC.
//
// Faults are decided by a per-directed-link xoshiro256** stream seeded from
// (config seed ⊕ link id), so the schedule depends only on the per-link
// frame order — deterministic on the sim backend and per-link reproducible
// on shm (SPSC rings keep each link's order stable even when cross-link
// interleaving varies). Every injection is appended to a log replayable
// from the seed; chaos CI uploads it on failure.
//
// Wiring: when the config carries no fault rates (enabled() == false) the
// shim adds *nothing* — no wrapping header, no per-frame bookkeeping — and
// every call forwards verbatim, so a zero-fault FaultyTransport is
// byte-identical to the bare backend. Only post_send (ifunc frames, results,
// NACKs, batch containers) is faulted; AM and one-sided PUT/GET traffic
// passes through untouched — those paths have no recovery protocol to
// exercise (the AM baseline is the paper's predeployed upper bound).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "fabric/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tc::fabric {

enum class FaultKind : std::uint8_t { kDrop, kDuplicate, kDelay, kTruncate };
const char* fault_kind_name(FaultKind kind);

/// Per-frame fault probabilities (each in [0, 1]; at most one fault is
/// injected per frame, chosen by a single draw against the cumulative
/// distribution, so rates are independent knobs that sum to <= 1).
struct FaultRates {
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  double truncate = 0.0;
  double total() const { return drop + duplicate + delay + truncate; }
};

/// Key of the directed link src -> dst in FaultConfig::per_link.
inline constexpr std::uint64_t fault_link_key(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(src) << 32) |
         static_cast<std::uint64_t>(dst);
}

struct FaultConfig {
  std::uint64_t seed = 42;
  /// Default rates for every directed link.
  FaultRates rates;
  /// Per-link overrides, keyed by fault_link_key(src, dst). A listed link
  /// uses its override *instead of* the default rates.
  std::unordered_map<std::uint64_t, FaultRates> per_link;
  /// Extra latency a delayed frame spends before entering the wire.
  std::int64_t delay_ns = 5'000;
  /// Lag of the duplicate copy behind the original.
  std::int64_t dup_delay_ns = 2'500;
  /// How long after a dropped/truncated send the failure completion fires
  /// (the modeled delivery-timeout detection latency).
  std::int64_t drop_detect_ns = 1'000;
  /// Burst mode: when a fault fires, the next burst_len - 1 frames on the
  /// same link suffer the same fault kind (correlated loss, the pattern
  /// that defeats naive single-retry schemes). 1 = independent faults.
  std::size_t burst_len = 1;

  bool enabled() const {
    if (rates.total() > 0.0) return true;
    for (const auto& [key, r] : per_link) {
      (void)key;
      if (r.total() > 0.0) return true;
    }
    return false;
  }
  const FaultRates& rates_for(NodeId src, NodeId dst) const {
    auto it = per_link.find(fault_link_key(src, dst));
    return it == per_link.end() ? rates : it->second;
  }
};

/// One injected fault, in injection order. The whole log is reproducible
/// from the config seed on the deterministic backend; on shm the *per-link*
/// subsequences are reproducible.
struct InjectionEvent {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t seq = 0;  ///< per-link frame sequence number
  FaultKind kind = FaultKind::kDrop;
  std::uint32_t size = 0;    ///< un-shimmed frame size in bytes
  std::int64_t at_ns = 0;    ///< transport clock at the injection decision
};

/// Human-readable one-line-per-event form ("drop src=0 dst=2 seq=17 ...");
/// what the chaos harness writes to TC_CHAOS_LOG_DIR and CI uploads.
std::string format_injection_log(const std::vector<InjectionEvent>& log);

class FaultyTransport final : public Transport {
 public:
  /// Decorates `inner`, which must outlive the shim. Optional observability
  /// sinks: fault injections become kFaultInject trace events (on the
  /// sender's ring) and "fault/..." metric counters.
  FaultyTransport(Transport& inner, FaultConfig config,
                  obs::Tracer* tracer = nullptr,
                  obs::MetricsRegistry* metrics = nullptr);

  Transport& inner() { return *inner_; }
  const FaultConfig& config() const { return config_; }

  struct StatsSnapshot {
    std::uint64_t frames_intercepted = 0;  ///< post_sends seen (faults on)
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t delays = 0;
    std::uint64_t truncates = 0;
    /// Receiver-side shim discards: duplicate copies and mangled frames
    /// that were caught before reaching the runtime.
    std::uint64_t dup_discards = 0;
    std::uint64_t truncate_discards = 0;
    std::uint64_t faults_total() const {
      return drops + duplicates + delays + truncates;
    }
  };
  StatsSnapshot stats() const;
  std::vector<InjectionEvent> injection_log() const;

  // --- Transport --------------------------------------------------------------
  const char* name() const override { return name_.c_str(); }
  bool deterministic() const override { return inner_->deterministic(); }
  std::size_t node_count() const override { return inner_->node_count(); }

  /// Faults off: hands `data` to the inner backend as it is. Faults on:
  /// wraps it in the shim header (one new buffer) and ships that.
  void post_send(NodeId src, NodeId dst, Bytes data, std::size_t fragments,
                 CompletionFn on_complete) override;
  using Transport::post_send;
  void post_am(NodeId src, NodeId dst, AmId id, ByteSpan payload,
               CompletionFn on_complete) override {
    inner_->post_am(src, dst, id, payload, std::move(on_complete));
  }
  void post_put(NodeId src, const RemoteAddr& dst, ByteSpan data,
                CompletionFn on_complete) override {
    inner_->post_put(src, dst, data, std::move(on_complete));
  }
  void post_get(NodeId src, const RemoteAddr& addr, std::size_t length,
                GetCompletionFn on_complete) override {
    inner_->post_get(src, addr, length, std::move(on_complete));
  }

  StatusOr<MemRegion> register_window(NodeId node, void* base,
                                      std::size_t length) override {
    return inner_->register_window(node, base, length);
  }
  Status expose_segment(NodeId node, void* base, std::size_t length) override {
    return inner_->expose_segment(node, base, length);
  }
  std::optional<MemRegion> exposed_segment(NodeId node) const override {
    return inner_->exposed_segment(node);
  }

  Status register_am_handler(NodeId node, AmId id, AmHandler handler) override {
    return inner_->register_am_handler(node, id, std::move(handler));
  }
  Status unregister_am_handler(NodeId node, AmId id) override {
    return inner_->unregister_am_handler(node, id);
  }
  std::optional<ReceivedMessage> try_recv(NodeId node) override;
  void set_delivery_notifier(NodeId node,
                             std::function<void()> notify) override {
    inner_->set_delivery_notifier(node, std::move(notify));
  }

  std::int64_t now_ns() const override { return inner_->now_ns(); }
  void consume_compute(NodeId node, std::int64_t cost_ns,
                       bool scale_cost) override {
    inner_->consume_compute(node, cost_ns, scale_cost);
  }
  void execute_on(NodeId node, std::int64_t cost_ns, std::function<void()> fn,
                  bool scale_cost) override {
    inner_->execute_on(node, cost_ns, std::move(fn), scale_cost);
  }
  void schedule_after(NodeId node, std::int64_t delay_ns,
                      std::function<void()> fn) override {
    inner_->schedule_after(node, delay_ns, std::move(fn));
  }
  void sync_to_compute_horizon(NodeId node) override {
    inner_->sync_to_compute_horizon(node);
  }

  bool progress(NodeId node) override { return inner_->progress(node); }
  Status run_until(NodeId node, const std::function<bool()>& pred) override {
    return inner_->run_until(node, pred);
  }

 private:
  /// Producer side of a directed link. Touched only from src's progress
  /// context (the post_send threading contract), so no lock.
  struct TxLink {
    Xoshiro256 rng{0};
    std::uint32_t next_seq = 0;
    /// Burst state: remaining frames to hit with burst_kind.
    std::size_t burst_remaining = 0;
    FaultKind burst_kind = FaultKind::kDrop;
    bool initialized = false;
  };
  /// Consumer side of a directed link: sequence numbers already delivered
  /// upward. Touched only from dst's progress context.
  struct RxLink {
    std::unordered_set<std::uint32_t> seen;
  };

  TxLink& tx_link(NodeId src, NodeId dst);
  RxLink& rx_link(NodeId src, NodeId dst);
  /// Draws the fault decision for one frame on src -> dst. Returns true
  /// and sets `kind` when a fault fires.
  bool decide_fault(TxLink& link, const FaultRates& rates, FaultKind* kind);
  void record_injection(NodeId src, NodeId dst, std::uint32_t seq,
                        FaultKind kind, std::size_t size);
  /// Wraps `data` in the shim header [magic | kind | seq | length].
  Bytes shim_frame(std::uint32_t seq, ByteSpan data) const;

  Transport* inner_;
  FaultConfig config_;
  std::string name_;
  obs::Tracer* tracer_ = nullptr;

  /// Per-link state maps, guarded only for *map growth* (first touch of a
  /// link); the returned entries are then owned by one progress context.
  std::mutex links_mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<TxLink>> tx_links_;
  std::unordered_map<std::uint64_t, std::unique_ptr<RxLink>> rx_links_;

  mutable std::mutex log_mu_;
  std::vector<InjectionEvent> log_;

  struct Stats {
    std::atomic<std::uint64_t> frames_intercepted{0};
    std::atomic<std::uint64_t> drops{0};
    std::atomic<std::uint64_t> duplicates{0};
    std::atomic<std::uint64_t> delays{0};
    std::atomic<std::uint64_t> truncates{0};
    std::atomic<std::uint64_t> dup_discards{0};
    std::atomic<std::uint64_t> truncate_discards{0};
  };
  Stats stats_;

  /// Cached metric counters (registry lookup takes a mutex; cache once).
  obs::Counter* m_drops_ = nullptr;
  obs::Counter* m_duplicates_ = nullptr;
  obs::Counter* m_delays_ = nullptr;
  obs::Counter* m_truncates_ = nullptr;
  obs::Counter* m_discards_ = nullptr;
};

}  // namespace tc::fabric
