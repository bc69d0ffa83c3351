// ShmTransport: the real-threads shared-memory backend.
//
// Where fabric::Fabric models an RDMA fabric in virtual time, ShmTransport
// *is* one, scaled down to a single machine: every node is a real progress
// context (typically its own OS thread), every directed link is a
// lock-free SPSC ring of wire operations, and registered-memory windows
// live in the shared in-process arena, so PUT/GET are literal memcpys by
// the target's progress thread — the closest same-host analogue of an
// RDMA NIC writing into registered pages. There is no time model: now_ns()
// is the monotonic wall clock and modeled-compute charges are no-ops,
// because real work already takes real time. This is the backend the
// multi-initiator DAPC benchmarks (bench/fig_mt_scale) measure.
//
// Progress model (mirrors UCX): a node's progress context is whichever
// thread drives progress(node)/run_until(node, ...). Server-style nodes
// usually run a dedicated thread (start_progress_threads); initiator nodes
// are driven inline by their application thread, so completion callbacks
// and result handlers fire on the thread that owns the workload state —
// no cross-thread callback races by construction.
//
// Backpressure: a full ring blocks the producer, which drains its own
// incoming rings while it waits (dispatch is re-entrant, nesting-capped),
// so two nodes saturating each other's rings cannot deadlock; a stopping
// transport drops the op instead so teardown always joins. A producer that
// stays blocked past full_ring_wait_ms stops waiting and fails the op's
// completion with fabric::backpressure_status() — the same send-buffer-full
// Status the socket backend reports when its tx queue is exhausted — so
// the runtime's max_send_retries policy backs off identically over both
// wall-clock backends.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fabric/memory.hpp"
#include "fabric/spsc_ring.hpp"
#include "fabric/transport.hpp"

namespace tc::fabric {

struct ShmTransportOptions {
  /// Slots per directed link (rounded up to a power of two). Sized so the
  /// async windows of every initiator fit without producer stalls.
  std::size_t ring_capacity = 8192;
  /// Safety net for run_until: give up after this much wall time.
  std::int64_t run_until_timeout_ms = 30'000;
  /// How long a producer blocked on a full ring keeps draining/yielding
  /// before the op is abandoned and its completion fails with
  /// fabric::backpressure_status(). Generous by default: a healthy consumer
  /// opens ring space in microseconds, so only a truly wedged (or
  /// fault-injected) peer ever hits this.
  std::int64_t full_ring_wait_ms = 2'000;
};

class ShmTransport final : public Transport {
 public:
  explicit ShmTransport(std::size_t node_count,
                        ShmTransportOptions options = {});
  ~ShmTransport() override;

  /// Allocates `length` bytes from the transport's shared arena and
  /// registers them as a window on `node` — the one-call analogue of
  /// malloc + ibv_reg_mr for tests and miniapps.
  StatusOr<MemRegion> allocate_window(NodeId node, std::size_t length);

  /// Spawns one dedicated progress thread per listed node (server-style
  /// nodes). Initiator nodes should be driven inline instead.
  void start_progress_threads(const std::vector<NodeId>& nodes);
  /// Stops and joins every dedicated progress thread.
  void stop_progress_threads();

  // --- Transport ------------------------------------------------------------
  const char* name() const override { return "shm"; }
  bool deterministic() const override { return false; }
  std::size_t node_count() const override { return nodes_.size(); }

  void post_send(NodeId src, NodeId dst, ByteSpan data, std::size_t fragments,
                 CompletionFn on_complete) override;
  void post_am(NodeId src, NodeId dst, AmId id, ByteSpan payload,
               CompletionFn on_complete) override;
  void post_put(NodeId src, const RemoteAddr& dst, ByteSpan data,
                CompletionFn on_complete) override;
  void post_get(NodeId src, const RemoteAddr& addr, std::size_t length,
                GetCompletionFn on_complete) override;

  StatusOr<MemRegion> register_window(NodeId node, void* base,
                                      std::size_t length) override;
  Status expose_segment(NodeId node, void* base, std::size_t length) override;
  std::optional<MemRegion> exposed_segment(NodeId node) const override;

  Status register_am_handler(NodeId node, AmId id, AmHandler handler) override;
  Status unregister_am_handler(NodeId node, AmId id) override;
  std::optional<ReceivedMessage> try_recv(NodeId node) override;
  void set_delivery_notifier(NodeId node,
                             std::function<void()> notify) override;

  std::int64_t now_ns() const override;
  void consume_compute(NodeId, std::int64_t, bool) override {}
  void execute_on(NodeId node, std::int64_t cost_ns, std::function<void()> fn,
                  bool scale_cost) override;
  void schedule_after(NodeId node, std::int64_t delay_ns,
                      std::function<void()> fn) override;
  void sync_to_compute_horizon(NodeId) override {}

  bool progress(NodeId node) override;
  Status run_until(NodeId node, const std::function<bool()>& pred) override;

  struct Stats {
    std::uint64_t ops_pushed = 0;
    std::uint64_t ops_drained = 0;
    std::uint64_t producer_stalls = 0;  ///< full-ring backpressure events
    std::uint64_t ops_dropped = 0;      ///< posts abandoned during shutdown
    /// Ops abandoned after full_ring_wait_ms; their completions failed
    /// with fabric::backpressure_status().
    std::uint64_t backpressure_failures = 0;
  };
  Stats stats() const {
    Stats s;
    s.ops_pushed = ops_pushed_.load(std::memory_order_relaxed);
    s.ops_drained = ops_drained_.load(std::memory_order_relaxed);
    s.producer_stalls = producer_stalls_.load(std::memory_order_relaxed);
    s.ops_dropped = ops_dropped_.load(std::memory_order_relaxed);
    s.backpressure_failures =
        backpressure_failures_.load(std::memory_order_relaxed);
    return s;
  }
  /// Per-node dispatch counters (obs/collect feeds these into the registry).
  Worker::Stats worker_stats(NodeId node) const {
    return nodes_.at(node)->worker.stats();
  }

 private:
  /// One wire operation riding a link ring.
  struct Op {
    enum class Kind : std::uint8_t {
      kSend,    ///< two-sided eager message
      kAm,      ///< active message (am_id selects the handler)
      kPut,     ///< one-sided write into (rkey, offset)
      kGet,     ///< one-sided read request of `length` from (rkey, offset)
      kAck,     ///< completion for kSend/kAm/kPut (cid routes the callback)
      kGetAck,  ///< completion + data for kGet
    };
    Kind kind = Kind::kSend;
    NodeId src = 0;
    AmId am_id = 0;
    std::size_t fragments = 1;
    RKey rkey = 0;
    std::uint64_t offset = 0;
    std::size_t length = 0;
    std::uint64_t cid = 0;  ///< 0 = fire-and-forget
    Status status;
    Bytes data;
  };

  struct Timer {
    std::int64_t deadline_ns;
    std::function<void()> fn;
  };

  struct NodeState {
    Worker worker;  ///< AM handler table + two-sided rx queue (thread-safe)
    /// Registered windows; guarded — registration happens at setup while
    /// progress threads may already be translating.
    mutable std::mutex mem_mu;
    MemoryDomain memory;
    std::optional<MemRegion> exposed;
    /// Pending completion callbacks, keyed by cid; guarded so a context
    /// handoff between driving threads is safe.
    std::mutex completions_mu;
    std::uint64_t next_cid = 1;
    std::unordered_map<std::uint64_t, CompletionFn> completions;
    std::unordered_map<std::uint64_t, GetCompletionFn> get_completions;
    /// Armed deadlines, fired by this node's progress context.
    std::mutex timers_mu;
    std::vector<Timer> timers;
  };

  SpscRing<Op>& ring(NodeId src, NodeId dst) {
    return *rings_[src * nodes_.size() + dst];
  }
  /// Blocking push with backpressure (drains `src`'s own rings while the
  /// target ring is full, unless already inside progress on this thread).
  /// Gives up after full_ring_wait_ms and routes the op to
  /// fail_op_backpressure.
  void push_op(NodeId src, NodeId dst, Op op);
  /// Fails the abandoned op's stashed completion with
  /// backpressure_status(src, dst). Acks carry a *remote* completion we
  /// cannot reach — those are dropped and counted; the peer's watchdog
  /// (run_until timeout) surfaces the loss.
  void fail_op_backpressure(NodeId src, NodeId dst, Op& op);
  void handle_op(NodeId node, Op& op);
  bool fire_due_timers(NodeId node);
  std::uint64_t stash_completion(NodeId node, CompletionFn cb);
  std::uint64_t stash_get_completion(NodeId node, GetCompletionFn cb);

  ShmTransportOptions options_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::vector<std::unique_ptr<SpscRing<Op>>> rings_;

  /// Shared arena backing allocate_window.
  std::mutex arena_mu_;
  std::deque<std::vector<std::uint8_t>> arena_;

  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};

  std::atomic<std::uint64_t> ops_pushed_{0};
  std::atomic<std::uint64_t> ops_drained_{0};
  std::atomic<std::uint64_t> producer_stalls_{0};
  std::atomic<std::uint64_t> ops_dropped_{0};
  std::atomic<std::uint64_t> backpressure_failures_{0};
};

}  // namespace tc::fabric
