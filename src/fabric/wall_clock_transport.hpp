// WallClockTransport: the node-local layer every wall-clock backend shares.
//
// ShmTransport and SocketTransport move bytes differently — SPSC rings of
// in-process ops vs. a length-prefixed codec over kernel sockets — but
// above the wire they do the same things, and those live here once. This
// is the role UCX's worker layer plays above every wire transport:
//
//  * per-node state: the Worker (AM table + receive queue), registered
//    windows and the exposed segment under one mutex, a cid-keyed
//    completion table that records each op's destination, and armed
//    timers;
//  * completion bookkeeping: stash_* on post, complete/complete_get when
//    the ack arrives, fail_completions_to when a peer is gone;
//  * wall-clock time: now_ns, schedule_after and fire_due_timers;
//  * the progress loops: dedicated progress threads with one idle back-off,
//    and run_until with its watchdog;
//  * the endpoint check every post_* runs first (admit_post).
//
// A backend derives from it and implements name(), the four post_* verbs
// and progress(), which fires the node's due timers and then moves bytes.
// Nodes this process does not host (socket process mode) have no state
// here: the node-local verbs refuse them with kInvalidArgument or answer
// empty, and a backend answers remote lookups itself.
//
// Destruction: progress threads call the derived progress(), so every
// derived destructor must call stop_progress_threads() first.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fabric/memory.hpp"
#include "fabric/transport.hpp"

namespace tc::fabric {

/// How both wall-clock wires carry an ack's Status: the ErrorCode in one
/// byte and, on error, the message as the ack's data bytes (an OK GET ack
/// carries the bytes read there instead). `code` is 0 for OK.
inline void encode_ack_status(const Status& status, std::uint8_t& code,
                              Bytes& data) {
  code = static_cast<std::uint8_t>(status.code());
  if (!status.is_ok()) {
    data.assign(status.message().begin(), status.message().end());
  }
}

/// The Status an ack carries, back from its code and data bytes.
inline Status acked_status(std::uint8_t code, const Bytes& data) {
  if (code == 0) return Status::ok();
  return Status(static_cast<ErrorCode>(code),
                std::string(data.begin(), data.end()));
}

class WallClockTransport : public Transport {
 public:
  /// Node id that makes every node of the cluster local (one process hosts
  /// them all: shm, socket threaded mode).
  static constexpr NodeId kAllLocal = ~NodeId{0};

  /// True when this process hosts `node` (it has node state here).
  bool is_local(NodeId node) const {
    return node < nodes_.size() && nodes_[node] != nullptr;
  }

  /// Allocates `length` bytes owned by the transport and registers them as
  /// a window on the (local) node — malloc + ibv_reg_mr in one call.
  StatusOr<MemRegion> allocate_window(NodeId node, std::size_t length);

  /// Spawns one dedicated progress thread per listed (local) node
  /// (server-style nodes). Initiator nodes should be driven inline instead.
  void start_progress_threads(const std::vector<NodeId>& nodes);
  /// Stops and joins every dedicated progress thread.
  void stop_progress_threads();

  /// Per-node dispatch counters (local nodes only; empty otherwise).
  Worker::Stats worker_stats(NodeId node) const;

  // --- Transport ------------------------------------------------------------
  bool deterministic() const final { return false; }
  std::size_t node_count() const final { return nodes_.size(); }

  StatusOr<MemRegion> register_window(NodeId node, void* base,
                                      std::size_t length) final;
  Status expose_segment(NodeId node, void* base, std::size_t length) override;
  std::optional<MemRegion> exposed_segment(NodeId node) const override;

  Status register_am_handler(NodeId node, AmId id, AmHandler handler) final;
  Status unregister_am_handler(NodeId node, AmId id) final;
  std::optional<ReceivedMessage> try_recv(NodeId node) final;
  void set_delivery_notifier(NodeId node, std::function<void()> notify) final;

  /// The monotonic wall clock.
  std::int64_t now_ns() const final;
  void consume_compute(NodeId, std::int64_t, bool) final {}
  /// The modeled charge is a no-op (real work takes real time) and the
  /// caller is, per the Transport contract, already on the node's progress
  /// context: runs `fn` inline.
  void execute_on(NodeId node, std::int64_t cost_ns, std::function<void()> fn,
                  bool scale_cost) final;
  void schedule_after(NodeId node, std::int64_t delay_ns,
                      std::function<void()> fn) final;
  void sync_to_compute_horizon(NodeId) final {}

  /// Spins progress(node) until `pred()` holds. The watchdog polls its
  /// deadline every 256 iterations even while progress stays busy, and
  /// fails with kResourceExhausted once run_until_timeout_ms has passed.
  Status run_until(NodeId node, const std::function<bool()>& pred) final;

 protected:
  /// `only_local` is the one node this process hosts, or kAllLocal.
  WallClockTransport(std::size_t node_count, NodeId only_local,
                     std::int64_t run_until_timeout_ms);

  struct Timer {
    std::int64_t deadline_ns;
    std::function<void()> fn;
  };
  template <typename Fn>
  struct Pending {
    Fn fn;
    NodeId dst = 0;  ///< where the op went: fail fast if that peer is gone
  };

  struct NodeState {
    Worker worker;  ///< AM handler table + two-sided rx queue (thread-safe)
    /// Registered windows and the exposed segment; guarded — registration
    /// happens at setup while progress threads may already be translating.
    mutable std::mutex mem_mu;
    MemoryDomain memory;
    std::optional<MemRegion> exposed;
    /// Pending completion callbacks, keyed by cid; guarded so a context
    /// handoff between driving threads is safe.
    std::mutex completions_mu;
    std::uint64_t next_cid = 1;
    std::unordered_map<std::uint64_t, Pending<CompletionFn>> completions;
    std::unordered_map<std::uint64_t, Pending<GetCompletionFn>>
        get_completions;
    /// Armed deadlines, fired by this node's progress context.
    std::mutex timers_mu;
    std::vector<Timer> timers;
  };

  /// Unchecked: for per-op paths whose `node` is known to be local.
  NodeState& node_state(NodeId node) { return *nodes_[node]; }

  /// The check every post_* runs first: `src` must be local and `dst` a
  /// node of the cluster. Otherwise fails `on_complete` with
  /// kInvalidArgument, and the caller posts nothing.
  template <typename Fn>
  bool admit_post(const char* verb, NodeId src, NodeId dst, Fn& on_complete) {
    if (dst < nodes_.size() && is_local(src)) [[likely]] return true;
    Status refused = post_refusal(verb, src, dst);
    if (on_complete) on_complete(std::move(refused));
    return false;
  }

  /// Stash an op's completion on its (local) initiator `node`; returns the
  /// cid the ack routes back by.
  std::uint64_t stash_completion(NodeId node, NodeId dst, CompletionFn cb);
  std::uint64_t stash_get_completion(NodeId node, NodeId dst,
                                     GetCompletionFn cb);
  /// Removes and invokes the completion stashed under `cid`, if any (a
  /// completion already failed by fail_completions_to is gone).
  void complete(NodeId node, std::uint64_t cid, Status status);
  void complete_get(NodeId node, std::uint64_t cid, StatusOr<Bytes> result);
  /// Fails every completion `node` still waits on from `peer`.
  void fail_completions_to(NodeId node, NodeId peer, const Status& status);

  /// Runs `node`'s expired timers; true if any fired. progress() calls it.
  bool fire_due_timers(NodeId node);

  /// True while stop_progress_threads() is joining: a blocked producer must
  /// give up rather than keep teardown waiting.
  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

 private:
  /// The node's state, or null when this process does not host it.
  NodeState* local_state(NodeId node) {
    return is_local(node) ? nodes_[node].get() : nullptr;
  }
  const NodeState* local_state(NodeId node) const {
    return is_local(node) ? nodes_[node].get() : nullptr;
  }
  /// kInvalidArgument for a node this process does not host (no_such_node
  /// when it is outside the cluster).
  Status not_local(const char* verb, NodeId node) const;
  Status post_refusal(const char* verb, NodeId src, NodeId dst) const;

  /// Indexed by node id; only local nodes are non-null.
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::int64_t run_until_timeout_ms_;

  /// Arena backing allocate_window.
  std::mutex arena_mu_;
  std::deque<std::vector<std::uint8_t>> arena_;

  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
};

}  // namespace tc::fabric
