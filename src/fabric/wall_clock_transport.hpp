// WallClockTransport: the node-local layer every wall-clock backend shares.
//
// ShmTransport and SocketTransport move bytes differently — SPSC rings of
// in-process ops vs. a length-prefixed codec over kernel sockets — but
// above the wire they do the same things, and those live here once. This
// is the role UCX's worker layer plays above every wire transport:
//
//  * per-node state: the Worker (AM table + receive queue), registered
//    windows and the exposed segment under one mutex, the completion
//    tables that record each op's destination, and armed timers;
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
// Completion tables: a node keeps one slot table per ack kind (acks of
// send/AM/PUT, GET acks), a vector of slots plus a free list. A cid is
// (generation << 32) | (slot index + 1), so it is never 0, which means
// fire-and-forget. When an op completes or fails, its slot's generation
// goes up and the slot is freed. An ack completes an op only when the
// cid's slot is in use, its generation matches and the ack came from the
// peer the op was sent to; anything else (an unknown or stale cid, a
// replayed ack whose slot a newer op now holds, another peer's guess) is
// ignored. A table grows to the most ops ever outstanding at once on its
// node and allocates nothing after that. Callbacks run outside the
// table's mutex.
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
#include <utility>
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

  /// One kind of pending completion on a node (see the header): slots
  /// plus a free list, cid = (generation << 32) | (index + 1). Not
  /// synchronized; NodeState::completions_mu guards it.
  template <typename Fn>
  class CompletionTable {
   public:
    /// Holds `fn` for an op sent to `dst`; returns the op's cid.
    std::uint64_t stash(NodeId dst, Fn fn) {
      std::uint32_t index;
      if (free_.empty()) {
        index = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
      } else {
        index = free_.back();
        free_.pop_back();
      }
      Slot& slot = slots_[index];
      slot.fn = std::move(fn);
      slot.dst = dst;
      slot.busy = true;
      return (std::uint64_t{slot.generation} << 32) | (index + 1);
    }

    /// Frees and returns the callback `cid` names, if an ack from `from`
    /// may complete it; otherwise an empty Fn, and nothing changes.
    Fn take(std::uint64_t cid, NodeId from) {
      // A cid of 0 wraps to an index past any table.
      const std::uint64_t index = (cid & 0xFFFF'FFFF) - 1;
      if (index >= slots_.size()) return nullptr;
      const Slot& slot = slots_[index];
      if (!slot.busy || slot.generation != cid >> 32 || slot.dst != from) {
        return nullptr;
      }
      return release(index);
    }

    /// Frees every slot still waiting on `peer`, appending its callback.
    void take_all_to(NodeId peer, std::vector<Fn>& fns) {
      for (std::size_t index = 0; index < slots_.size(); ++index) {
        if (slots_[index].busy && slots_[index].dst == peer) {
          fns.push_back(release(index));
        }
      }
    }

   private:
    struct Slot {
      Fn fn;
      NodeId dst = 0;  ///< where the op went: its acks come from there
      std::uint32_t generation = 0;
      bool busy = false;
    };

    Fn release(std::size_t index) {
      Slot& slot = slots_[index];
      slot.busy = false;
      ++slot.generation;
      free_.push_back(static_cast<std::uint32_t>(index));
      return std::exchange(slot.fn, nullptr);
    }

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;
  };

  struct NodeState {
    Worker worker;  ///< AM handler table + two-sided rx queue (thread-safe)
    /// Registered windows and the exposed segment; guarded — registration
    /// happens at setup while progress threads may already be translating.
    mutable std::mutex mem_mu;
    MemoryDomain memory;
    std::optional<MemRegion> exposed;
    /// Pending completion callbacks, one table per ack kind; guarded so a
    /// context handoff between driving threads is safe.
    std::mutex completions_mu;
    CompletionTable<CompletionFn> completions;
    CompletionTable<GetCompletionFn> get_completions;
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
  /// Removes and invokes the completion stashed under `cid` by an op that
  /// `node` sent to `from`, if any. An ack from any other node, and a cid
  /// already completed or failed, is ignored. A completion that fails
  /// locally passes the op's own destination as `from`.
  void complete(NodeId node, NodeId from, std::uint64_t cid, Status status);
  void complete_get(NodeId node, NodeId from, std::uint64_t cid,
                    StatusOr<Bytes> result);
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
