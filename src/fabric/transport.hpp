// Transport: the pluggable fabric backend interface.
//
// Everything above the fabric layer (core::Runtime, am::AmRuntime, the
// X-RDMA miniapps) speaks this interface, so the same protocol code runs
// over any of three backends:
//
//  * Fabric (fabric.hpp) — the deterministic single-threaded discrete-event
//    engine with calibrated virtual-time models. Every paper figure/table
//    is measured here; bit-for-bit reproducible.
//  * ShmTransport — real OS threads: one progress context per node,
//    lock-free SPSC rings per directed link, registered-memory windows in
//    a shared in-process arena. No time model — wall-clock measurements on
//    the hardware we actually have.
//  * SocketTransport — real kernel sockets: every verb crosses a
//    length-prefixed wire codec, between threads of one process
//    (socketpair mesh) or between separate OS processes.
//
// The two wall-clock backends derive from WallClockTransport
// (wall_clock_transport.hpp), which owns what they do the same way: node
// state, completion tables, timers, progress threads and run_until. They
// keep only how bytes move. FaultyTransport decorates any backend with
// injected faults.
//
// Every post_* first checks its endpoints: a `src` or `dst` outside
// [0, node_count()) fails the completion with no_such_node() and posts
// nothing, so a NodeId read off the wire can never index a node table.
//
// Threading contract: every node has exactly one *progress context* — the
// thread currently driving progress(node) / run_until(node, ...). All
// post_* calls for messages *initiated by* `src` must be made from `src`'s
// progress context, and all completion callbacks, AM handlers and delivery
// notifiers for a node fire on that node's progress context. The simulated
// backend trivially satisfies this (one thread drives everything); the shm
// backend relies on it to keep its rings single-producer/single-consumer,
// and the socket backend to touch each link from one context only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "fabric/memory.hpp"
#include "fabric/worker.hpp"

namespace tc::fabric {

using CompletionFn = std::function<void(Status)>;
using GetCompletionFn = std::function<void(StatusOr<Bytes>)>;

/// The canonical completion Status every wall-clock backend reports when a
/// bounded send buffer (shm SPSC ring, socket tx queue) stays full: the op
/// was never put on the wire and it is safe — and expected — for the retry
/// layer (core::RuntimeOptions::max_send_retries) to back off and re-post
/// the same bytes. Shared so shm and socket are indistinguishable to the
/// runtime's retry policy.
inline Status backpressure_status(NodeId src, NodeId dst) {
  return resource_exhausted("send buffer full: node " + std::to_string(src) +
                            " -> node " + std::to_string(dst));
}

/// True when `status` is the shared send-buffer-exhaustion signal above (as
/// opposed to other kResourceExhausted sources such as run_until budgets).
inline bool is_backpressure(const Status& status) {
  return status.code() == ErrorCode::kResourceExhausted &&
         status.message().rfind("send buffer full", 0) == 0;
}

/// The completion Status of a post_* whose `node` (source or destination)
/// is outside [0, node_count). Nothing was posted.
inline Status no_such_node(const char* verb, NodeId node,
                           std::size_t node_count) {
  return invalid_argument(std::string(verb) + ": no node " +
                          std::to_string(node) + " (cluster has " +
                          std::to_string(node_count) + ")");
}

class Transport {
 public:
  virtual ~Transport() = default;
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // --- identity -------------------------------------------------------------
  virtual const char* name() const = 0;
  /// True when the backend runs in reproducible virtual time (simulation);
  /// false for wall-clock backends.
  virtual bool deterministic() const = 0;
  virtual std::size_t node_count() const = 0;

  // --- data plane (call from `src`'s progress context) ----------------------
  /// Two-sided eager send into `dst`'s receive queue. `fragments` > 1
  /// declares a coalesced message carrying that many logical frames (the
  /// occupancy accounting of batch containers; delivery is unaffected).
  /// Takes the bytes it ships: a backend that delivers the buffer as it is
  /// (sim, shm) moves it to the receiver, so a caller that hands over a
  /// freshly encoded frame pays no copy.
  virtual void post_send(NodeId src, NodeId dst, Bytes data,
                         std::size_t fragments, CompletionFn on_complete) = 0;
  /// post_send for a caller that holds only a view: the one copy is made
  /// here. Backends bring it into scope with `using Transport::post_send;`.
  void post_send(NodeId src, NodeId dst, ByteSpan data, std::size_t fragments,
                 CompletionFn on_complete) {
    post_send(src, dst, Bytes(data.begin(), data.end()), fragments,
              std::move(on_complete));
  }
  /// Active message dispatched to `dst`'s registered handler for `id`.
  virtual void post_am(NodeId src, NodeId dst, AmId id, ByteSpan payload,
                       CompletionFn on_complete) = 0;
  /// One-sided write into remote registered memory (RDMA PUT).
  virtual void post_put(NodeId src, const RemoteAddr& dst, ByteSpan data,
                        CompletionFn on_complete) = 0;
  /// One-sided read from remote registered memory (RDMA GET).
  virtual void post_get(NodeId src, const RemoteAddr& addr, std::size_t length,
                        GetCompletionFn on_complete) = 0;

  // --- registered memory ----------------------------------------------------
  /// Registers [base, base+length) on `node` for remote one-sided access
  /// and mints an rkey (ibv_reg_mr analogue).
  virtual StatusOr<MemRegion> register_window(NodeId node, void* base,
                                              std::size_t length) = 0;
  /// Publishes `node`'s single application segment (the out-of-band rkey
  /// exchange real deployments do at setup; see Runtime::expose_segment).
  virtual Status expose_segment(NodeId node, void* base,
                                std::size_t length) = 0;
  virtual std::optional<MemRegion> exposed_segment(NodeId node) const = 0;

  // --- two-sided receive & AM dispatch --------------------------------------
  virtual Status register_am_handler(NodeId node, AmId id,
                                     AmHandler handler) = 0;
  virtual Status unregister_am_handler(NodeId node, AmId id) = 0;
  virtual std::optional<ReceivedMessage> try_recv(NodeId node) = 0;
  /// Callback fired (on `node`'s progress context) whenever a two-sided
  /// message lands in its receive queue.
  virtual void set_delivery_notifier(NodeId node,
                                     std::function<void()> notify) = 0;

  // --- time & modeled compute -----------------------------------------------
  /// Virtual nanoseconds (sim) or monotonic wall-clock nanoseconds (shm,
  /// socket).
  virtual std::int64_t now_ns() const = 0;
  /// Charges modeled compute to `node`. Wall-clock backends ignore this —
  /// real work already takes real time.
  virtual void consume_compute(NodeId node, std::int64_t cost_ns,
                               bool scale_cost) = 0;
  /// Runs `fn` on `node`'s progress context once the node is free, charging
  /// `cost_ns` of modeled compute first (see Fabric::execute_on).
  virtual void execute_on(NodeId node, std::int64_t cost_ns,
                          std::function<void()> fn, bool scale_cost) = 0;
  /// Runs `fn` on `node`'s progress context after `delay_ns` (virtual or
  /// wall). Used for deadlines (batch flush); no cancellation — callers
  /// guard with generation counters / liveness tokens.
  virtual void schedule_after(NodeId node, std::int64_t delay_ns,
                              std::function<void()> fn) = 0;
  /// Advances observable time to the end of `node`'s charged compute, so a
  /// caller idling the backend reads completion time, not invocation time.
  /// No-op on wall-clock backends.
  virtual void sync_to_compute_horizon(NodeId node) = 0;

  // --- progress -------------------------------------------------------------
  /// One unit of progress for `node` (the calling thread becomes the node's
  /// progress context). Returns false when there was nothing to do.
  virtual bool progress(NodeId node) = 0;
  /// Drives progress on `node` until `pred()` holds. Fails with
  /// kResourceExhausted when the backend's safety budget (event count or
  /// wall-clock timeout) is spent, kFailedPrecondition if the backend goes
  /// permanently idle first.
  virtual Status run_until(NodeId node, const std::function<bool()>& pred) = 0;
};

}  // namespace tc::fabric
