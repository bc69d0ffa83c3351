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
// no cross-thread callback races by construction. Node state, completion
// tables, timers, progress threads and run_until are WallClockTransport's;
// this class keeps the rings and what travels on them.
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
//
// Counters: ops pushed and drained are the rings' own monotonic indices,
// summed by stats(), so a push or pop writes nothing outside its ring (no
// cache line that every progress context writes on every op). A sent
// frame moves into its ring op and out to the receiver uncopied.
//
// The op: 56 bytes, so a ring slot (the op plus the ring's sequence word)
// is exactly one cache line and a hop moves one line each way. The ring
// names the link, so the op carries no source, and post_send's fragment
// count is not carried (nothing here reads it). An ack carries a one-byte
// ErrorCode and, on error, its message in `data`: the encoding the socket
// backend's acks use (encode_ack_status / acked_status). A GET ack's
// `length` is the reply's; a reply of at most 16 bytes travels in the
// ack's `rkey` and `offset` words, which an ack never reads, so the target
// allocates no reply buffer (verbs' inline data, UCX's short ops). A
// longer reply moves in `data`, as does an error ack's message. The AM id
// is a u16 and the GET length a u32; a longer GET fails kOutOfRange at
// post time and enters no ring.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "fabric/spsc_ring.hpp"
#include "fabric/wall_clock_transport.hpp"

namespace tc::fabric {

struct ShmTransportOptions {
  /// Slots per directed link (rounded up to a power of two). Sized so the
  /// async windows of every initiator fit without producer stalls. A slot
  /// is one 64-byte cache line: the default ring holds 512 KiB per
  /// directed link.
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

class ShmTransport final : public WallClockTransport {
 public:
  explicit ShmTransport(std::size_t node_count,
                        ShmTransportOptions options = {});
  ~ShmTransport() override;

  // --- Transport ------------------------------------------------------------
  const char* name() const override { return "shm"; }

  /// Moves `data` into the ring op: the receiver's ReceivedMessage holds
  /// the very buffer the sender handed over.
  void post_send(NodeId src, NodeId dst, Bytes data, std::size_t fragments,
                 CompletionFn on_complete) override;
  using Transport::post_send;
  void post_am(NodeId src, NodeId dst, AmId id, ByteSpan payload,
               CompletionFn on_complete) override;
  void post_put(NodeId src, const RemoteAddr& dst, ByteSpan data,
                CompletionFn on_complete) override;
  void post_get(NodeId src, const RemoteAddr& addr, std::size_t length,
                GetCompletionFn on_complete) override;

  bool progress(NodeId node) override;

  struct Stats {
    /// Non-loopback ops posted: every ring push, plus the ops that never
    /// entered a ring (dropped at stop, failed under backpressure).
    std::uint64_t ops_pushed = 0;
    std::uint64_t ops_drained = 0;      ///< ring pops
    std::uint64_t producer_stalls = 0;  ///< full-ring backpressure events
    std::uint64_t ops_dropped = 0;      ///< posts abandoned during shutdown
    /// Ops abandoned after full_ring_wait_ms; their completions failed
    /// with fabric::backpressure_status().
    std::uint64_t backpressure_failures = 0;
  };
  /// A snapshot; safe from any thread while progress contexts run.
  Stats stats() const;

 private:
  /// One wire operation riding a link ring; 56 bytes, which SpscRing's
  /// one-line slot asserts (see the header).
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
    std::uint8_t code = 0;  ///< ErrorCode of an ack; its message is `data`
    AmId am_id = 0;
    std::uint32_t length = 0;  ///< kGet: bytes asked; kGetAck: bytes read
    /// kPut/kGet: the target address. kGetAck: a short reply's bytes.
    RKey rkey = 0;
    std::uint64_t offset = 0;
    std::uint64_t cid = 0;  ///< 0 = fire-and-forget
    Bytes data;
  };

  SpscRing<Op>& ring(NodeId src, NodeId dst) {
    return *rings_[src * node_count() + dst];
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
  void fail_op_backpressure(NodeId src, NodeId dst, const Op& op);
  /// Runs `op`, which `src` sent to `node` (loopback: src == node).
  void handle_op(NodeId node, NodeId src, Op& op);

  ShmTransportOptions options_;
  std::vector<std::unique_ptr<SpscRing<Op>>> rings_;

  std::atomic<std::uint64_t> producer_stalls_{0};
  /// Ops push_op gave up on before they entered a ring (stop, backpressure).
  std::atomic<std::uint64_t> ops_unringed_{0};
  std::atomic<std::uint64_t> ops_dropped_{0};
  std::atomic<std::uint64_t> backpressure_failures_{0};
};

}  // namespace tc::fabric
