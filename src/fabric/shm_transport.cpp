#include "fabric/shm_transport.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>

namespace tc::fabric {

namespace {
// Depth of progress() frames on this thread. Used to decide whether a
// blocked producer may drain its own rings (top-level post) or must just
// wait (posting from inside a handler — the dedicated progress loop will
// resume draining as soon as the handler returns).
thread_local int g_progress_depth = 0;

// A GET reply this short rides in its ack op's rkey and offset words, which
// an ack never reads, so the target allocates no reply buffer.
constexpr std::size_t kInlineGetBytes = 16;
}  // namespace

ShmTransport::ShmTransport(std::size_t node_count, ShmTransportOptions options)
    : WallClockTransport(node_count, kAllLocal, options.run_until_timeout_ms),
      options_(options) {
  rings_.resize(node_count * node_count);
  for (std::size_t src = 0; src < node_count; ++src) {
    for (std::size_t dst = 0; dst < node_count; ++dst) {
      if (src == dst) continue;  // loopback is delivered inline
      rings_[src * node_count + dst] =
          std::make_unique<SpscRing<Op>>(options_.ring_capacity);
    }
  }
}

ShmTransport::~ShmTransport() { stop_progress_threads(); }

void ShmTransport::push_op(NodeId src, NodeId dst, Op op) {
  if (src == dst) {
    // Loopback: no wire, the initiator's context is the target's context.
    handle_op(dst, src, op);
    return;
  }
  SpscRing<Op>& r = ring(src, dst);
  if (r.try_push(op)) return;
  producer_stalls_.fetch_add(1, std::memory_order_relaxed);
  // Backpressure rules, in order:
  //  * a stopping transport drops the op — a blocked producer must never
  //    keep stop_progress_threads()/teardown from joining;
  //  * below the nesting cap, drain our own rings while we wait (dispatch
  //    is re-entrant by contract), which breaks the cycle of two nodes
  //    blocked on each other's full rings;
  //  * at the cap, just yield — the consumer side owes us space;
  //  * past full_ring_wait_ms the consumer is considered wedged: stop
  //    waiting and fail the op's completion with the shared
  //    backpressure_status() so the runtime's retry policy takes over —
  //    the same signal the socket backend's full tx queue reports.
  constexpr int kMaxNestedProgress = 8;
  const std::int64_t deadline =
      now_ns() + options_.full_ring_wait_ms * 1'000'000;
  std::uint32_t spins = 0;
  while (!r.try_push(op)) {
    if (stopping()) {
      ops_unringed_.fetch_add(1, std::memory_order_relaxed);
      ops_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if ((++spins & 0x3F) == 0 && now_ns() > deadline) {
      ops_unringed_.fetch_add(1, std::memory_order_relaxed);
      backpressure_failures_.fetch_add(1, std::memory_order_relaxed);
      fail_op_backpressure(src, dst, op);
      return;
    }
    if (g_progress_depth < kMaxNestedProgress) {
      progress(src);
    } else {
      std::this_thread::yield();
    }
  }
}

void ShmTransport::fail_op_backpressure(NodeId src, NodeId dst,
                                        const Op& op) {
  switch (op.kind) {
    case Op::Kind::kAck:
    case Op::Kind::kGetAck:
      // The completion this ack routes to lives on the *peer*; all we can
      // do is drop it and let the peer's watchdog surface the loss.
      ops_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    case Op::Kind::kGet:
      complete_get(src, dst, op.cid, backpressure_status(src, dst));
      return;
    default:
      if (op.cid != 0) {
        complete(src, dst, op.cid, backpressure_status(src, dst));
      }
      return;
  }
}

ShmTransport::Stats ShmTransport::stats() const {
  Stats s;
  for (const std::unique_ptr<SpscRing<Op>>& r : rings_) {
    if (r == nullptr) continue;  // loopback has no ring
    s.ops_pushed += r->pushed();
    s.ops_drained += r->popped();
  }
  s.ops_pushed += ops_unringed_.load(std::memory_order_relaxed);
  s.producer_stalls = producer_stalls_.load(std::memory_order_relaxed);
  s.ops_dropped = ops_dropped_.load(std::memory_order_relaxed);
  s.backpressure_failures =
      backpressure_failures_.load(std::memory_order_relaxed);
  return s;
}

bool ShmTransport::progress(NodeId node) {
  ++g_progress_depth;
  bool did_work = fire_due_timers(node);
  const std::size_t n = node_count();
  Op op;
  for (NodeId src = 0; src < n; ++src) {
    if (src == node) continue;
    SpscRing<Op>& r = ring(src, node);
    while (r.try_pop(op)) {
      handle_op(node, src, op);
      did_work = true;
    }
  }
  --g_progress_depth;
  return did_work;
}

void ShmTransport::handle_op(NodeId node, NodeId src, Op& op) {
  static_assert(sizeof(op.rkey) + sizeof(op.offset) == kInlineGetBytes,
                "an inline GET reply fills the ack's address words");
  NodeState& state = node_state(node);
  Status status;
  switch (op.kind) {
    case Op::Kind::kSend:
      state.worker.deliver_message(std::move(op.data), src);
      break;
    case Op::Kind::kAm:
      status = state.worker.deliver_am(op.am_id, std::move(op.data), src);
      break;
    case Op::Kind::kPut: {
      std::lock_guard lock(state.mem_mu);
      auto target =
          state.memory.translate(op.rkey, op.offset, op.data.size());
      if (target.is_ok()) {
        std::memcpy(*target, op.data.data(), op.data.size());
      } else {
        status = target.status();
      }
      break;
    }
    case Op::Kind::kGet: {
      Op ack;
      ack.kind = Op::Kind::kGetAck;
      ack.cid = op.cid;
      ack.length = op.length;
      {
        std::lock_guard lock(state.mem_mu);
        auto source = state.memory.translate(op.rkey, op.offset, op.length);
        if (!source.is_ok()) {
          encode_ack_status(source.status(), ack.code, ack.data);
        } else if (op.length <= kInlineGetBytes) {
          std::uint8_t words[kInlineGetBytes] = {};
          std::copy_n(*source, op.length, words);
          std::memcpy(&ack.rkey, words, sizeof(ack.rkey));
          std::memcpy(&ack.offset, words + sizeof(ack.rkey),
                      sizeof(ack.offset));
        } else {
          ack.data.assign(*source, *source + op.length);
        }
      }
      push_op(node, src, std::move(ack));
      return;
    }
    case Op::Kind::kAck:
      complete(node, src, op.cid, acked_status(op.code, op.data));
      return;
    case Op::Kind::kGetAck:
      if (op.code != 0) {
        complete_get(node, src, op.cid, acked_status(op.code, op.data));
      } else if (op.length <= kInlineGetBytes) {
        std::uint8_t words[kInlineGetBytes];
        std::memcpy(words, &op.rkey, sizeof(op.rkey));
        std::memcpy(words + sizeof(op.rkey), &op.offset, sizeof(op.offset));
        complete_get(node, src, op.cid, Bytes(words, words + op.length));
      } else {
        complete_get(node, src, op.cid, std::move(op.data));
      }
      return;
  }
  // kSend, kAm, kPut: ack when the initiator stashed a completion.
  if (op.cid == 0) return;
  Op ack;
  ack.kind = Op::Kind::kAck;
  ack.cid = op.cid;
  encode_ack_status(status, ack.code, ack.data);
  push_op(node, src, std::move(ack));
}

void ShmTransport::post_send(NodeId src, NodeId dst, Bytes data,
                             std::size_t /*fragments*/,
                             CompletionFn on_complete) {
  if (!admit_post("post_send", src, dst, on_complete)) return;
  Op op;
  op.kind = Op::Kind::kSend;
  op.data = std::move(data);
  if (on_complete) op.cid = stash_completion(src, dst, std::move(on_complete));
  push_op(src, dst, std::move(op));
}

void ShmTransport::post_am(NodeId src, NodeId dst, AmId id, ByteSpan payload,
                           CompletionFn on_complete) {
  if (!admit_post("post_am", src, dst, on_complete)) return;
  Op op;
  op.kind = Op::Kind::kAm;
  op.am_id = id;
  op.data.assign(payload.begin(), payload.end());
  if (on_complete) op.cid = stash_completion(src, dst, std::move(on_complete));
  push_op(src, dst, std::move(op));
}

void ShmTransport::post_put(NodeId src, const RemoteAddr& dst, ByteSpan data,
                            CompletionFn on_complete) {
  if (!admit_post("post_put", src, dst.node, on_complete)) return;
  Op op;
  op.kind = Op::Kind::kPut;
  op.rkey = dst.rkey;
  op.offset = dst.offset;
  op.data.assign(data.begin(), data.end());
  if (on_complete) {
    op.cid = stash_completion(src, dst.node, std::move(on_complete));
  }
  push_op(src, dst.node, std::move(op));
}

void ShmTransport::post_get(NodeId src, const RemoteAddr& addr,
                            std::size_t length, GetCompletionFn on_complete) {
  if (!admit_post("post_get", src, addr.node, on_complete)) return;
  if (length > std::numeric_limits<std::uint32_t>::max()) {
    // The op's length field is 32 bits: a longer GET enters no ring.
    if (on_complete) {
      on_complete(out_of_range("post_get: length " + std::to_string(length) +
                               " exceeds the shm op's 32-bit length"));
    }
    return;
  }
  Op op;
  op.kind = Op::Kind::kGet;
  op.rkey = addr.rkey;
  op.offset = addr.offset;
  op.length = static_cast<std::uint32_t>(length);
  op.cid = stash_get_completion(src, addr.node, std::move(on_complete));
  push_op(src, addr.node, std::move(op));
}

}  // namespace tc::fabric
