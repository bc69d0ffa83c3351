#include "am/am_runtime.hpp"

#include <chrono>
#include <mutex>

#include "common/log.hpp"

namespace tc::am {

namespace {

constexpr std::uint16_t kResultIndex = 0xffff;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Bytes encode_am_frame(std::uint16_t index, std::uint32_t origin,
                      ByteSpan payload) {
  ByteWriter w;
  w.u16(kAmFrameMagic);
  w.u16(index);
  w.u32(origin);
  w.raw(payload);
  return std::move(w).take();
}

}  // namespace

StatusOr<std::unique_ptr<AmRuntime>> AmRuntime::create(
    fabric::Transport& transport, fabric::NodeId node, Options options) {
  if (node >= transport.node_count()) {
    return invalid_argument("AmRuntime::create: no node " +
                            std::to_string(node));
  }
  auto runtime =
      std::unique_ptr<AmRuntime>(new AmRuntime(transport, node, options));
  TC_RETURN_IF_ERROR(transport.register_am_handler(
      node, kAmChannel,
      [raw = runtime.get()](ByteSpan frame, fabric::NodeId source) {
        raw->on_am(frame, source);
      }));
  return runtime;
}

AmRuntime::AmRuntime(fabric::Transport& transport, fabric::NodeId node,
                     Options options)
    : transport_(&transport), node_(node), options_(options) {}

AmRuntime::~AmRuntime() {
  (void)transport_->unregister_am_handler(node_, kAmChannel);
}

StatusOr<std::uint16_t> AmRuntime::register_handler(AmHandlerFn handler) {
  if (!handler) return invalid_argument("register_handler: empty handler");
  std::unique_lock lock(handlers_mu_);
  if (handlers_.size() >= kResultIndex) {
    return resource_exhausted("AM handler table full");
  }
  handlers_.push_back(std::make_shared<const AmHandlerFn>(std::move(handler)));
  return static_cast<std::uint16_t>(handlers_.size() - 1);
}

void AmRuntime::set_peers(std::vector<fabric::NodeId> peers) {
  peers_ = std::move(peers);
  self_peer_ = ~0ull;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i] == node_) self_peer_ = i;
  }
}

Status AmRuntime::send(fabric::NodeId dst, std::uint16_t index,
                       ByteSpan payload, std::uint32_t origin_node) {
  {
    std::shared_lock lock(handlers_mu_);
    if (index >= handlers_.size()) {
      return invalid_argument("AM send: handler index " +
                              std::to_string(index) + " not registered here");
    }
  }
  ++stats_.sent;
  transport_->post_am(node_, dst, kAmChannel,
                      as_span(encode_am_frame(index, origin_node, payload)),
                      {});
  return Status::ok();
}

Status AmRuntime::reply(const AmContext& ctx, ByteSpan data) {
  ++stats_.replies;
  transport_->post_am(node_, ctx.origin_node, kAmChannel,
                      as_span(encode_am_frame(kResultIndex, node_, data)), {});
  return Status::ok();
}

void AmRuntime::on_am(ByteSpan frame, fabric::NodeId source) {
  ByteReader r(frame);
  std::uint16_t magic = 0, index = 0;
  std::uint32_t origin = 0;
  if (!r.u16(magic) || magic != kAmFrameMagic || !r.u16(index) ||
      !r.u32(origin)) {
    ++stats_.errors;
    TC_LOG(kWarn, "am") << "node " << node_ << ": malformed AM frame from "
                        << source;
    return;
  }
  ByteSpan payload = frame.subspan(kAmHeaderSize);

  if (index == kResultIndex) {
    ++stats_.results_received;
    if (result_handler_) result_handler_(payload, origin);
    return;
  }
  // Pin the handler under the shared lock and invoke it unlocked, so the
  // handler body may re-enter this runtime (send, reply, register).
  std::shared_ptr<const AmHandlerFn> handler;
  {
    std::shared_lock lock(handlers_mu_);
    if (index < handlers_.size()) handler = handlers_[index];
  }
  if (!handler) {
    ++stats_.errors;
    TC_LOG(kWarn, "am") << "node " << node_ << ": no AM handler " << index;
    return;
  }

  // Charge the dispatch+execute cost *before* the handler's visible effects
  // (replies, forwards), matching the ifunc execution path.
  Bytes mutable_payload(payload.begin(), payload.end());
  const std::int64_t configured = options_.exec_cost_ns;
  transport_->execute_on(
      node_, configured >= 0 ? configured : 0,
      // Calibrated constants charge raw (see Runtime::charge).
      [this, index, origin, handler = std::move(handler),
       mutable_payload = std::move(mutable_payload)]() mutable {
        AmContext ctx;
        ctx.runtime = this;
        ctx.node = node_;
        ctx.origin_node = origin;
        ctx.target_ptr = target_ptr_;
        ctx.shard_base = shard_base_;
        ctx.shard_size = shard_size_;
        ctx.peers = &peers_;
        ctx.self_peer = self_peer_;
        ctx.handler_index = index;

        const std::int64_t t0 = now_ns();
        (*handler)(ctx, mutable_payload.data(), mutable_payload.size());
        const std::int64_t measured = now_ns() - t0;
        if (options_.exec_cost_ns < 0) {
          transport_->consume_compute(node_, measured, /*scale_cost=*/true);
        }
        ++stats_.executed;
        transport_->sync_to_compute_horizon(node_);
      },
      /*scale_cost=*/false);
}

}  // namespace tc::am
