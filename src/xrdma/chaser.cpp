#include "xrdma/chaser.hpp"

#include "ir/kernels.hpp"
#include "kir/am_backend.hpp"

namespace tc::xrdma {

Bytes encode_chase_payload(const ChaseRequest& request) {
  ByteWriter w;
  w.u64(request.address);
  w.u64(request.depth);
  return std::move(w).take();
}

StatusOr<ChaseRequest> decode_chase_payload(ByteSpan payload) {
  ByteReader r(payload);
  ChaseRequest request;
  TC_RETURN_IF_ERROR(r.u64(request.address));
  TC_RETURN_IF_ERROR(r.u64(request.depth));
  return request;
}

Bytes encode_tagged_chase_payload(const ChaseRequest& request,
                                  std::uint64_t tag) {
  ByteWriter w;
  w.u64(request.address);
  w.u64(request.depth);
  w.u64(tag);
  return std::move(w).take();
}

StatusOr<ChaseReply> decode_chase_reply(ByteSpan data) {
  if (data.size() != 8 && data.size() != 16) {
    return data_loss("chase reply must be 8 (classic) or 16 (tagged) bytes, "
                     "got " + std::to_string(data.size()));
  }
  ByteReader r(data);
  ChaseReply reply;
  TC_RETURN_IF_ERROR(r.u64(reply.value));
  if (data.size() == 16) {
    TC_RETURN_IF_ERROR(r.u64(reply.tag));
    reply.tagged = true;
  }
  return reply;
}

StatusOr<core::IfuncLibrary> build_chaser_library(ir::CodeRepr repr,
                                                  bool hll_frontend,
                                                  bool tagged) {
  return core::IfuncLibrary::from_stock_kernel(
      ir::KernelKind::kChaser, repr,
      {.hll_guards = hll_frontend, .chaser_tagged = tagged});
}

StatusOr<am::AmHandlerFn> make_chase_am_handler() {
  // The chaser's bytecode, interpreted: the classic program for 16-byte
  // payloads, the tagged one for 24-byte payloads. The sim charges the
  // calibrated AM exec cost whatever the handler body does.
  auto size_is = [](std::uint64_t want) {
    return [want](const am::AmContext&, const std::uint8_t*,
                  std::uint64_t size) { return size == want; };
  };
  ir::KernelOptions tagged_opts;
  tagged_opts.chaser_tagged = true;
  TC_ASSIGN_OR_RETURN(
      am::AmHandlerFn classic,
      kir::make_am_handler(ir::KernelKind::kChaser, {}, size_is(16)));
  TC_ASSIGN_OR_RETURN(
      am::AmHandlerFn tagged,
      kir::make_am_handler(ir::KernelKind::kChaser, tagged_opts, size_is(24)));
  return am::AmHandlerFn(
      [classic = std::move(classic), tagged = std::move(tagged)](
          am::AmContext& ctx, std::uint8_t* payload, std::uint64_t size) {
        (size == 24 ? tagged : classic)(ctx, payload, size);
      });
}

}  // namespace tc::xrdma
