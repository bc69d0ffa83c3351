#include "xrdma/chaser.hpp"

#include "common/log.hpp"
#include "ir/kernels.hpp"
#include "kir/am_backend.hpp"
#include "kir/kernels.hpp"
#if TC_WITH_LLVM
#include "ir/kernel_builder.hpp"
#include "jit/compiler.hpp"
#endif

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
  ir::KernelOptions options;
  options.hll_guards = hll_frontend;
  options.chaser_tagged = tagged;
  if (repr == ir::CodeRepr::kPortable) {
    // The interpreter tier: portable-only archive, zero compile on the
    // servers — and the only representation available without LLVM.
    return core::IfuncLibrary::from_portable_kernel(ir::KernelKind::kChaser,
                                                    options);
  }
#if TC_WITH_LLVM
  TC_ASSIGN_OR_RETURN(
      ir::FatBitcode archive,
      ir::build_default_fat_kernel(ir::KernelKind::kChaser, options));
  std::string name = ir::kernel_name(ir::KernelKind::kChaser);
  if (hll_frontend) name += "_hll";
  if (repr == ir::CodeRepr::kObject) {
    TC_ASSIGN_OR_RETURN(archive, jit::compile_archive_to_objects(archive));
    name += "_bin";
  }
  if (tagged) name += "_w";
  return core::IfuncLibrary::from_archive(std::move(name),
                                          std::move(archive));
#else
  return failed_precondition(
      "bitcode/object chaser libraries need LLVM (TC_WITH_LLVM=OFF); use "
      "ir::CodeRepr::kPortable");
#endif
}

StatusOr<am::AmHandlerFn> make_chase_am_handler() {
  // The same single KIR definition that lowers to bytecode and LLVM IR is
  // evaluated as the handler. Payload-size dispatch (16 = classic, 24 =
  // tagged) and the warn-and-drop contract live here; the evaluator charges
  // nothing extra in the sim, whose AM exec cost is the calibrated constant.
  ir::KernelOptions tagged_opts;
  tagged_opts.chaser_tagged = true;
  TC_ASSIGN_OR_RETURN(kir::Def classic,
                      kir::prepared_def(ir::KernelKind::kChaser, {}));
  TC_ASSIGN_OR_RETURN(kir::Def tagged,
                      kir::prepared_def(ir::KernelKind::kChaser, tagged_opts));
  return am::AmHandlerFn(
      [classic = std::move(classic), tagged = std::move(tagged)](
          am::AmContext& ctx, std::uint8_t* payload, std::uint64_t size) {
        if (size != 16 && size != 24) {
          TC_LOG(kWarn, "xrdma") << "AM chaser: bad payload";
          return;
        }
        const kir::Def& def = size == 24 ? tagged : classic;
        Status status = kir::run_in_am_context(def, ctx, payload, size);
        if (!status.is_ok()) {
          TC_LOG(kWarn, "xrdma") << "AM chaser: " << status.message();
        }
      });
}

}  // namespace tc::xrdma
