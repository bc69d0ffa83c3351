// The X-RDMA Chaser and ReturnResult operations (paper §IV-C): payload
// codec, ifunc-library construction for every code representation, and the
// predeployed Active-Message equivalent of the chase logic.
#pragma once

#include <cstdint>

#include "am/am_runtime.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "core/ifunc.hpp"

namespace tc::xrdma {

/// Wire payload of a Chaser operation (two little-endian u64s; the chaser
/// mutates them in place when it forwards itself).
struct ChaseRequest {
  std::uint64_t address = 0;  ///< first element to access
  std::uint64_t depth = 0;    ///< remaining lookups
};

Bytes encode_chase_payload(const ChaseRequest& request);
StatusOr<ChaseRequest> decode_chase_payload(ByteSpan payload);

/// Tagged (pipelined) chase payload: [addr:u64][depth:u64][tag:u64]. The
/// tag identifies one of several in-flight chases from the same initiator
/// and rides along untouched through every forward hop; the final reply is
/// then [value:u64][tag:u64] instead of the bare value, so the initiator
/// can route out-of-order completions. All chaser kernels dispatch on the
/// payload size (16 = classic, 24 = tagged), which keeps the classic
/// single-chase wire exchange byte-for-byte unchanged.
Bytes encode_tagged_chase_payload(const ChaseRequest& request,
                                  std::uint64_t tag);

/// A decoded ReturnResult in either form: 8-byte classic (tagged == false)
/// or 16-byte tagged.
struct ChaseReply {
  std::uint64_t value = 0;
  std::uint64_t tag = 0;
  bool tagged = false;
};
StatusOr<ChaseReply> decode_chase_reply(ByteSpan data);

/// Builds the Chaser ifunc library.
///  repr = kBitcode  → multi-ISA fat-bitcode, JIT-compiled on servers;
///  repr = kObject   → AOT-compiled relocatable objects, link-only deploy;
///  repr = kPortable → portable bytecode, interpreted on servers with zero
///                     compile (works in TC_WITH_LLVM=OFF builds).
///  hll_frontend     → emit the high-level-language (Julia-analogue) IR.
///  tagged           → the async-window variant (tagged payload/reply); a
///                     distinct kernel + wire identity, so the classic
///                     chaser's code — and the interpreter tier's per-op
///                     charge — is untouched at window = 1.
StatusOr<core::IfuncLibrary> build_chaser_library(
    ir::CodeRepr repr = ir::CodeRepr::kBitcode, bool hll_frontend = false,
    bool tagged = false);

/// The predeployed AM handler (the paper's Active Message evaluation
/// baseline): interprets the chaser's bytecode, classic or tagged by
/// payload size. Must be registered under the same index on every node.
/// Fails if the kernel does not lower.
StatusOr<am::AmHandlerFn> make_chase_am_handler();

}  // namespace tc::xrdma
