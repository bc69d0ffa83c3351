// The ifunc ABI: the contract between JIT-compiled ifunc code and the host
// runtime it dynamically links against.
//
// An ifunc library exposes one entry point:
//
//     void tc_main(void* ctx, uint8_t* payload, uint64_t payload_size);
//
// `ctx` is an opaque ExecContext created by the receiving runtime for the
// duration of one invocation. The ifunc interacts with the node it landed on
// exclusively through the extern "C" hook functions below, which ORC-JIT
// resolves from the host process at link time — this is the paper's "remote
// dynamic linking": shipped code binding against libraries (including the
// communication runtime itself) on the target.
//
// Hook symbols are defined in src/core/context.cpp. The LLVM emitter
// (src/kir/llvm_backend.cpp) emits calls to them by name.
#pragma once

#include <cstdint>

namespace tc::abi {

/// Entry point every ifunc library must export.
inline constexpr const char* kEntryName = "tc_main";

/// void* tc_ctx_target(void* ctx)
/// The user-defined target pointer supplied by the receiving application
/// (the paper's "user-defined target pointer" argument).
inline constexpr const char* kHookTarget = "tc_ctx_target";

/// uint64_t tc_ctx_node(void* ctx) — fabric NodeId of the executing node.
inline constexpr const char* kHookNode = "tc_ctx_node";

/// uint64_t tc_ctx_peer_count(void* ctx) — number of peers in the context's
/// peer table (e.g. number of DAPC servers).
inline constexpr const char* kHookPeerCount = "tc_ctx_peer_count";

/// uint64_t tc_ctx_self_peer(void* ctx) — this node's index in the peer
/// table, or ~0 if it is not a member (e.g. the client).
inline constexpr const char* kHookSelfPeer = "tc_ctx_self_peer";

/// uint64_t* tc_ctx_shard_base(void* ctx) — base of the local pointer-table
/// shard (X-RDMA), or null when no shard is attached.
inline constexpr const char* kHookShardBase = "tc_ctx_shard_base";

/// uint64_t tc_ctx_shard_size(void* ctx) — entries in the local shard.
inline constexpr const char* kHookShardSize = "tc_ctx_shard_size";

/// int32_t tc_ctx_forward(void* ctx, uint64_t peer, const uint8_t* payload,
///                        uint64_t size)
/// Re-injects the *currently executing* ifunc (code + new payload) to the
/// peer with the given index. Returns 0 on success.
inline constexpr const char* kHookForward = "tc_ctx_forward";

/// int32_t tc_ctx_inject(void* ctx, uint64_t peer, const char* ifunc_name,
///                       const uint8_t* payload, uint64_t size)
/// Injects a *different* locally registered ifunc to a peer — the mechanism
/// behind "code that selects new functions for further remote injections".
inline constexpr const char* kHookInject = "tc_ctx_inject";

/// int32_t tc_ctx_reply(void* ctx, const uint8_t* data, uint64_t size)
/// Sends a result back to the origin node of the current request chain
/// (used by the X-RDMA ReturnResult operation).
inline constexpr const char* kHookReply = "tc_ctx_reply";

/// int32_t tc_ctx_remote_write(void* ctx, uint64_t peer, uint64_t offset,
///                             const uint8_t* data, uint64_t size)
/// One-sided RDMA PUT from inside an ifunc into the exposed segment of a
/// peer (X-RDMA: "the injection operation can modify remote memory and
/// issue new remote memory operations"). The target must have called
/// Runtime::expose_segment(); rkeys are exchanged out of band at setup.
inline constexpr const char* kHookRemoteWrite = "tc_ctx_remote_write";

/// void tc_hll_guard(void* ctx)
/// Dynamic-dispatch guard emitted by the high-level-language frontend (the
/// Julia-integration analogue); a calibrated-cost no-op on the host side.
inline constexpr const char* kHookHllGuard = "tc_hll_guard";

/// Function pointer type of the entry point.
using EntryFn = void (*)(void* ctx, std::uint8_t* payload,
                         std::uint64_t payload_size);

}  // namespace tc::abi
