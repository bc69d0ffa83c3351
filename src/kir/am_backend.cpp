#include "kir/am_backend.hpp"

#include <cmath>

#include "common/log.hpp"
#include "kir/kernels.hpp"
#include "vm/interp.hpp"
#include "vm/lower.hpp"

namespace tc::kir {

namespace {

double am_sin(double x) { return std::sin(x); }

/// A hook table over an AmContext: target/peer/shard queries read the
/// context, forward re-sends the handler's own index through the runtime,
/// reply sends a result frame to the chain origin. The table borrows `ctx`.
vm::HookTable am_hooks(am::AmContext& ctx) {
  vm::HookTable hooks;
  hooks.ctx = &ctx;
  hooks.target = [](void* c) {
    return static_cast<am::AmContext*>(c)->target_ptr;
  };
  hooks.node = [](void* c) -> std::uint64_t {
    return static_cast<am::AmContext*>(c)->node;
  };
  hooks.peer_count = [](void* c) -> std::uint64_t {
    const auto* peers = static_cast<am::AmContext*>(c)->peers;
    return peers == nullptr ? 0 : peers->size();
  };
  hooks.self_peer = [](void* c) -> std::uint64_t {
    return static_cast<am::AmContext*>(c)->self_peer;
  };
  hooks.shard_base = [](void* c) {
    return static_cast<am::AmContext*>(c)->shard_base;
  };
  hooks.shard_size = [](void* c) -> std::uint64_t {
    return static_cast<am::AmContext*>(c)->shard_size;
  };
  hooks.forward = [](void* c, std::uint64_t peer, const std::uint8_t* data,
                     std::uint64_t size) -> std::int32_t {
    auto* ctx = static_cast<am::AmContext*>(c);
    if (ctx->runtime == nullptr || ctx->peers == nullptr ||
        peer >= ctx->peers->size()) {
      return -1;
    }
    // Re-sends this handler's own index with the chain origin preserved —
    // the AM self-forward, mirroring ExecContext's forward.
    Status status =
        ctx->runtime->send((*ctx->peers)[peer], ctx->handler_index,
                           ByteSpan(data, size), ctx->origin_node);
    return status.is_ok() ? 0 : -1;
  };
  hooks.reply = [](void* c, const std::uint8_t* data,
                   std::uint64_t size) -> std::int32_t {
    auto* ctx = static_cast<am::AmContext*>(c);
    if (ctx->runtime == nullptr) return -1;
    Status status = ctx->runtime->reply(*ctx, ByteSpan(data, size));
    return status.is_ok() ? 0 : -1;
  };
  // inject/remote_write are ifunc-runtime operations with no AM analogue
  // (the AM baseline predeployes all code and has no exposed segments);
  // kernels that need them are not AM-portable, and a program that still
  // calls them observes the failure rc instead of a crash.
  hooks.inject = [](void*, std::uint64_t, const char*, const std::uint8_t*,
                    std::uint64_t) -> std::int32_t { return -1; };
  hooks.remote_write = [](void*, std::uint64_t, std::uint64_t,
                          const std::uint8_t*,
                          std::uint64_t) -> std::int32_t { return -1; };
  // AM handlers never carried HLL guards; the hook is a no-op here rather
  // than a fault so guarded programs stay AM-runnable.
  hooks.hll_guard = [](void*) {};
  hooks.sin_fn = am_sin;
  return hooks;
}

}  // namespace

StatusOr<am::AmHandlerFn> make_am_handler(ir::KernelKind kind,
                                          const ir::KernelOptions& options,
                                          AmGate gate) {
  TC_ASSIGN_OR_RETURN(Def def, prepared_def(kind, options));
  TC_ASSIGN_OR_RETURN(vm::Program program, vm::lower_kernel(kind, options));
  if (!gate) {
    gate = [floor = def.min_payload_bytes](const am::AmContext&,
                                           const std::uint8_t*,
                                           std::uint64_t size) {
      return size >= floor;
    };
  }
  return am::AmHandlerFn([name = std::move(def.name),
                          program = std::move(program),
                          gate = std::move(gate)](am::AmContext& ctx,
                                                  std::uint8_t* payload,
                                                  std::uint64_t size) {
    if (!gate(ctx, payload, size)) {
      TC_LOG(kWarn, "kir") << "AM " << name << ": bad payload";
      return;
    }
    auto result = vm::execute(program, am_hooks(ctx), payload, size);
    if (!result.is_ok()) {
      TC_LOG(kWarn, "kir") << "AM " << name << ": "
                           << result.status().message();
    }
  });
}

}  // namespace tc::kir
