// The predeployed Active-Message handlers of the stock kernels.
//
// A handler interprets its kernel's portable bytecode — the
// vm::lower_kernel program emitted from the kernel's one KIR definition,
// built once when the handler is made — against a vm::HookTable bridged
// onto the AmContext surface: forward becomes
// AmRuntime::send(peers[i], handler_index, ...) with the chain origin
// preserved (a peer outside the peer table is refused), reply becomes
// AmRuntime::reply, and inject/remote_write, which the AM surface lacks,
// return -1. The AM baseline stays the paper's lower bound: on the
// simulated fabric a handler invocation is charged the calibrated constant
// profile cost regardless of how the handler body is implemented, so
// interpreting the bytecode leaves every figure byte-identical.
#pragma once

#include <functional>

#include "am/am_runtime.hpp"
#include "common/status.hpp"
#include "ir/kernels.hpp"

namespace tc::kir {

/// A handler's payload gate, checked before the program runs. The kernels
/// trust their payload words, so the gate must reject every invocation the
/// program could not survive: a frame of the wrong size, a missing shard,
/// target or peer table, and any wire word the kernel uses to index memory.
using AmGate = std::function<bool(const am::AmContext& ctx,
                                  const std::uint8_t* payload,
                                  std::uint64_t size)>;

/// Builds the predeployed AM handler for a stock kernel: interprets
/// vm::lower_kernel(kind, options) behind `gate` (without one, payloads
/// below the def's declared floor are refused), logging and dropping
/// refused invocations and interpreter faults. Fails if the kernel does not
/// lower.
StatusOr<am::AmHandlerFn> make_am_handler(ir::KernelKind kind,
                                          const ir::KernelOptions& options = {},
                                          AmGate gate = {});

}  // namespace tc::kir
