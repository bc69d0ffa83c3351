#include "vm/interp.hpp"

#include <bit>
#include <cstring>
#include <string>

// Threaded (computed-goto) dispatch needs the GNU &&label extension; the
// build can also force the portable switch loop for differential testing
// or exotic toolchains. GCC must compile this file with -fno-crossjumping
// (CMakeLists.txt does): cross-jumping merges the handlers' identical
// dispatch tails into one shared indirect jump, undoing the threading.
#if !defined(TC_VM_SWITCH_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
#define TC_VM_HAS_THREADED 1
#else
#define TC_VM_HAS_THREADED 0
#endif

#if defined(__GNUC__) || defined(__clang__)
#define TC_VM_COLD __attribute__((noinline, cold))
#define TC_VM_NOINLINE __attribute__((noinline))
#else
#define TC_VM_COLD
#define TC_VM_NOINLINE
#endif

namespace tc::vm {

// The dispatch tables in interp_dispatch.inc enumerate every opcode by
// hand; force a revisit when the ISA grows.
static_assert(kOpcodeCount == 34,
              "update the dispatch tables in vm/interp_dispatch.inc");

namespace {

inline double as_f64(std::uint64_t bits) { return std::bit_cast<double>(bits); }

inline std::uint64_t f64_bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

inline float as_f32(std::uint64_t bits) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(bits));
}

inline std::uint64_t f32_bits(float v) {
  return std::bit_cast<std::uint32_t>(v);
}

inline std::uint8_t* mem_addr(std::uint64_t base, std::int32_t offset) {
  return reinterpret_cast<std::uint8_t*>(
      base + static_cast<std::uint64_t>(static_cast<std::int64_t>(offset)));
}

// On the real-threads backend interpreted ifuncs run on server progress
// threads and publish results into application memory other threads poll
// (e.g. broadcast slots). Real compiled code gets tear-free word accesses
// from the hardware; give interpreted code the same guarantee: naturally
// aligned word loads/stores are relaxed-width atomics with acquire/release
// ordering (free on x86, a plain lda/stl pair on AArch64), so a poller
// that acquires a flag word observes every store the ifunc made before
// releasing it. Unaligned accesses (packed payload bytes, single-threaded
// by the progress contract) keep the plain memcpy path.
template <typename T>
inline T load_word(const std::uint8_t* addr) {
  if ((reinterpret_cast<std::uintptr_t>(addr) & (sizeof(T) - 1)) == 0) {
    return __atomic_load_n(reinterpret_cast<const T*>(addr),
                           __ATOMIC_ACQUIRE);
  }
  T v;
  std::memcpy(&v, addr, sizeof(T));
  return v;
}

template <typename T>
inline void store_word(std::uint8_t* addr, T value) {
  if ((reinterpret_cast<std::uintptr_t>(addr) & (sizeof(T) - 1)) == 0) {
    __atomic_store_n(reinterpret_cast<T*>(addr), value, __ATOMIC_RELEASE);
    return;
  }
  std::memcpy(addr, &value, sizeof(T));
}

// --- cold paths ---------------------------------------------------------------
// Error construction allocates strings; keeping it out of line keeps the
// dispatch loop's register pressure and icache footprint down.

TC_VM_COLD Status err_fuel(std::uint64_t max_ops) {
  return resource_exhausted("vm: op budget (" + std::to_string(max_ops) +
                            ") exhausted");
}

TC_VM_COLD Status err_div_zero(const char* what, std::size_t pc) {
  return internal_error("vm: " + std::string(what) + " by zero at instr " +
                        std::to_string(pc));
}

TC_VM_COLD Status err_off_end() {
  // Unreachable for validated programs (last instruction is a terminator),
  // but keep the fail-safe so a logic bug here cannot become UB.
  return internal_error("vm: execution ran off the end of the program");
}

TC_VM_COLD Status err_bad_opcode(unsigned op, std::size_t pc) {
  return internal_error("vm: bad opcode " + std::to_string(op) +
                        " at instr " + std::to_string(pc));
}

TC_VM_COLD Status err_missing_hook(const char* name) {
  return failed_precondition("vm: " + std::string(name) +
                             " hook not provided");
}

// --- hooks --------------------------------------------------------------------
// Out of line: the nested switch is by far the largest handler and every
// call crosses into runtime code anyway.

TC_VM_NOINLINE Status do_hook(const Instr& in, const HookTable& hooks,
                              std::uint64_t* regs) {
  const HookId hook = static_cast<HookId>(in.a);
  const std::uint64_t* args = &regs[in.c];
  switch (hook) {
    case HookId::kTarget:
      if (hooks.target == nullptr) return err_missing_hook("target");
      regs[in.b] = reinterpret_cast<std::uint64_t>(hooks.target(hooks.ctx));
      break;
    case HookId::kNode:
      if (hooks.node == nullptr) return err_missing_hook("node");
      regs[in.b] = hooks.node(hooks.ctx);
      break;
    case HookId::kPeerCount:
      if (hooks.peer_count == nullptr) return err_missing_hook("peer_count");
      regs[in.b] = hooks.peer_count(hooks.ctx);
      break;
    case HookId::kSelfPeer:
      if (hooks.self_peer == nullptr) return err_missing_hook("self_peer");
      regs[in.b] = hooks.self_peer(hooks.ctx);
      break;
    case HookId::kShardBase:
      if (hooks.shard_base == nullptr) return err_missing_hook("shard_base");
      regs[in.b] =
          reinterpret_cast<std::uint64_t>(hooks.shard_base(hooks.ctx));
      break;
    case HookId::kShardSize:
      if (hooks.shard_size == nullptr) return err_missing_hook("shard_size");
      regs[in.b] = hooks.shard_size(hooks.ctx);
      break;
    case HookId::kForward:
      if (hooks.forward == nullptr) return err_missing_hook("forward");
      regs[in.b] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(hooks.forward(
              hooks.ctx, args[0],
              reinterpret_cast<const std::uint8_t*>(args[1]), args[2])));
      break;
    case HookId::kInject:
      if (hooks.inject == nullptr) return err_missing_hook("inject");
      regs[in.b] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(hooks.inject(
              hooks.ctx, args[0], reinterpret_cast<const char*>(args[1]),
              reinterpret_cast<const std::uint8_t*>(args[2]), args[3])));
      break;
    case HookId::kReply:
      if (hooks.reply == nullptr) return err_missing_hook("reply");
      regs[in.b] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(hooks.reply(
              hooks.ctx, reinterpret_cast<const std::uint8_t*>(args[0]),
              args[1])));
      break;
    case HookId::kRemoteWrite:
      if (hooks.remote_write == nullptr) {
        return err_missing_hook("remote_write");
      }
      regs[in.b] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(hooks.remote_write(
              hooks.ctx, args[0], args[1],
              reinterpret_cast<const std::uint8_t*>(args[2]), args[3])));
      break;
    case HookId::kHllGuard:
      if (hooks.hll_guard == nullptr) return err_missing_hook("hll_guard");
      hooks.hll_guard(hooks.ctx);
      break;
    case HookId::kSin:
      if (hooks.sin_fn == nullptr) return err_missing_hook("sin");
      regs[in.b] = f64_bits(hooks.sin_fn(as_f64(args[0])));
      break;
    case HookId::kShardInfo:
      // The whole shard-arrival preamble in one hook (r[b..b+3]); the
      // validator guarantees the four-register span is in range.
      if (hooks.shard_size == nullptr) return err_missing_hook("shard_size");
      if (hooks.self_peer == nullptr) return err_missing_hook("self_peer");
      if (hooks.shard_base == nullptr) return err_missing_hook("shard_base");
      if (hooks.peer_count == nullptr) return err_missing_hook("peer_count");
      regs[in.b] = hooks.shard_size(hooks.ctx);
      regs[in.b + 1] = hooks.self_peer(hooks.ctx);
      regs[in.b + 2] =
          reinterpret_cast<std::uint64_t>(hooks.shard_base(hooks.ctx));
      regs[in.b + 3] = hooks.peer_count(hooks.ctx);
      break;
  }
  return Status::ok();
}

// --- dispatch loops -----------------------------------------------------------

#define TC_VM_DISPATCH_NAME execute_switch
#define TC_VM_DISPATCH_THREADED 0
#include "vm/interp_dispatch.inc"
#undef TC_VM_DISPATCH_NAME
#undef TC_VM_DISPATCH_THREADED

#if TC_VM_HAS_THREADED
#define TC_VM_DISPATCH_NAME execute_threaded
#define TC_VM_DISPATCH_THREADED 1
#include "vm/interp_dispatch.inc"
#undef TC_VM_DISPATCH_NAME
#undef TC_VM_DISPATCH_THREADED
#endif

}  // namespace

bool threaded_dispatch_available() { return TC_VM_HAS_THREADED != 0; }

StatusOr<InterpResult> execute(const Program& program, const HookTable& hooks,
                               std::uint8_t* payload,
                               std::uint64_t payload_size,
                               const InterpOptions& options) {
#if TC_VM_HAS_THREADED
  if (options.dispatch != Dispatch::kSwitch) {
    return execute_threaded(program, hooks, payload, payload_size, options);
  }
#else
  // Dispatch::kThreaded degrades to the switch loop in this build.
#endif
  return execute_switch(program, hooks, payload, payload_size, options);
}

}  // namespace tc::vm
