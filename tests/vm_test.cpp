// Tests for the portable-bytecode subsystem (src/vm/): format validation
// and malformed-input rejection, interpreter semantics against stub hooks,
// runtime-level zero-compile execution, the runtime registry as the node's
// code cache (LRU release of materialized tiers on every backend), and —
// when LLVM is available — bit-exact equivalence between the interpreter
// tier and the ORC-JIT tier for every computational kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "core/context.hpp"
#include "core/runtime.hpp"
#include "hetsim/cluster.hpp"
#include "ir/kernels.hpp"
#include "jit/jit_types.hpp"
#include "vm/bytecode.hpp"
#include "vm/interp.hpp"
#include "vm/lower.hpp"

#if TC_WITH_LLVM
#include "ir/bitcode.hpp"
#include "jit/engine.hpp"
#include "kir/llvm_backend.hpp"
#endif

namespace tc::hetsim {
// Prints the backend's name: gtest_discover_tests copies the printed
// parameter into the ctest name.
void PrintTo(Backend backend, std::ostream* os) {
  *os << backend_name(backend);
}
}  // namespace tc::hetsim

namespace tc::vm {
namespace {

// --- program format ------------------------------------------------------------

Program simple_program() {
  Assembler a;
  a.li(2, 41);
  a.li(3, 1);
  a.alu(Opcode::kAdd, 2, 2, 3);
  a.st64(2, 0);  // *(u64*)payload = 42
  a.ret();
  auto program = a.finish(8);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  return std::move(program).value();
}

TEST(Bytecode, SerializeRoundTrip) {
  Program program = simple_program();
  Bytes wire = program.serialize();
  EXPECT_EQ(wire.size(), program.serialized_size());
  auto back = Program::deserialize(as_span(wire));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->reg_count(), program.reg_count());
  ASSERT_EQ(back->code().size(), program.code().size());
  for (std::size_t i = 0; i < program.code().size(); ++i) {
    EXPECT_EQ(back->code()[i].op, program.code()[i].op);
    EXPECT_EQ(back->code()[i].imm, program.code()[i].imm);
  }
  EXPECT_EQ(back->pool(), program.pool());
}

TEST(Bytecode, ConstantPoolSpillsWideImmediates) {
  Assembler a;
  a.li(2, 0x1122334455667788ull);  // not sext32-representable -> pool
  a.li(3, -7);                     // sext32 -> inline
  a.li(4, 0x1122334455667788ull);  // deduplicated
  a.ret();
  auto program = a.finish(8);
  ASSERT_TRUE(program.is_ok());
  EXPECT_EQ(program->pool().size(), 1u);
  EXPECT_EQ(program->pool()[0], 0x1122334455667788ull);
  EXPECT_EQ(program->code()[0].op, Opcode::kLdk);
  EXPECT_EQ(program->code()[1].op, Opcode::kLdi);
}

TEST(Bytecode, DisassembleMentionsEveryInstruction) {
  Program program = simple_program();
  const std::string text = disassemble(program);
  EXPECT_NE(text.find("ldi"), std::string::npos);
  EXPECT_NE(text.find("add"), std::string::npos);
  EXPECT_NE(text.find("st64"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

TEST(Bytecode, EveryOpcodeHasADistinctMnemonic) {
  // Every assigned opcode byte has its own mnemonic; every byte past the
  // ISA (kOpcodeCount and up) is unassigned and renders as "bad".
  std::set<std::string> names;
  for (unsigned op = 0; op < kOpcodeCount; ++op) {
    const std::string name = opcode_name(static_cast<Opcode>(op));
    EXPECT_NE(name, "bad") << "opcode " << op;
    EXPECT_FALSE(name.empty()) << "opcode " << op;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kOpcodeCount));
  for (unsigned op = kOpcodeCount; op <= 0xFF; ++op) {
    EXPECT_STREQ(opcode_name(static_cast<Opcode>(op)), "bad")
        << "opcode " << op;
  }
}

// --- malformed input rejection (bounds-checked decode, no UB) -------------------

TEST(BytecodeRejection, TruncatedBuffers) {
  const Bytes wire = simple_program().serialize();
  for (std::size_t cut : {0ul, 1ul, 8ul, wire.size() / 2, wire.size() - 1}) {
    auto r = Program::deserialize(ByteSpan(wire.data(), cut));
    EXPECT_FALSE(r.is_ok()) << "accepted a " << cut << "-byte prefix";
  }
}

TEST(BytecodeRejection, CorruptedBytesNeverAccepted) {
  // Flip each byte in turn: either the checksum catches it, or (for the
  // checksum bytes themselves) the mismatch does. Nothing may crash.
  const Bytes wire = simple_program().serialize();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    Bytes bad = wire;
    bad[i] ^= 0x5A;
    auto r = Program::deserialize(as_span(bad));
    EXPECT_FALSE(r.is_ok()) << "accepted corruption at byte " << i;
  }
}

/// Re-serializes a tampered program with a fresh (valid) checksum so the
/// *structural* validation layer is what rejects it.
Bytes reseal(Bytes wire, std::size_t offset, std::uint8_t value) {
  wire[offset] = value;
  Bytes body(wire.begin(), wire.end() - 8);
  const std::uint64_t checksum = fnv1a64(as_span(body));
  for (int i = 0; i < 8; ++i) {
    wire[wire.size() - 8 + i] =
        static_cast<std::uint8_t>(checksum >> (8 * i));
  }
  return wire;
}

TEST(BytecodeRejection, StructurallyInvalidPrograms) {
  const Bytes wire = simple_program().serialize();
  constexpr std::size_t kHeader = 4 + 2 + 2 + 4 + 4;
  // First instruction starts at kHeader: [op][a][b][c][imm32].
  // Unknown opcodes: every unassigned value, from the lowest (kOpcodeCount)
  // to the highest (0xFF).
  for (unsigned op = kOpcodeCount; op <= 0xFF; ++op) {
    auto r = Program::deserialize(
        as_span(reseal(wire, kHeader, static_cast<std::uint8_t>(op))));
    ASSERT_FALSE(r.is_ok()) << "accepted opcode byte " << op;
    EXPECT_NE(r.status().to_string().find("unknown opcode " +
                                          std::to_string(op)),
              std::string::npos)
        << r.status().to_string();
  }
  // The same position with an assigned opcode is accepted, so the
  // rejections above are the opcode's doing.
  EXPECT_TRUE(Program::deserialize(
                  as_span(reseal(wire, kHeader,
                                 static_cast<std::uint8_t>(Opcode::kNop))))
                  .is_ok());
  // Register out of range (reg_count is 8):
  EXPECT_FALSE(
      Program::deserialize(as_span(reseal(wire, kHeader + 1, 63))).is_ok());
  // Trailing non-terminator: overwrite the final ret with a nop.
  const std::size_t last_op = kHeader + (simple_program().code().size() - 1) * 8;
  EXPECT_FALSE(Program::deserialize(
                   as_span(reseal(wire, last_op,
                                  static_cast<std::uint8_t>(Opcode::kNop))))
                   .is_ok());
}

TEST(BytecodeRejection, BranchAndPoolAndHookRanges) {
  {
    Assembler a;
    const auto label = a.make_label();
    a.bind(label);
    a.br(label);
    auto ok = a.finish(4);
    ASSERT_TRUE(ok.is_ok());
    Bytes wire = ok->serialize();
    // Point the branch outside the program (imm lives at header+4).
    EXPECT_FALSE(
        Program::deserialize(as_span(reseal(wire, 16 + 4, 9))).is_ok());
  }
  {
    // kLdk with no pool.
    std::vector<Instr> code{{Opcode::kLdk, 2, 0, 0, 0},
                            {Opcode::kRet, 0, 0, 0, 0}};
    EXPECT_FALSE(Program::validate(8, code, {}).is_ok());
  }
  {
    // Unknown hook id and out-of-range hook args.
    std::vector<Instr> code{{Opcode::kHook, 200, 0, 0, 0},
                            {Opcode::kRet, 0, 0, 0, 0}};
    EXPECT_FALSE(Program::validate(8, code, {}).is_ok());
    code[0] = {Opcode::kHook, static_cast<std::uint8_t>(HookId::kInject), 2,
               6, 0};  // args r6..r9 but only 8 registers
    EXPECT_FALSE(Program::validate(8, code, {}).is_ok());
  }
  {
    // Register count outside the supported band.
    std::vector<Instr> code{{Opcode::kRet, 0, 0, 0, 0}};
    EXPECT_FALSE(Program::validate(1, code, {}).is_ok());
    EXPECT_FALSE(Program::validate(kMaxRegisters + 1, code, {}).is_ok());
    EXPECT_TRUE(Program::validate(2, code, {}).is_ok());
  }
}

// --- interpreter semantics -----------------------------------------------------

/// Stub hook environment: function pointers can't capture, so the state
/// rides behind the ctx pointer exactly as the real runtime does it.
struct StubEnv {
  std::uint64_t target[4] = {};
  /// When set, the target hook returns this instead (collective kernels
  /// address the target as an array of 64-byte cells).
  std::uint64_t* target_override = nullptr;
  std::uint64_t* shard = nullptr;
  std::uint64_t shard_size = 0;
  std::uint64_t self_peer = 0;
  std::uint64_t peer_count = 0;
  std::uint64_t guards = 0;
  struct Forward {
    std::uint64_t peer;
    Bytes payload;
  };
  std::vector<Forward> forwards;
  std::vector<Bytes> replies;
};

HookTable stub_hooks(StubEnv& env) {
  HookTable h;
  h.ctx = &env;
  h.target = [](void* c) -> void* {
    StubEnv* env = static_cast<StubEnv*>(c);
    return env->target_override != nullptr
               ? static_cast<void*>(env->target_override)
               : static_cast<void*>(env->target);
  };
  h.node = [](void*) -> std::uint64_t { return 7; };
  h.peer_count = [](void* c) -> std::uint64_t {
    return static_cast<StubEnv*>(c)->peer_count;
  };
  h.self_peer = [](void* c) -> std::uint64_t {
    return static_cast<StubEnv*>(c)->self_peer;
  };
  h.shard_base = [](void* c) -> std::uint64_t* {
    return static_cast<StubEnv*>(c)->shard;
  };
  h.shard_size = [](void* c) -> std::uint64_t {
    return static_cast<StubEnv*>(c)->shard_size;
  };
  h.forward = [](void* c, std::uint64_t peer, const std::uint8_t* p,
                 std::uint64_t n) -> std::int32_t {
    static_cast<StubEnv*>(c)->forwards.push_back(
        {peer, Bytes(p, p + n)});
    return 0;
  };
  h.inject = [](void*, std::uint64_t, const char*, const std::uint8_t*,
                std::uint64_t) -> std::int32_t { return 0; };
  h.reply = [](void* c, const std::uint8_t* p,
               std::uint64_t n) -> std::int32_t {
    static_cast<StubEnv*>(c)->replies.push_back(Bytes(p, p + n));
    return 0;
  };
  h.remote_write = [](void*, std::uint64_t, std::uint64_t,
                      const std::uint8_t*, std::uint64_t) -> std::int32_t {
    return -3;
  };
  h.hll_guard = [](void* c) { ++static_cast<StubEnv*>(c)->guards; };
  h.sin_fn = [](double x) { return std::sin(x); };
  return h;
}

Program lowered(ir::KernelKind kind, bool hll = false) {
  ir::KernelOptions options;
  options.hll_guards = hll;
  auto program = lower_kernel(kind, options);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  return std::move(program).value();
}

TEST(Interp, PayloadSum) {
  StubEnv env;
  Bytes payload = {1, 2, 3, 250, 7};
  auto r = execute(lowered(ir::KernelKind::kPayloadSum), stub_hooks(env),
                   payload.data(), payload.size());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(env.target[0], 263u);
  EXPECT_GT(r->instrs, payload.size());  // at least one instr per byte
}

TEST(Interp, TsiIncrements) {
  StubEnv env;
  env.target[0] = 41;
  std::uint8_t dummy = 0;
  auto r = execute(lowered(ir::KernelKind::kTargetSideIncrement),
                   stub_hooks(env), &dummy, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(env.target[0], 42u);
}

TEST(Interp, VecReduce) {
  StubEnv env;
  ByteWriter w;
  const std::vector<double> xs = {1.5, -2.25, 4.0, 1e9, 3.125};
  w.u64(xs.size());
  for (double x : xs) w.f64(x);
  Bytes payload = std::move(w).take();
  auto r = execute(lowered(ir::KernelKind::kVecReduce), stub_hooks(env),
                   payload.data(), payload.size());
  ASSERT_TRUE(r.is_ok());
  double sum = 0;
  for (double x : xs) sum += x;
  double got;
  std::memcpy(&got, env.target, sizeof(got));
  EXPECT_EQ(got, sum);  // same op order -> bit-exact
}

TEST(Interp, SaxpyMatchesScalarReference) {
  StubEnv env;
  const std::vector<float> x = {1.0f, 2.5f, -3.0f, 0.125f};
  const std::vector<float> y = {0.5f, -1.0f, 2.0f, 8.0f};
  const float a = 1.75f;
  ByteWriter w;
  w.u64(x.size());
  std::uint32_t a_bits;
  std::memcpy(&a_bits, &a, 4);
  w.u32(a_bits);
  for (float v : x) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    w.u32(bits);
  }
  for (float v : y) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    w.u32(bits);
  }
  Bytes payload = std::move(w).take();
  // env.target doubles as the float output buffer (32 bytes >= 4 floats).
  auto r = execute(lowered(ir::KernelKind::kSaxpy), stub_hooks(env),
                   payload.data(), payload.size());
  ASSERT_TRUE(r.is_ok());
  const float* got = reinterpret_cast<const float*>(env.target);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(got[i], a * x[i] + y[i]) << i;
  }
}

TEST(Interp, StatsSummaryWelford) {
  StubEnv env;
  const std::vector<double> xs = {4.0, 7.0, 13.0, 16.0};
  ByteWriter w;
  w.u64(xs.size());
  for (double x : xs) w.f64(x);
  Bytes payload = std::move(w).take();
  auto r = execute(lowered(ir::KernelKind::kStatsSummary), stub_hooks(env),
                   payload.data(), payload.size());
  ASSERT_TRUE(r.is_ok());
  double state[3];
  std::memcpy(state, env.target, sizeof(state));
  EXPECT_EQ(state[0], 4.0);   // count
  EXPECT_EQ(state[1], 10.0);  // mean
  EXPECT_EQ(state[2], 90.0);  // M2
}

TEST(Interp, SinSumUsesLibmHook) {
  StubEnv env;
  ByteWriter w;
  const std::vector<double> xs = {0.1, 1.2, -2.3};
  w.u64(xs.size());
  for (double x : xs) w.f64(x);
  Bytes payload = std::move(w).take();
  auto r = execute(lowered(ir::KernelKind::kSinSum), stub_hooks(env),
                   payload.data(), payload.size());
  ASSERT_TRUE(r.is_ok());
  double expect = 0;
  for (double x : xs) expect += std::sin(x);
  double got;
  std::memcpy(&got, env.target, sizeof(got));
  EXPECT_EQ(got, expect);
}

TEST(Interp, ChaserWalksLocallyAndForwards) {
  // Shard 1 of 2, entries 4..7 local. Chain: 5 -> 6 -> 2 (remote).
  StubEnv env;
  std::uint64_t shard[4] = {9, 6, 2, 11};  // addresses 4,5,6,7
  env.shard = shard;
  env.shard_size = 4;
  env.self_peer = 1;
  ByteWriter w;
  w.u64(5);  // start address (local: 5/4 == 1)
  w.u64(10);
  Bytes payload = std::move(w).take();
  auto r = execute(lowered(ir::KernelKind::kChaser), stub_hooks(env),
                   payload.data(), payload.size());
  ASSERT_TRUE(r.is_ok());
  // lookup(5)=6 (depth 9 left), lookup(6)=2 -> owner 0 != self -> forward.
  ASSERT_EQ(env.forwards.size(), 1u);
  EXPECT_EQ(env.forwards[0].peer, 0u);
  std::uint64_t fwd_addr = 0, fwd_depth = 0;
  std::memcpy(&fwd_addr, env.forwards[0].payload.data(), 8);
  std::memcpy(&fwd_depth, env.forwards[0].payload.data() + 8, 8);
  EXPECT_EQ(fwd_addr, 2u);
  EXPECT_EQ(fwd_depth, 8u);
  EXPECT_TRUE(env.replies.empty());
}

TEST(Interp, ChaserRepliesWhenDepthExhausted) {
  StubEnv env;
  std::uint64_t shard[4] = {3, 0, 1, 2};
  env.shard = shard;
  env.shard_size = 4;
  env.self_peer = 0;
  env.peer_count = 1;
  ByteWriter w;
  w.u64(1);
  w.u64(3);  // 1 -> 0 -> 3 -> reply(2)? walk: v=shard[1]=0 d2; v=shard[0]=3 d1...
  Bytes payload = std::move(w).take();
  auto r = execute(lowered(ir::KernelKind::kChaser), stub_hooks(env),
                   payload.data(), payload.size());
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(env.replies.size(), 1u);
  // depth 3: lookup(1)=0, lookup(0)=3, lookup(3)=2 -> reply 2.
  std::uint64_t value = 0;
  std::memcpy(&value, env.replies[0].data(), 8);
  EXPECT_EQ(value, 2u);
}

TEST(Interp, RingHopForwardsUntilTtlExpires) {
  StubEnv env;
  env.self_peer = 2;
  env.peer_count = 5;
  ByteWriter w;
  w.u64(3);  // ttl
  w.u64(9);  // hops so far
  Bytes payload = std::move(w).take();
  auto r = execute(lowered(ir::KernelKind::kRingHop), stub_hooks(env),
                   payload.data(), payload.size());
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(env.forwards.size(), 1u);
  EXPECT_EQ(env.forwards[0].peer, 3u);  // (self+1) % count
  std::uint64_t ttl = 0, hops = 0;
  std::memcpy(&ttl, env.forwards[0].payload.data(), 8);
  std::memcpy(&hops, env.forwards[0].payload.data() + 8, 8);
  EXPECT_EQ(ttl, 2u);
  EXPECT_EQ(hops, 10u);

  // Expired TTL replies with the full 16-byte payload.
  env.forwards.clear();
  ByteWriter w2;
  w2.u64(0);
  w2.u64(4);
  Bytes done = std::move(w2).take();
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kRingHop), stub_hooks(env),
                      done.data(), done.size())
                  .is_ok());
  EXPECT_TRUE(env.forwards.empty());
  ASSERT_EQ(env.replies.size(), 1u);
  EXPECT_EQ(env.replies[0].size(), 16u);
}

TEST(Interp, TreeBroadcastCoversRangeAndDelivers) {
  StubEnv env;
  ByteWriter w;
  w.u64(0);   // base
  w.u64(8);   // span
  w.u64(77);  // value
  Bytes payload = std::move(w).take();
  auto r = execute(lowered(ir::KernelKind::kTreeBroadcast), stub_hooks(env),
                   payload.data(), payload.size());
  ASSERT_TRUE(r.is_ok());
  // Span 8 -> forwards to 4, then (span 4) to 2, then (span 2) to 1.
  ASSERT_EQ(env.forwards.size(), 3u);
  EXPECT_EQ(env.forwards[0].peer, 4u);
  EXPECT_EQ(env.forwards[1].peer, 2u);
  EXPECT_EQ(env.forwards[2].peer, 1u);
  EXPECT_EQ(env.target[0], 77u);  // local delivery
  EXPECT_EQ(env.target[1], 1u);   // arrival count
}

TEST(Interp, CollectiveBroadcastFansOutDeliversAndAcks) {
  StubEnv env;
  env.peer_count = 8;
  alignas(64) std::uint64_t cells[16] = {};  // two 8-word lanes
  env.target_override = cells;
  ByteWriter w;
  w.u64(0);   // base (tree position)
  w.u64(8);   // span
  w.u64(99);  // value
  w.u64(1);   // lane -> second cell
  w.u64(0);   // root
  Bytes payload = std::move(w).take();
  auto r = execute(lowered(ir::KernelKind::kCollectiveBroadcast),
                   stub_hooks(env), payload.data(), payload.size());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  // Same halving tree as tree_broadcast: delegates to 4, 2, 1.
  ASSERT_EQ(env.forwards.size(), 3u);
  EXPECT_EQ(env.forwards[0].peer, 4u);
  EXPECT_EQ(env.forwards[1].peer, 2u);
  EXPECT_EQ(env.forwards[2].peer, 1u);
  EXPECT_EQ(cells[8], 99u);  // lane 1 cell: value
  EXPECT_EQ(cells[9], 1u);   // lane 1 cell: arrivals
  EXPECT_EQ(cells[0], 0u);   // lane 0 untouched
  // Leaf ack to the chain origin: [kind=0][lane][value].
  ASSERT_EQ(env.replies.size(), 1u);
  ASSERT_EQ(env.replies[0].size(), 24u);
  std::uint64_t kind = 0, lane = 0, value = 0;
  std::memcpy(&kind, env.replies[0].data(), 8);
  std::memcpy(&lane, env.replies[0].data() + 8, 8);
  std::memcpy(&value, env.replies[0].data() + 16, 8);
  EXPECT_EQ(kind, 0u);
  EXPECT_EQ(lane, 1u);
  EXPECT_EQ(value, 99u);
}

TEST(Interp, CollectiveBroadcastRotatesAroundRoot) {
  StubEnv env;
  env.peer_count = 8;
  alignas(64) std::uint64_t cells[8] = {};
  env.target_override = cells;
  ByteWriter w;
  w.u64(0);
  w.u64(8);
  w.u64(5);
  w.u64(0);
  w.u64(5);  // root = server 5: destinations rotate by 5 mod 8
  Bytes payload = std::move(w).take();
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kCollectiveBroadcast),
                      stub_hooks(env), payload.data(), payload.size())
                  .is_ok());
  ASSERT_EQ(env.forwards.size(), 3u);
  EXPECT_EQ(env.forwards[0].peer, (4u + 5u) % 8u);
  EXPECT_EQ(env.forwards[1].peer, (2u + 5u) % 8u);
  EXPECT_EQ(env.forwards[2].peer, (1u + 5u) % 8u);
}

Bytes reduce_fanout_payload(std::uint64_t span, std::uint64_t parent,
                            std::uint64_t op, std::uint64_t lane = 0,
                            std::uint64_t root = 0) {
  ByteWriter w;
  w.u64(0);  // kind: fan-out
  w.u64(0);  // base
  w.u64(span);
  w.u64(parent);
  w.u64(lane);
  w.u64(op);
  w.u64(root);
  return std::move(w).take();
}

Bytes reduce_contribute_payload(std::uint64_t lane, std::uint64_t value) {
  ByteWriter w;
  w.u64(1);  // kind: contribute
  w.u64(lane);
  w.u64(value);
  return std::move(w).take();
}

TEST(Interp, CollectiveReduceLeafContributesToParent) {
  StubEnv env;
  env.peer_count = 8;
  env.self_peer = 6;
  alignas(64) std::uint64_t cells[8] = {};
  cells[2] = 42;  // contrib
  env.target_override = cells;
  Bytes payload = reduce_fanout_payload(/*span=*/1, /*parent=*/3,
                                        /*op=*/0);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kCollectiveReduce),
                      stub_hooks(env), payload.data(), payload.size())
                  .is_ok());
  // Childless: one contribute [1][lane][42] straight to peer 3.
  ASSERT_EQ(env.forwards.size(), 1u);
  EXPECT_EQ(env.forwards[0].peer, 3u);
  ASSERT_EQ(env.forwards[0].payload.size(), 24u);
  std::uint64_t kind = 0, lane = 0, value = 0;
  std::memcpy(&kind, env.forwards[0].payload.data(), 8);
  std::memcpy(&lane, env.forwards[0].payload.data() + 8, 8);
  std::memcpy(&value, env.forwards[0].payload.data() + 16, 8);
  EXPECT_EQ(kind, 1u);
  EXPECT_EQ(lane, 0u);
  EXPECT_EQ(value, 42u);
  EXPECT_TRUE(env.replies.empty());
}

TEST(Interp, CollectiveReduceSoloRootRepliesImmediately) {
  StubEnv env;
  env.peer_count = 1;
  env.self_peer = 0;
  alignas(64) std::uint64_t cells[8] = {};
  cells[2] = 7;
  env.target_override = cells;
  Bytes payload = reduce_fanout_payload(/*span=*/1, /*parent=*/~0ull,
                                        /*op=*/0);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kCollectiveReduce),
                      stub_hooks(env), payload.data(), payload.size())
                  .is_ok());
  EXPECT_TRUE(env.forwards.empty());
  ASSERT_EQ(env.replies.size(), 1u);
  std::uint64_t value = 0;
  std::memcpy(&value, env.replies[0].data() + 16, 8);
  EXPECT_EQ(value, 7u);
}

TEST(Interp, CollectiveReduceInternalNodeFoldsAndClimbs) {
  StubEnv env;
  env.peer_count = 4;
  env.self_peer = 0;
  alignas(64) std::uint64_t cells[8] = {};
  cells[2] = 100;  // own contribution
  env.target_override = cells;
  // Root fan-out over 4 servers: delegates positions 2 and 1 (2 children).
  Bytes fanout = reduce_fanout_payload(/*span=*/4, /*parent=*/~0ull,
                                       /*op=*/0);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kCollectiveReduce),
                      stub_hooks(env), fanout.data(), fanout.size())
                  .is_ok());
  ASSERT_EQ(env.forwards.size(), 2u);
  EXPECT_EQ(cells[3], 100u);   // acc seeded with own contribution
  EXPECT_EQ(cells[4], 2u);     // expected children
  EXPECT_EQ(cells[5], 0u);     // arrived
  EXPECT_EQ(cells[6], ~0ull);  // parent: root
  EXPECT_TRUE(env.replies.empty());
  env.forwards.clear();
  // First contribution folds quietly; the last one replies the total.
  Bytes c1 = reduce_contribute_payload(0, 5);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kCollectiveReduce),
                      stub_hooks(env), c1.data(), c1.size())
                  .is_ok());
  EXPECT_TRUE(env.replies.empty());
  EXPECT_EQ(cells[3], 105u);
  Bytes c2 = reduce_contribute_payload(0, 7);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kCollectiveReduce),
                      stub_hooks(env), c2.data(), c2.size())
                  .is_ok());
  EXPECT_TRUE(env.forwards.empty());
  ASSERT_EQ(env.replies.size(), 1u);
  std::uint64_t value = 0;
  std::memcpy(&value, env.replies[0].data() + 16, 8);
  EXPECT_EQ(value, 112u);
}

TEST(Interp, CollectiveReduceMinMaxCountFolds) {
  struct Case {
    std::uint64_t op;
    std::uint64_t contrib;
    std::uint64_t c1, c2;
    std::uint64_t expected;
  };
  // op 1 = min, 2 = max, 3 = count (contrib ignored, folds arrive as 1s).
  const Case cases[] = {
      {1, 50, 9, 70, 9},
      {2, 50, 9, 70, 70},
      {3, 50, 1, 1, 3},
  };
  for (const Case& c : cases) {
    StubEnv env;
    env.peer_count = 4;
    env.self_peer = 0;
    alignas(64) std::uint64_t cells[8] = {};
    cells[2] = c.contrib;
    env.target_override = cells;
    Bytes fanout = reduce_fanout_payload(4, ~0ull, c.op);
    ASSERT_TRUE(execute(lowered(ir::KernelKind::kCollectiveReduce),
                        stub_hooks(env), fanout.data(), fanout.size())
                    .is_ok());
    for (std::uint64_t v : {c.c1, c.c2}) {
      Bytes contrib = reduce_contribute_payload(0, v);
      ASSERT_TRUE(execute(lowered(ir::KernelKind::kCollectiveReduce),
                          stub_hooks(env), contrib.data(), contrib.size())
                      .is_ok());
    }
    ASSERT_EQ(env.replies.size(), 1u) << "op " << c.op;
    std::uint64_t value = 0;
    std::memcpy(&value, env.replies[0].data() + 16, 8);
    EXPECT_EQ(value, c.expected) << "op " << c.op;
  }
}

// --- the workload-suite kernels ----------------------------------------------

// Shard 1 of 2, 4 buckets local ({key, value} pairs for global buckets
// 4..7), capacity 8.
struct HashProbeEnv {
  StubEnv env;
  std::uint64_t shard[8] = {10, 100, 11, 101, 0, 0, 12, 102};
  HashProbeEnv() {
    env.shard = shard;
    env.shard_size = 8;  // words; buckets_per_shard = 4
    env.self_peer = 1;
    env.peer_count = 2;
  }
};

Bytes hash_payload(std::uint64_t key, std::uint64_t slot,
                   std::uint64_t probes, std::uint64_t tag) {
  ByteWriter w;
  w.u64(key);
  w.u64(slot);
  w.u64(probes);
  w.u64(tag);
  return std::move(w).take();
}

TEST(Interp, HashProbeWalksChainToHit) {
  HashProbeEnv h;
  // Start at bucket 4 (key 10), probing for key 11 one slot further.
  Bytes payload = hash_payload(11, 4, 8, 0xAA);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kHashProbe),
                      stub_hooks(h.env), payload.data(), payload.size())
                  .is_ok());
  EXPECT_TRUE(h.env.forwards.empty());
  ASSERT_EQ(h.env.replies.size(), 1u);
  ASSERT_EQ(h.env.replies[0].size(), 16u);
  std::uint64_t value = 0, tag = 0;
  std::memcpy(&value, h.env.replies[0].data(), 8);
  std::memcpy(&tag, h.env.replies[0].data() + 8, 8);
  EXPECT_EQ(value, 101u);
  EXPECT_EQ(tag, 0xAAu);
}

TEST(Interp, HashProbeEmptyBucketIsDefinitiveMiss) {
  HashProbeEnv h;
  // Key 99 starting at bucket 5: key 11 mismatches, bucket 6 is empty.
  Bytes payload = hash_payload(99, 5, 8, 7);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kHashProbe),
                      stub_hooks(h.env), payload.data(), payload.size())
                  .is_ok());
  ASSERT_EQ(h.env.replies.size(), 1u);
  std::uint64_t value = 0;
  std::memcpy(&value, h.env.replies[0].data(), 8);
  EXPECT_EQ(value, ~0ull);  // the miss sentinel
}

TEST(Interp, HashProbeForwardsWhenChainCrossesShard) {
  HashProbeEnv h;
  // Bucket 7 (key 12) mismatches; (7 + 1) % 8 = 0 is owned by peer 0.
  Bytes payload = hash_payload(99, 7, 8, 3);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kHashProbe),
                      stub_hooks(h.env), payload.data(), payload.size())
                  .is_ok());
  EXPECT_TRUE(h.env.replies.empty());
  ASSERT_EQ(h.env.forwards.size(), 1u);
  EXPECT_EQ(h.env.forwards[0].peer, 0u);
  std::uint64_t slot = 0, probes = 0;
  std::memcpy(&slot, h.env.forwards[0].payload.data() + 8, 8);
  std::memcpy(&probes, h.env.forwards[0].payload.data() + 16, 8);
  EXPECT_EQ(slot, 0u);
  EXPECT_EQ(probes, 7u);  // one probe consumed before the crossing
}

TEST(Interp, HashProbeBudgetExhaustionMisses) {
  HashProbeEnv h;
  // One probe only, landing on a mismatching non-empty bucket.
  Bytes payload = hash_payload(99, 4, 1, 5);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kHashProbe),
                      stub_hooks(h.env), payload.data(), payload.size())
                  .is_ok());
  ASSERT_EQ(h.env.replies.size(), 1u);
  std::uint64_t value = 0;
  std::memcpy(&value, h.env.replies[0].data(), 8);
  EXPECT_EQ(value, ~0ull);
}

// Shard 0 of 2: head (node 0, key 0) and node 1 (key 10); nodes 2 (key 20,
// height 2) and 3 (key 30) live on peer 1. 10-word records with
// (next_id, next_key) fingers per level.
struct OrderedEnv {
  StubEnv env;
  std::uint64_t shard[20] = {};
  OrderedEnv() {
    auto set = [&](std::size_t node, std::uint64_t key, std::uint64_t value,
                   std::initializer_list<std::pair<std::uint64_t,
                                                   std::uint64_t>> fingers) {
      std::uint64_t* rec = shard + node * 10;
      rec[0] = key;
      rec[1] = value;
      for (std::size_t l = 0; l < 4; ++l) {
        rec[2 + 2 * l] = ~0ull;
        rec[3 + 2 * l] = ~0ull;  // NIL links carry ~0 finger keys (builder)
      }
      std::size_t l = 0;
      for (const auto& [id, k] : fingers) {
        rec[2 + 2 * l] = id;
        rec[3 + 2 * l] = k;
        ++l;
      }
    };
    set(0, 0, 0, {{1, 10}, {2, 20}});  // head: l0 -> node 1, l1 -> node 2
    set(1, 10, 1000, {{2, 20}});
    env.shard = shard;
    env.shard_size = 20;  // words; nodes_per_shard = 2
    env.self_peer = 0;
    env.peer_count = 2;
  }
};

Bytes search_payload(std::uint64_t target, std::uint64_t node,
                     std::uint64_t level, std::uint64_t tag) {
  ByteWriter w;
  w.u64(target);
  w.u64(node);
  w.u64(level);
  w.u64(tag);
  return std::move(w).take();
}

TEST(Interp, OrderedSearchDescendsToLocalHit) {
  OrderedEnv o;
  Bytes payload = search_payload(10, 0, 3, 0xBB);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kOrderedSearch),
                      stub_hooks(o.env), payload.data(), payload.size())
                  .is_ok());
  EXPECT_TRUE(o.env.forwards.empty());
  ASSERT_EQ(o.env.replies.size(), 1u);
  std::uint64_t value = 0, tag = 0;
  std::memcpy(&value, o.env.replies[0].data(), 8);
  std::memcpy(&tag, o.env.replies[0].data() + 8, 8);
  EXPECT_EQ(value, 1000u);
  EXPECT_EQ(tag, 0xBBu);
}

TEST(Interp, OrderedSearchMissesBetweenKeys) {
  OrderedEnv o;
  // 15 lands on node 1 (key 10 < 15 < next key 20): not equal -> miss.
  Bytes payload = search_payload(15, 0, 3, 1);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kOrderedSearch),
                      stub_hooks(o.env), payload.data(), payload.size())
                  .is_ok());
  ASSERT_EQ(o.env.replies.size(), 1u);
  std::uint64_t value = 0;
  std::memcpy(&value, o.env.replies[0].data(), 8);
  EXPECT_EQ(value, ~0ull);
}

TEST(Interp, OrderedSearchForwardsAtShardCrossingLink) {
  OrderedEnv o;
  // 25 takes the head's level-1 finger to node 2 — owned by peer 1.
  Bytes payload = search_payload(25, 0, 3, 9);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kOrderedSearch),
                      stub_hooks(o.env), payload.data(), payload.size())
                  .is_ok());
  EXPECT_TRUE(o.env.replies.empty());
  ASSERT_EQ(o.env.forwards.size(), 1u);
  EXPECT_EQ(o.env.forwards[0].peer, 1u);
  std::uint64_t node = 0, level = 0;
  std::memcpy(&node, o.env.forwards[0].payload.data() + 8, 8);
  std::memcpy(&level, o.env.forwards[0].payload.data() + 16, 8);
  EXPECT_EQ(node, 2u);
  EXPECT_EQ(level, 1u);  // the descent resumes at the taken level
}

// Shard 0 of 2: vertices 0..3 local (vps = 4); adjacency 0 -> {1, 4}.
// CSR slice [vps][row offsets x 5][cols]; the cell carries the visited
// bitmap / worklist pointers plus the Dijkstra-Scholten words.
struct BfsEnv {
  StubEnv env;
  std::uint64_t shard[8] = {4, 0, 2, 2, 2, 2, 1, 4};
  alignas(64) std::uint64_t cell[8] = {};
  std::uint64_t bitmap[1] = {};
  std::uint64_t worklist[4] = {};
  BfsEnv() {
    env.shard = shard;
    env.shard_size = 8;
    env.self_peer = 0;
    env.peer_count = 2;
    env.target_override = cell;
    cell[1] = reinterpret_cast<std::uint64_t>(bitmap);
    cell[2] = reinterpret_cast<std::uint64_t>(worklist);
  }
};

Bytes bfs_visit_payload(std::uint64_t lane, std::uint64_t vertex,
                        std::uint64_t from) {
  ByteWriter w;
  w.u64(0);
  w.u64(lane);
  w.u64(vertex);
  w.u64(from);
  return std::move(w).take();
}

TEST(Interp, BfsFrontierExpandsLocallyEngagesAndForwards) {
  BfsEnv b;
  // Seed at vertex 0 from the origin (~0): visits 0 and its local
  // neighbor 1, forwards frontier vertex 4 to peer 1, engages.
  Bytes payload = bfs_visit_payload(0, 0, ~0ull);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kBfsFrontier),
                      stub_hooks(b.env), payload.data(), payload.size())
                  .is_ok());
  EXPECT_EQ(b.cell[0], 2u);                // visited 0 and 1
  EXPECT_EQ(b.bitmap[0], 0b11u);
  ASSERT_EQ(b.env.forwards.size(), 1u);
  EXPECT_EQ(b.env.forwards[0].peer, 1u);
  ASSERT_EQ(b.env.forwards[0].payload.size(), 32u);
  std::uint64_t vertex = 0, from = 0;
  std::memcpy(&vertex, b.env.forwards[0].payload.data() + 16, 8);
  std::memcpy(&from, b.env.forwards[0].payload.data() + 24, 8);
  EXPECT_EQ(vertex, 4u);
  EXPECT_EQ(from, 0u);                     // the child acks us
  EXPECT_TRUE(b.env.replies.empty());      // engaged: the ack is deferred
  EXPECT_EQ(b.cell[3], 1u);                // engaged
  EXPECT_EQ(b.cell[4], ~0ull);             // parent: the chain origin
  EXPECT_EQ(b.cell[5], 1u);                // deficit: one child in flight

  // The child's ack drains the deficit: disengage and, as the engagement
  // root, reply [lane][0] to the origin.
  b.env.forwards.clear();
  ByteWriter w;
  w.u64(1);
  w.u64(0);
  Bytes ack = std::move(w).take();
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kBfsFrontier),
                      stub_hooks(b.env), ack.data(), ack.size())
                  .is_ok());
  EXPECT_TRUE(b.env.forwards.empty());
  ASSERT_EQ(b.env.replies.size(), 1u);
  ASSERT_EQ(b.env.replies[0].size(), 16u);
  std::uint64_t lane = 0, zero = 1;
  std::memcpy(&lane, b.env.replies[0].data(), 8);
  std::memcpy(&zero, b.env.replies[0].data() + 8, 8);
  EXPECT_EQ(lane, 0u);
  EXPECT_EQ(zero, 0u);
  EXPECT_EQ(b.cell[3], 0u);  // disengaged
}

TEST(Interp, BfsFrontierAcksRevisitsImmediately) {
  BfsEnv b;
  Bytes seed = bfs_visit_payload(0, 0, ~0ull);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kBfsFrontier),
                      stub_hooks(b.env), seed.data(), seed.size())
                  .is_ok());
  b.env.forwards.clear();
  // A revisit of vertex 1 from peer 1 while engaged: no expansion, the
  // sender is acked right away ([1][lane] back to peer 1).
  Bytes revisit = bfs_visit_payload(0, 1, 1);
  ASSERT_TRUE(execute(lowered(ir::KernelKind::kBfsFrontier),
                      stub_hooks(b.env), revisit.data(), revisit.size())
                  .is_ok());
  EXPECT_EQ(b.cell[0], 2u);  // nothing new visited
  ASSERT_EQ(b.env.forwards.size(), 1u);
  EXPECT_EQ(b.env.forwards[0].peer, 1u);
  ASSERT_EQ(b.env.forwards[0].payload.size(), 16u);
  std::uint64_t kind = 0;
  std::memcpy(&kind, b.env.forwards[0].payload.data(), 8);
  EXPECT_EQ(kind, 1u);       // an ack message
  EXPECT_EQ(b.cell[5], 1u);  // the original deficit is untouched
}

/// What one run of a stock kernel did, as seen through the stub hooks.
struct KernelRun {
  std::string status;
  std::uint64_t instrs = 0;
  Bytes payload;
  std::vector<std::pair<std::uint64_t, Bytes>> forwards;
  std::vector<Bytes> replies;
};

KernelRun run_kernel(ir::KernelKind kind, StubEnv& env, Bytes payload,
                     Dispatch dispatch) {
  KernelRun run;
  InterpOptions options;
  options.dispatch = dispatch;
  auto r = execute(lowered(kind), stub_hooks(env), payload.data(),
                   payload.size(), options);
  run.status = r.is_ok() ? "ok" : r.status().to_string();
  if (r.is_ok()) run.instrs = r->instrs;
  run.payload = std::move(payload);
  for (const auto& f : env.forwards) run.forwards.emplace_back(f.peer, f.payload);
  run.replies = env.replies;
  return run;
}

void expect_same_run(const KernelRun& sw, const KernelRun& th,
                     const std::string& what) {
  EXPECT_EQ(sw.status, "ok") << what;
  EXPECT_EQ(th.status, sw.status) << what;
  EXPECT_GT(sw.instrs, 0u) << what;
  EXPECT_EQ(th.instrs, sw.instrs) << what;
  EXPECT_EQ(th.payload, sw.payload) << what;
  EXPECT_EQ(th.forwards, sw.forwards) << what;
  EXPECT_EQ(th.replies, sw.replies) << what;
}

TEST(Interp, TraversalKernelsAgreeAcrossDispatchLoops) {
  // The traversal kernels are the interpreter's hot code on the workload
  // suite: under the switch and the threaded loop they must send the same
  // messages, leave the same payload and shard state, and execute the same
  // number of instructions (the sim's charge base).
  for (const Bytes& payload :
       {hash_payload(11, 4, 8, 0xAA), hash_payload(99, 5, 8, 7),
        hash_payload(99, 7, 8, 3), hash_payload(99, 4, 1, 5)}) {
    HashProbeEnv sw, th;
    expect_same_run(
        run_kernel(ir::KernelKind::kHashProbe, sw.env, payload,
                   Dispatch::kSwitch),
        run_kernel(ir::KernelKind::kHashProbe, th.env, payload,
                   Dispatch::kThreaded),
        "hash_probe");
  }
  for (const Bytes& payload :
       {search_payload(10, 0, 3, 0xBB), search_payload(15, 0, 3, 1),
        search_payload(25, 0, 3, 9)}) {
    OrderedEnv sw, th;
    expect_same_run(
        run_kernel(ir::KernelKind::kOrderedSearch, sw.env, payload,
                   Dispatch::kSwitch),
        run_kernel(ir::KernelKind::kOrderedSearch, th.env, payload,
                   Dispatch::kThreaded),
        "ordered_search");
  }
  {
    BfsEnv sw, th;
    const Bytes seed = bfs_visit_payload(0, 0, ~0ull);
    expect_same_run(run_kernel(ir::KernelKind::kBfsFrontier, sw.env, seed,
                               Dispatch::kSwitch),
                    run_kernel(ir::KernelKind::kBfsFrontier, th.env, seed,
                               Dispatch::kThreaded),
                    "bfs_frontier");
    // cell[1] and cell[2] point at each env's own bitmap and worklist.
    for (std::size_t w : {0u, 3u, 4u, 5u, 6u, 7u}) {
      EXPECT_EQ(th.cell[w], sw.cell[w]) << "cell word " << w;
    }
    EXPECT_EQ(th.bitmap[0], sw.bitmap[0]);
    EXPECT_EQ(std::memcmp(th.worklist, sw.worklist, sizeof(sw.worklist)), 0);
  }
  {
    // Chain 5 -> 6 -> 2 (remote) on shard 1 of 2.
    StubEnv sw, th;
    std::uint64_t shard_sw[4] = {9, 6, 2, 11};
    std::uint64_t shard_th[4] = {9, 6, 2, 11};
    sw.shard = shard_sw;
    th.shard = shard_th;
    sw.shard_size = th.shard_size = 4;
    sw.self_peer = th.self_peer = 1;
    ByteWriter w;
    w.u64(5);
    w.u64(10);
    const Bytes payload = std::move(w).take();
    expect_same_run(run_kernel(ir::KernelKind::kChaser, sw, payload,
                               Dispatch::kSwitch),
                    run_kernel(ir::KernelKind::kChaser, th, payload,
                               Dispatch::kThreaded),
                    "chaser");
  }
}

TEST(Interp, RemoteStoreReportsHookStatus) {
  StubEnv env;  // stub remote_write returns -3
  ByteWriter w;
  w.u64(1);
  w.u64(16);
  w.u64(0xABC);
  Bytes payload = std::move(w).take();
  auto r = execute(lowered(ir::KernelKind::kRemoteStore), stub_hooks(env),
                   payload.data(), payload.size());
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(env.replies.size(), 1u);
  std::int64_t rc = 0;
  std::memcpy(&rc, env.replies[0].data(), 8);
  EXPECT_EQ(rc, -3);  // sign-extended i32 hook status
}

TEST(Interp, HllGuardsFireOncePerIteration) {
  StubEnv env;
  Bytes payload(10, 1);
  auto r = execute(lowered(ir::KernelKind::kPayloadSum, /*hll=*/true),
                   stub_hooks(env), payload.data(), payload.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(env.guards, payload.size());
  // The plain build emits zero guards.
  env.guards = 0;
  auto r2 = execute(lowered(ir::KernelKind::kPayloadSum), stub_hooks(env),
                    payload.data(), payload.size());
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(env.guards, 0u);
  EXPECT_LT(r2->instrs, r->instrs);  // guards cost interpreter instrs
}

TEST(Interp, DivisionByZeroTrapsCleanly) {
  Assembler a;
  a.li(2, 1);
  a.li(3, 0);
  a.alu(Opcode::kUdiv, 2, 2, 3);
  a.ret();
  auto program = a.finish(4);
  ASSERT_TRUE(program.is_ok());
  StubEnv env;
  std::uint8_t dummy = 0;
  auto r = execute(*program, stub_hooks(env), &dummy, 0);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
}

TEST(Interp, InfiniteLoopRunsOutOfFuel) {
  Assembler a;
  const auto top = a.make_label();
  a.bind(top);
  a.br(top);
  auto program = a.finish(2);
  ASSERT_TRUE(program.is_ok());
  StubEnv env;
  InterpOptions options;
  options.max_ops = 10'000;
  std::uint8_t dummy = 0;
  auto r = execute(*program, stub_hooks(env), &dummy, 0, options);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
}

TEST(Interp, MissingHookIsAnErrorNotACrash) {
  HookTable empty;  // all null
  StubEnv env;
  std::uint8_t dummy = 0;
  auto r = execute(lowered(ir::KernelKind::kTargetSideIncrement), empty,
                   &dummy, 0);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kFailedPrecondition);
}

// --- portable archives ----------------------------------------------------------

TEST(PortableArchive, RoundTripsThroughTcfp) {
  auto archive = build_portable_kernel(ir::KernelKind::kChaser);
  ASSERT_TRUE(archive.is_ok());
  EXPECT_EQ(archive->repr(), ir::CodeRepr::kPortable);
  Bytes wire = archive->serialize();
  auto back = ir::FatBitcode::deserialize(as_span(wire));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->repr(), ir::CodeRepr::kPortable);
  auto entry = back->select_portable();
  ASSERT_TRUE(entry.is_ok());
  EXPECT_EQ((*entry)->target.triple, ir::kTriplePortable);
  auto program = Program::deserialize(as_span((*entry)->code));
  ASSERT_TRUE(program.is_ok());
  // Portable entries must never satisfy an ISA lookup.
  EXPECT_FALSE(archive->select(ir::kTripleX86).is_ok());
}

// --- tiers ---------------------------------------------------------------------

TEST(TieredCache, TierNamesStable) {
  EXPECT_STREQ(jit::tier_name(jit::Tier::kInterpreted), "interpreted");
  EXPECT_STREQ(jit::tier_name(jit::Tier::kJit), "jit");
  EXPECT_STREQ(jit::tier_name(jit::Tier::kLinked), "linked");
}

// --- runtime integration: the zero-compile tier ---------------------------------

class VmRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_.set_default_link(fabric::instant_link());
    a_ = fabric_.add_node("a");
    b_ = fabric_.add_node("b");
    rt_a_ = create_runtime(a_);
    rt_b_ = create_runtime(b_);
  }

  std::unique_ptr<core::Runtime> create_runtime(
      fabric::NodeId node, core::RuntimeOptions options = {}) {
    auto rt = core::Runtime::create(fabric_, node, options);
    EXPECT_TRUE(rt.is_ok()) << rt.status().to_string();
    return std::move(rt).value();
  }

  fabric::Fabric fabric_;
  fabric::NodeId a_ = 0, b_ = 0;
  std::unique_ptr<core::Runtime> rt_a_, rt_b_;
};

TEST_F(VmRuntimeTest, PortableIfuncExecutesWithZeroCompiles) {
  auto lib = core::IfuncLibrary::from_portable_kernel(
      ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
  EXPECT_EQ(lib->repr(), ir::CodeRepr::kPortable);
  auto id = rt_a_->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  std::uint64_t counter = 0;
  rt_b_->set_target_ptr(&counter);
  Bytes payload{0};
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();

  EXPECT_EQ(counter, 1u);
  EXPECT_EQ(rt_b_->stats().jit_compiles, 0u);
  EXPECT_EQ(rt_b_->stats().object_links, 0u);
  EXPECT_EQ(rt_b_->stats().portable_loads, 1u);
  EXPECT_EQ(rt_b_->stats().interp_executions, 1u);
  EXPECT_GT(rt_b_->stats().interp_instrs, 0u);

  // Second send rides the truncated-frame path and the cached program.
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(counter, 2u);
  EXPECT_EQ(rt_b_->stats().portable_loads, 1u);
  EXPECT_EQ(rt_b_->stats().interp_executions, 2u);
  EXPECT_EQ(rt_b_->stats().frames_sent_truncated, 0u);  // b sent nothing
  EXPECT_EQ(rt_a_->stats().frames_sent_truncated, 1u);
}

TEST_F(VmRuntimeTest, InterpreterChargesOpNsPerExecutedInstruction) {
  // The sim charges an interpreted invocation interp_op_ns for every
  // executed bytecode instruction and nothing else (the lookup and load
  // charges are pinned to zero here), so the virtual time one cached
  // invocation takes is exactly interp_op_ns times its instruction count.
  core::RuntimeOptions options;
  options.interp_op_ns = 1'000;
  options.lookup_exec_cost_ns = 0;
  options.portable_load_cost_ns = 0;
  rt_b_.reset();
  auto rt_b2 = create_runtime(b_, options);

  auto lib = core::IfuncLibrary::from_portable_kernel(
      ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
  auto id = rt_a_->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());
  std::uint64_t counter = 0;
  rt_b2->set_target_ptr(&counter);
  Bytes payload{0};
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  ASSERT_EQ(counter, 1u);

  for (int i = 0; i < 3; ++i) {
    const auto t0 = fabric_.now();
    const std::uint64_t instrs0 = rt_b2->stats().interp_instrs;
    ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
    fabric_.run_until_idle();
    const std::uint64_t instrs = rt_b2->stats().interp_instrs - instrs0;
    ASSERT_GT(instrs, 0u);
    EXPECT_EQ(fabric_.now() - t0, static_cast<std::int64_t>(1'000 * instrs))
        << "invocation " << i;
  }
  EXPECT_EQ(counter, 4u);
}

TEST_F(VmRuntimeTest, MalformedPortableCodeIsDroppedAsProtocolError) {
  // Hand-build a frame whose portable archive carries a corrupted program.
  auto archive = build_portable_kernel(ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(archive.is_ok());
  Bytes program_wire = (*archive).entries()[0].code;
  program_wire[12] ^= 0xFF;  // corrupt an instruction byte
  ir::FatBitcode bad(ir::CodeRepr::kPortable);
  ASSERT_TRUE(
      bad.add_entry({ir::kTriplePortable, "", ""}, program_wire).is_ok());
  auto lib = core::IfuncLibrary::from_archive("evil_vm", std::move(bad));
  ASSERT_TRUE(lib.is_ok());
  auto id = rt_a_->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  std::uint64_t counter = 0;
  rt_b_->set_target_ptr(&counter);
  Bytes payload{0};
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(counter, 0u);
  EXPECT_EQ(rt_b_->stats().frames_executed, 0u);
  EXPECT_EQ(rt_b_->stats().protocol_errors, 1u);
}

TEST(VmRuntimeEviction, InFlightInvocationSurvivesEviction) {
  // Regression: with a bounded cache, frame B can be processed (evicting
  // ifunc A and releasing its materialized tier) after A's invocation event
  // is queued but before it runs. The runtime must re-materialize from the
  // retained archive instead of calling through the released tier.
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  const auto na = fabric.add_node("a");
  const auto nb = fabric.add_node("b");
  core::RuntimeOptions recv_options;
  recv_options.cache_capacity = 1;
  auto send_rt = core::Runtime::create(fabric, na);
  auto recv_rt = core::Runtime::create(fabric, nb, recv_options);
  ASSERT_TRUE(send_rt.is_ok());
  ASSERT_TRUE(recv_rt.is_ok());

  auto tsi = core::IfuncLibrary::from_portable_kernel(
      ir::KernelKind::kTargetSideIncrement);
  auto sum = core::IfuncLibrary::from_portable_kernel(
      ir::KernelKind::kPayloadSum);
  ASSERT_TRUE(tsi.is_ok());
  ASSERT_TRUE(sum.is_ok());
  auto tsi_id = (*send_rt)->register_ifunc(std::move(*tsi));
  auto sum_id = (*send_rt)->register_ifunc(std::move(*sum));
  ASSERT_TRUE(tsi_id.is_ok());
  ASSERT_TRUE(sum_id.is_ok());

  std::uint64_t target = 0;
  (*recv_rt)->set_target_ptr(&target);
  // Back-to-back sends: both frames land before either invocation runs.
  Bytes empty{0};
  Bytes five{5};
  ASSERT_TRUE((*send_rt)->send_ifunc(nb, *tsi_id, as_span(empty)).is_ok());
  ASSERT_TRUE((*send_rt)->send_ifunc(nb, *sum_id, as_span(five)).is_ok());
  fabric.run_until_idle();

  EXPECT_EQ((*recv_rt)->stats().frames_executed, 2u);
  EXPECT_EQ(target, 5u);  // tsi ran (1), then payload_sum overwrote (5)
  EXPECT_GE((*recv_rt)->stats().cache_evictions, 1u);
  EXPECT_EQ((*recv_rt)->stats().protocol_errors, 0u);
}

// --- the registry as code cache ----------------------------------------------

struct CacheKernel {
  ir::KernelKind kind;
  ir::CodeRepr repr;
  bool hll = false;
};

// Four distinct portable ifuncs (the increment and the payload sum, each
// with and without HLL guards) that need nothing but a target word.
const std::vector<CacheKernel> kPortableKernels = {
    {ir::KernelKind::kTargetSideIncrement, ir::CodeRepr::kPortable, false},
    {ir::KernelKind::kPayloadSum, ir::CodeRepr::kPortable, false},
    {ir::KernelKind::kTargetSideIncrement, ir::CodeRepr::kPortable, true},
    {ir::KernelKind::kPayloadSum, ir::CodeRepr::kPortable, true},
};

// A sender (node 0) registers `kernels`; the receiver (node 1) runs with
// its own RuntimeOptions. The calling thread progresses both nodes, so on
// every backend frames arrive in the order they were sent.
class RegistryCacheTest : public ::testing::Test {
 protected:
  void make(hetsim::Backend backend, core::RuntimeOptions receiver_options,
            const std::vector<CacheKernel>& kernels = kPortableKernels) {
    if (backend == hetsim::Backend::kSim) {
      auto fabric = std::make_unique<fabric::Fabric>();
      fabric->set_default_link(fabric::instant_link());
      fabric->add_node("sender");
      fabric->add_node("receiver");
      transport_ = std::move(fabric);
    } else if (backend == hetsim::Backend::kShm) {
      transport_ = std::make_unique<fabric::ShmTransport>(2);
    } else {
      auto socket = fabric::SocketTransport::create_threaded(2);
      ASSERT_TRUE(socket.is_ok()) << socket.status().to_string();
      transport_ = std::move(*socket);
    }
    auto sender = core::Runtime::create(*transport_, 0);
    auto receiver = core::Runtime::create(*transport_, 1, receiver_options);
    ASSERT_TRUE(sender.is_ok() && receiver.is_ok());
    sender_ = std::move(*sender);
    receiver_ = std::move(*receiver);
    receiver_->set_target_ptr(&target_);
    for (const CacheKernel& k : kernels) {
      auto id = core::register_stock_kernel(*sender_, k.kind, k.repr,
                                            {.hll_guards = k.hll});
      ASSERT_TRUE(id.is_ok()) << id.status().to_string();
      ids_.push_back(*id);
    }
  }

  /// Sends kernel `k` once and progresses until the receiver executed it.
  void send(std::size_t k) {
    const std::uint64_t executed = receiver_->stats().frames_executed + 1;
    ASSERT_TRUE(sender_->send_ifunc(1, ids_[k], as_span(Bytes{0})).is_ok());
    for (int spin = 0; spin < 4'000'000; ++spin) {
      if (receiver_->stats().frames_executed == executed) return;
      (void)transport_->progress(0);
      (void)transport_->progress(1);
    }
    FAIL() << "kernel " << k << " never executed";
  }

  const core::Runtime::Stats& stats() const { return receiver_->stats(); }

  std::unique_ptr<fabric::Transport> transport_;
  std::uint64_t target_ = 0;
  std::unique_ptr<core::Runtime> sender_;
  std::unique_ptr<core::Runtime> receiver_;
  std::vector<std::uint64_t> ids_;
};

class RegistryCacheP : public RegistryCacheTest,
                       public ::testing::WithParamInterface<hetsim::Backend> {
 protected:
  void make(std::size_t capacity) {
    core::RuntimeOptions options;
    options.cache_capacity = capacity;
    RegistryCacheTest::make(GetParam(), options);
  }
};

TEST_P(RegistryCacheP, LruEvictsLeastRecentlyArrived) {
  make(/*capacity=*/2);
  send(0);
  send(1);
  send(0);  // a hit: 1 is now the least recently arrived
  EXPECT_EQ(stats().portable_loads, 2u);
  EXPECT_EQ(stats().cache_hits, 1u);
  send(2);  // releases 1, not 0
  EXPECT_EQ(stats().cache_evictions, 1u);
  send(0);
  EXPECT_EQ(stats().portable_loads, 3u);  // 0 stayed resident
  send(1);  // re-decoded from the retained archive; releases 2
  EXPECT_EQ(stats().portable_loads, 4u);
  EXPECT_EQ(stats().cache_evictions, 2u);
  send(0);
  EXPECT_EQ(stats().portable_loads, 4u);
  EXPECT_EQ(stats().frames_executed, 7u);
  EXPECT_EQ(stats().nacks_sent, 0u);  // no eviction cost a round trip
}

TEST_P(RegistryCacheP, CapacityBoundsMaterializedTiers) {
  make(/*capacity=*/2);
  for (std::size_t k = 0; k < 4; ++k) send(k);
  EXPECT_EQ(stats().portable_loads, 4u);
  EXPECT_EQ(stats().cache_evictions, 2u);  // N - capacity
  // Only the two newest stayed materialized.
  send(3);
  send(2);
  EXPECT_EQ(stats().portable_loads, 4u);
  EXPECT_EQ(stats().cache_hits, 2u);
  send(0);
  EXPECT_EQ(stats().portable_loads, 5u);
  EXPECT_EQ(stats().cache_evictions, 3u);
}

TEST_P(RegistryCacheP, DeregisterReleasesTheTier) {
  make(/*capacity=*/0);
  send(0);
  EXPECT_EQ(target_, 1u);
  ASSERT_TRUE(receiver_->deregister_ifunc(ids_[0]).is_ok());
  EXPECT_FALSE(receiver_->is_registered(ids_[0]));
  // The sender still believes the receiver holds the code and truncates:
  // one NACK fetches the archive, the tier is materialized afresh, and the
  // stashed payload runs exactly once.
  send(0);
  for (int spin = 0; spin < 10'000; ++spin) {
    (void)transport_->progress(0);
    (void)transport_->progress(1);
  }
  EXPECT_EQ(target_, 2u);
  EXPECT_EQ(stats().frames_executed, 2u);
  EXPECT_EQ(stats().portable_loads, 2u);
  EXPECT_EQ(stats().nacks_sent, 1u);
  EXPECT_EQ(stats().cache_hits, 0u);
  EXPECT_EQ(stats().protocol_errors, 0u);
}

TEST_P(RegistryCacheP, UnboundedNeverEvicts) {
  make(/*capacity=*/0);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t k = 0; k < 4; ++k) send(k);
  }
  EXPECT_EQ(stats().portable_loads, 4u);
  EXPECT_EQ(stats().cache_hits, 4u);
  EXPECT_EQ(stats().cache_evictions, 0u);
  EXPECT_GT(stats().cache_compile_ns, 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, RegistryCacheP,
                         ::testing::Values(hetsim::Backend::kSim,
                                           hetsim::Backend::kShm,
                                           hetsim::Backend::kSocket),
                         [](const auto& info) {
                           return std::string(
                               hetsim::backend_name(info.param));
                         });

#if TC_WITH_LLVM
TEST_F(VmRuntimeTest, TieredArchivePromotesAfterThreshold) {
  auto lib = core::IfuncLibrary::from_tiered_kernel(
      ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
  EXPECT_EQ(lib->repr(), ir::CodeRepr::kPortable);

  core::RuntimeOptions options;
  options.promote_after = 3;
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  const auto na = fabric.add_node("a");
  const auto nb = fabric.add_node("b");
  auto send_rt = core::Runtime::create(fabric, na);
  auto recv_rt = core::Runtime::create(fabric, nb, options);
  ASSERT_TRUE(send_rt.is_ok());
  ASSERT_TRUE(recv_rt.is_ok());

  auto id = (*send_rt)->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());
  std::uint64_t counter = 0;
  (*recv_rt)->set_target_ptr(&counter);
  Bytes payload{0};
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE((*send_rt)->send_ifunc(nb, *id, as_span(payload)).is_ok());
    fabric.run_until_idle();
    EXPECT_EQ(counter, static_cast<std::uint64_t>(i));
    if (i == 3) {
      // The third invocation crosses the threshold and *enqueues* the
      // promotion; the compile runs on a background thread. Block until it
      // finishes so invocations 4 and 5 deterministically run JIT'd.
      (*recv_rt)->wait_for_promotions();
    }
  }
  const auto& stats = (*recv_rt)->stats();
  // First three invocations interpret; the third crosses the threshold and
  // promotes, so invocations 4 and 5 run JIT'd.
  EXPECT_EQ(stats.portable_loads, 1u);
  EXPECT_EQ(stats.interp_executions, 3u);
  EXPECT_EQ(stats.tier_promotions, 1u);
  EXPECT_EQ(stats.jit_compiles, 1u);
  EXPECT_EQ(stats.frames_executed, 5u);
}

TEST_F(VmRuntimeTest, InterpOnlyPinNeverPromotes) {
  auto lib = core::IfuncLibrary::from_tiered_kernel(
      ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(lib.is_ok());

  core::RuntimeOptions options;
  options.promote_after = UINT64_MAX;
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  const auto na = fabric.add_node("a");
  const auto nb = fabric.add_node("b");
  auto send_rt = core::Runtime::create(fabric, na);
  auto recv_rt = core::Runtime::create(fabric, nb, options);
  ASSERT_TRUE(send_rt.is_ok());
  ASSERT_TRUE(recv_rt.is_ok());
  auto id = (*send_rt)->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());
  std::uint64_t counter = 0;
  (*recv_rt)->set_target_ptr(&counter);
  Bytes payload{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*send_rt)->send_ifunc(nb, *id, as_span(payload)).is_ok());
    fabric.run_until_idle();
  }
  EXPECT_EQ(counter, 4u);
  EXPECT_EQ((*recv_rt)->stats().tier_promotions, 0u);
  EXPECT_EQ((*recv_rt)->stats().jit_compiles, 0u);
  EXPECT_EQ((*recv_rt)->stats().interp_executions, 4u);
}

// One LRU order over both tiers: a JIT'd victim's engine library and an
// interpreted victim's program are released alike, and each comes back from
// its retained archive.
TEST_F(RegistryCacheTest, LruReleasesInterpretedAndJitTiersAlike) {
  core::RuntimeOptions options;
  options.cache_capacity = 2;
  make(hetsim::Backend::kSim, options,
       {{ir::KernelKind::kTargetSideIncrement, ir::CodeRepr::kPortable},
        {ir::KernelKind::kPayloadSum, ir::CodeRepr::kBitcode},
        {ir::KernelKind::kTargetSideIncrement, ir::CodeRepr::kBitcode}});
  send(0);  // interpreted
  send(1);  // JIT'd
  send(0);  // 1 is now the least recently arrived
  send(2);  // releases 1's JIT'd code, not 0's program
  EXPECT_EQ(stats().cache_evictions, 1u);
  send(0);
  EXPECT_EQ(stats().portable_loads, 1u);
  send(1);  // recompiled; releases 2
  EXPECT_EQ(stats().jit_compiles, 3u);
  send(2);  // recompiled; releases the interpreted 0
  EXPECT_EQ(stats().jit_compiles, 4u);
  send(0);  // decoded again
  EXPECT_EQ(stats().portable_loads, 2u);
  EXPECT_EQ(stats().cache_evictions, 4u);
  EXPECT_EQ(stats().frames_executed, 8u);
  EXPECT_EQ(stats().protocol_errors, 0u);
}

// --- VM ↔ JIT bit-exact equivalence ---------------------------------------------

class VmJitEquivalence : public ::testing::Test {
 protected:
  static Bytes kernel_bitcode(ir::KernelKind kind) {
    llvm::LLVMContext context;
    auto module = kir::build_kir_module(context, kind, ir::host_descriptor());
    EXPECT_TRUE(module.is_ok());
    return ir::module_to_bitcode(**module);
  }

  /// Runs the kernel both ways over identical payload/target and returns
  /// (jit_target, vm_target) for comparison.
  void run_both(ir::KernelKind kind, const Bytes& payload,
                std::vector<std::uint8_t>& jit_target,
                std::vector<std::uint8_t>& vm_target) {
    jit::EngineOptions options;
    options.extra_symbols = core::runtime_hook_symbols();
    auto engine = jit::OrcEngine::create(options);
    ASSERT_TRUE(engine.is_ok());
    auto entry = (*engine)->add_ifunc_bitcode(
        ir::kernel_name(kind), as_span(kernel_bitcode(kind)), {"libm.so.6"});
    ASSERT_TRUE(entry.is_ok()) << entry.status().to_string();

    core::ExecContext ctx;
    ctx.target_ptr = jit_target.data();
    Bytes jit_payload = payload;
    (*entry)(&ctx, jit_payload.data(), jit_payload.size());

    // The computational kernels only touch the target and sin hooks.
    void* vm_target_ptr = vm_target.data();
    HookTable hooks;
    hooks.ctx = &vm_target_ptr;
    hooks.target = [](void* c) -> void* { return *static_cast<void**>(c); };
    hooks.sin_fn = [](double x) { return std::sin(x); };
    Bytes vm_payload = payload;
    auto r = execute(lowered(kind), hooks, vm_payload.data(),
                     vm_payload.size());
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(vm_payload, jit_payload) << "payload mutation diverged";
  }
};

TEST_F(VmJitEquivalence, ComputationalKernelsBitIdentical) {
  struct Case {
    ir::KernelKind kind;
    Bytes payload;
    std::size_t target_bytes;
  };
  std::vector<Case> cases;
  {
    cases.push_back({ir::KernelKind::kTargetSideIncrement, Bytes{0}, 8});
    Bytes raw = {3, 1, 4, 1, 5, 9, 2, 6, 255, 0, 128};
    cases.push_back({ir::KernelKind::kPayloadSum, raw, 8});
  }
  {
    ByteWriter w;
    const std::vector<double> xs = {0.5, -1.25, 3.75, 1e-3, 9.5, -2e6};
    w.u64(xs.size());
    for (double x : xs) w.f64(x);
    cases.push_back({ir::KernelKind::kVecReduce, std::move(w).take(), 8});
  }
  {
    ByteWriter w;
    const std::vector<double> xs = {0.25, 1.5, -0.75, 2.0};
    w.u64(xs.size());
    for (double x : xs) w.f64(x);
    cases.push_back({ir::KernelKind::kSinSum, std::move(w).take(), 8});
    ByteWriter w2;
    w2.u64(xs.size());
    for (double x : xs) w2.f64(x);
    cases.push_back({ir::KernelKind::kStatsSummary, std::move(w2).take(), 24});
  }
  {
    ByteWriter w;
    const std::vector<float> x = {1.0f, -2.0f, 0.5f, 3.25f, 7.0f};
    const std::vector<float> y = {0.1f, 0.2f, -0.3f, 4.0f, -5.5f};
    w.u64(x.size());
    const float a = 2.5f;
    std::uint32_t bits;
    std::memcpy(&bits, &a, 4);
    w.u32(bits);
    for (float v : x) {
      std::memcpy(&bits, &v, 4);
      w.u32(bits);
    }
    for (float v : y) {
      std::memcpy(&bits, &v, 4);
      w.u32(bits);
    }
    cases.push_back({ir::KernelKind::kSaxpy, std::move(w).take(), 20});
  }

  for (const Case& c : cases) {
    std::vector<std::uint8_t> jit_target(c.target_bytes, 0);
    std::vector<std::uint8_t> vm_target(c.target_bytes, 0);
    run_both(c.kind, c.payload, jit_target, vm_target);
    EXPECT_EQ(jit_target, vm_target)
        << "tier divergence in " << ir::kernel_name(c.kind);
  }
}
#endif  // TC_WITH_LLVM

}  // namespace
}  // namespace tc::vm
