// Differential tests for the interpreter's two dispatch loops (the switch
// and computed-goto loops generated from vm/interp_dispatch.inc): a fuzzer
// over random valid programs asserting switch-dispatch ≡ threaded-dispatch
// for status, payload bytes and executed-instruction count, plus per-handler
// checks that run every opcode through both loops against a C++ reference
// (the threaded loop's label table is enumerated by hand, so a misplaced
// entry would route an opcode to a neighbour's handler).
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "vm/bytecode.hpp"
#include "vm/interp.hpp"

namespace tc::vm {
namespace {

/// Builds a validated Program from raw instructions by serializing the wire
/// layout by hand and running it through the real decode path — the same
/// validation every arriving ifunc gets.
StatusOr<Program> assemble_raw(std::uint16_t reg_count,
                               const std::vector<Instr>& code,
                               const std::vector<std::uint64_t>& pool) {
  ByteWriter w;
  w.u32(kProgramMagic);
  w.u16(kProgramVersion);
  w.u16(reg_count);
  w.u32(static_cast<std::uint32_t>(code.size()));
  w.u32(static_cast<std::uint32_t>(pool.size()));
  for (const Instr& in : code) {
    w.u8(static_cast<std::uint8_t>(in.op));
    w.u8(in.a);
    w.u8(in.b);
    w.u8(in.c);
    w.u32(static_cast<std::uint32_t>(in.imm));
  }
  for (std::uint64_t k : pool) w.u64(k);
  w.u64(fnv1a64(as_span(w.bytes())));
  const Bytes wire = std::move(w).take();
  return Program::deserialize(as_span(wire));
}

// --- differential fuzzer -------------------------------------------------------

/// One dispatch loop's observable outcome.
struct RunOutcome {
  Status status;
  Bytes payload;
  std::uint64_t instrs = 0;
};

RunOutcome run_config(const Program& program, const Bytes& payload_init,
                      Dispatch dispatch) {
  RunOutcome out;
  out.payload = payload_init;
  HookTable hooks;  // no hooks: generated programs never emit kHook
  InterpOptions options;
  options.dispatch = dispatch;
  auto r = execute(program, hooks, out.payload.data(), out.payload.size(),
                   options);
  if (r.is_ok()) {
    out.instrs = r->instrs;
  } else {
    out.status = r.status();
  }
  return out;
}

/// Generates a random valid program: scratch registers r2..r15, all memory
/// relative to r0 within the 256-byte payload, forward-only branches (so
/// every program terminates without fuel pressure), no hooks. The traversal
/// kernels' load→compare→branch and ldi→arithmetic idioms are seeded
/// explicitly alongside the single random instructions.
std::vector<Instr> generate_program(std::mt19937_64& rng) {
  const std::size_t body = 24 + rng() % 40;
  std::vector<Instr> code;
  auto reg = [&] { return static_cast<std::uint8_t>(2 + rng() % 14); };
  auto fwd = [&](std::size_t at) {
    // Target in (at, body]; body is the final ret.
    return static_cast<std::int32_t>(at + 1 + rng() % (body - at));
  };
  while (code.size() < body) {
    const std::size_t i = code.size();
    const std::size_t room = body - i;
    const int pick = static_cast<int>(rng() % 100);
    if (pick < 18 && room >= 3) {
      // Seeded load→compare-or-bitop→branch idiom; a quarter of the time
      // the middle ignores the loaded register.
      const Opcode ld = (rng() % 2) ? Opcode::kLd64 : Opcode::kLd32;
      const std::int32_t off =
          static_cast<std::int32_t>(8 * (rng() % 24));
      const std::uint8_t dst = reg();
      const std::uint8_t res = reg();
      const bool consume = rng() % 4 != 0;
      const Opcode mid = (rng() % 2) ? Opcode::kCeq : Opcode::kAnd;
      code.push_back({ld, dst, 0, 0, off});
      code.push_back({mid, res, consume ? dst : reg(), reg(), 0});
      code.push_back({(rng() % 2) ? Opcode::kBrz : Opcode::kBrnz, res, 0, 0,
                      fwd(i + 2)});
      continue;
    }
    if (pick < 30 && room >= 3) {
      // Seeded ldi→arithmetic idiom.
      const std::uint8_t dst = reg();
      code.push_back({Opcode::kLdi, dst, 0, 0,
                      static_cast<std::int32_t>(rng() % 64)});
      code.push_back({Opcode::kAdd, reg(), dst, reg(), 0});
      code.push_back({Opcode::kMul, reg(), reg(), reg(), 0});
      continue;
    }
    switch (rng() % 12) {
      case 0:
        code.push_back({Opcode::kLdi, reg(), 0, 0,
                        static_cast<std::int32_t>(rng() % 1024) - 512});
        break;
      case 1:
        code.push_back({Opcode::kMov, reg(), reg(), 0, 0});
        break;
      case 2: {
        static const Opcode kAlu[] = {Opcode::kAdd, Opcode::kSub,
                                      Opcode::kMul, Opcode::kAnd,
                                      Opcode::kOr,  Opcode::kXor,
                                      Opcode::kShl, Opcode::kShr};
        code.push_back({kAlu[rng() % 8], reg(), reg(), reg(), 0});
        break;
      }
      case 3: {
        static const Opcode kCmp[] = {Opcode::kCeq, Opcode::kCne,
                                      Opcode::kCult, Opcode::kCule};
        code.push_back({kCmp[rng() % 4], reg(), reg(), reg(), 0});
        break;
      }
      case 4:
        // udiv/urem may trap on a zero divisor — both dispatch loops must
        // then report the identical fault at the identical slot.
        code.push_back({(rng() % 2) ? Opcode::kUdiv : Opcode::kUrem, reg(),
                        reg(), reg(), 0});
        break;
      case 5:
        code.push_back({(rng() % 2) ? Opcode::kFadd : Opcode::kFmul, reg(),
                        reg(), reg(), 0});
        break;
      case 6:
        code.push_back({Opcode::kLd8, reg(), 0, 0,
                        static_cast<std::int32_t>(rng() % 256)});
        break;
      case 7:
        code.push_back({Opcode::kLd64, reg(), 0, 0,
                        static_cast<std::int32_t>(8 * (rng() % 32))});
        break;
      case 8:
        code.push_back({Opcode::kSt32, reg(), 0, 0,
                        static_cast<std::int32_t>(4 * (rng() % 64))});
        break;
      case 9:
        code.push_back({Opcode::kSt64, reg(), 0, 0,
                        static_cast<std::int32_t>(8 * (rng() % 32))});
        break;
      case 10:
        code.push_back({Opcode::kLdk, reg(), 0, 0,
                        static_cast<std::int32_t>(rng() % 3)});
        break;
      default:
        code.push_back({(rng() % 2) ? Opcode::kBrz : Opcode::kBrnz, reg(), 0,
                        0, fwd(i)});
        break;
    }
  }
  code.push_back({Opcode::kRet, 0, 0, 0, 0});
  return code;
}

TEST(FuzzDifferential, SwitchAndThreadedAreValueEquivalent) {
  std::size_t corpus_faults = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(0x7C0DE5EEDull + seed);
    auto program = assemble_raw(16, generate_program(rng),
                                {rng(), rng(), rng()});
    ASSERT_TRUE(program.is_ok())
        << "seed " << seed << ": " << program.status().to_string();

    Bytes payload(256);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());

    // In a build without computed goto, kThreaded runs the switch loop and
    // the comparison is trivially equal.
    const RunOutcome sw = run_config(*program, payload, Dispatch::kSwitch);
    const RunOutcome th = run_config(*program, payload, Dispatch::kThreaded);
    if (!sw.status.is_ok()) ++corpus_faults;
    ASSERT_EQ(th.status.to_string(), sw.status.to_string()) << "seed " << seed;
    ASSERT_EQ(th.payload, sw.payload)
        << "seed " << seed << " diverged in memory";
    // Virtual time is charged per executed instruction, so it must not
    // depend on the dispatch mechanism.
    EXPECT_EQ(th.instrs, sw.instrs) << "seed " << seed;
  }
  // The corpus must exercise the fault paths, not just clean returns.
  EXPECT_GT(corpus_faults, 0u);
}

// --- per-handler semantics under both loops -----------------------------------

constexpr Dispatch kBothLoops[] = {Dispatch::kSwitch, Dispatch::kThreaded};

const char* loop_name(Dispatch dispatch) {
  return dispatch == Dispatch::kSwitch ? "switch" : "threaded";
}

std::uint64_t word_at(const Bytes& bytes, std::size_t offset) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, 8);
  return v;
}

/// Runs `r4 = lhs OP rhs` under one dispatch loop and returns r4.
std::uint64_t run_binop(Opcode op, std::uint64_t lhs, std::uint64_t rhs,
                        Dispatch dispatch) {
  Assembler a;
  a.li(2, lhs);
  a.li(3, rhs);
  a.alu(op, 4, 2, 3);
  a.st64(4, 0);
  a.ret();
  auto program = a.finish(8);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  Bytes out(8, 0xEE);
  const RunOutcome r = run_config(*program, out, dispatch);
  EXPECT_TRUE(r.status.is_ok())
      << opcode_name(op) << " (" << loop_name(dispatch)
      << "): " << r.status.to_string();
  return word_at(r.payload, 0);
}

struct BinopCase {
  Opcode op;
  std::uint64_t (*reference)(std::uint64_t, std::uint64_t);
};

TEST(Dispatch, IntegerAluMatchesReference) {
  const BinopCase cases[] = {
      {Opcode::kAdd, [](std::uint64_t x, std::uint64_t y) { return x + y; }},
      {Opcode::kSub, [](std::uint64_t x, std::uint64_t y) { return x - y; }},
      {Opcode::kMul, [](std::uint64_t x, std::uint64_t y) { return x * y; }},
      {Opcode::kAnd, [](std::uint64_t x, std::uint64_t y) { return x & y; }},
      {Opcode::kOr, [](std::uint64_t x, std::uint64_t y) { return x | y; }},
      {Opcode::kXor, [](std::uint64_t x, std::uint64_t y) { return x ^ y; }},
      // Shift amounts are masked to 6 bits, so 64 shifts by 0 and 65 by 1.
      {Opcode::kShl,
       [](std::uint64_t x, std::uint64_t y) { return x << (y & 63); }},
      {Opcode::kShr,
       [](std::uint64_t x, std::uint64_t y) { return x >> (y & 63); }},
  };
  const std::uint64_t operands[] = {0,  1,  3,  63, 64, 65,
                                    0x8000000000000000ull, ~0ull,
                                    0x0123456789ABCDEFull};
  for (Dispatch dispatch : kBothLoops) {
    for (const BinopCase& c : cases) {
      for (std::uint64_t x : operands) {
        for (std::uint64_t y : operands) {
          EXPECT_EQ(run_binop(c.op, x, y, dispatch), c.reference(x, y))
              << opcode_name(c.op) << "(" << x << ", " << y << ") under "
              << loop_name(dispatch);
        }
      }
    }
    // Unsigned division and remainder on non-zero divisors (the zero
    // divisor is a fault; see FaultsReportIdenticallyInBothLoops).
    for (std::uint64_t x : operands) {
      for (std::uint64_t y : operands) {
        if (y == 0) continue;
        EXPECT_EQ(run_binop(Opcode::kUdiv, x, y, dispatch), x / y)
            << loop_name(dispatch);
        EXPECT_EQ(run_binop(Opcode::kUrem, x, y, dispatch), x % y)
            << loop_name(dispatch);
      }
    }
  }
}

TEST(Dispatch, ComparesAreUnsignedAndMatchReference) {
  const BinopCase cases[] = {
      {Opcode::kCeq,
       [](std::uint64_t x, std::uint64_t y) -> std::uint64_t { return x == y; }},
      {Opcode::kCne,
       [](std::uint64_t x, std::uint64_t y) -> std::uint64_t { return x != y; }},
      {Opcode::kCult,
       [](std::uint64_t x, std::uint64_t y) -> std::uint64_t { return x < y; }},
      {Opcode::kCule,
       [](std::uint64_t x, std::uint64_t y) -> std::uint64_t { return x <= y; }},
  };
  const std::uint64_t operands[] = {0, 1, 2, 0x7FFFFFFFFFFFFFFFull,
                                    0x8000000000000000ull, ~0ull};
  for (Dispatch dispatch : kBothLoops) {
    for (const BinopCase& c : cases) {
      for (std::uint64_t x : operands) {
        for (std::uint64_t y : operands) {
          EXPECT_EQ(run_binop(c.op, x, y, dispatch), c.reference(x, y))
              << opcode_name(c.op) << "(" << x << ", " << y << ") under "
              << loop_name(dispatch);
        }
      }
    }
    // ~0 is the largest unsigned value, not -1.
    EXPECT_EQ(run_binop(Opcode::kCult, ~0ull, 1, dispatch), 0u);
    EXPECT_EQ(run_binop(Opcode::kCult, 1, ~0ull, dispatch), 1u);
  }
}

TEST(Dispatch, FloatOpsMatchReference) {
  const double f64s[] = {0.0, 1.5, -2.25, 3.0, 1e300, -7.125e-3};
  for (Dispatch dispatch : kBothLoops) {
    for (double x : f64s) {
      for (double y : f64s) {
        const std::uint64_t bx = std::bit_cast<std::uint64_t>(x);
        const std::uint64_t by = std::bit_cast<std::uint64_t>(y);
        EXPECT_EQ(run_binop(Opcode::kFadd, bx, by, dispatch),
                  std::bit_cast<std::uint64_t>(x + y));
        EXPECT_EQ(run_binop(Opcode::kFsub, bx, by, dispatch),
                  std::bit_cast<std::uint64_t>(x - y));
        EXPECT_EQ(run_binop(Opcode::kFmul, bx, by, dispatch),
                  std::bit_cast<std::uint64_t>(x * y));
        if (y != 0.0) {
          EXPECT_EQ(run_binop(Opcode::kFdiv, bx, by, dispatch),
                    std::bit_cast<std::uint64_t>(x / y));
        }
      }
    }
    // Float division by zero is IEEE infinity, not a trap.
    EXPECT_EQ(run_binop(Opcode::kFdiv, std::bit_cast<std::uint64_t>(1.5),
                        std::bit_cast<std::uint64_t>(0.0), dispatch),
              std::bit_cast<std::uint64_t>(
                  std::numeric_limits<double>::infinity()));

    // The f32 ops read only the low 32 bits of each operand and write a
    // zero-extended result.
    const float f32s[] = {0.0f, 1.5f, -2.25f, 3.0e38f, 6.5e-3f};
    for (float x : f32s) {
      for (float y : f32s) {
        const std::uint64_t bx =
            0xDEADBEEF00000000ull | std::bit_cast<std::uint32_t>(x);
        const std::uint64_t by =
            0xFEEDFACE00000000ull | std::bit_cast<std::uint32_t>(y);
        EXPECT_EQ(run_binop(Opcode::kFadd32, bx, by, dispatch),
                  std::uint64_t{std::bit_cast<std::uint32_t>(x + y)})
            << loop_name(dispatch);
        EXPECT_EQ(run_binop(Opcode::kFmul32, bx, by, dispatch),
                  std::uint64_t{std::bit_cast<std::uint32_t>(x * y)})
            << loop_name(dispatch);
      }
    }
  }
}

TEST(Dispatch, ConstantsAndMovesMatchReference) {
  Assembler a;
  a.li(2, static_cast<std::uint64_t>(-1));  // ldi sign-extends
  a.li(3, 0x80000000ull);                   // not sext32: pool
  a.li(4, static_cast<std::uint64_t>(
                std::int64_t{std::numeric_limits<std::int32_t>::min()}));
  a.mov(5, 3);
  a.mov(3, 2);  // a move copies; it does not swap
  a.st64(2, 0, 0);
  a.st64(3, 0, 8);
  a.st64(4, 0, 16);
  a.st64(5, 0, 24);
  a.ret();
  auto program = a.finish(8);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  ASSERT_EQ(program->code()[0].op, Opcode::kLdi);
  ASSERT_EQ(program->code()[1].op, Opcode::kLdk);
  ASSERT_EQ(program->code()[2].op, Opcode::kLdi);
  // kNop is never emitted by the assembler; splice one in by hand.
  std::vector<Instr> code = program->code();
  code.insert(code.begin(), Instr{Opcode::kNop, 0, 0, 0, 0});
  auto with_nop = assemble_raw(8, code, program->pool());
  ASSERT_TRUE(with_nop.is_ok()) << with_nop.status().to_string();
  for (Dispatch dispatch : kBothLoops) {
    const RunOutcome r = run_config(*with_nop, Bytes(32, 0), dispatch);
    ASSERT_TRUE(r.status.is_ok()) << loop_name(dispatch);
    EXPECT_EQ(word_at(r.payload, 0), ~0ull) << loop_name(dispatch);
    EXPECT_EQ(word_at(r.payload, 8), ~0ull) << loop_name(dispatch);
    EXPECT_EQ(word_at(r.payload, 16), 0xFFFFFFFF80000000ull)
        << loop_name(dispatch);
    EXPECT_EQ(word_at(r.payload, 24), 0x80000000ull) << loop_name(dispatch);
    EXPECT_EQ(r.instrs, code.size()) << loop_name(dispatch);
  }
}

TEST(Dispatch, LoadsZeroExtendAndStoresTruncate) {
  // 64-byte payload: [0,16) holds the bytes 0x80..0x8F (every byte has its
  // high bit set, so a sign-extending load would show), the rest 0xAA so a
  // store that writes too many bytes shows. Each width runs once naturally
  // aligned (the atomic path) and once unaligned (the memcpy path);
  // r2 = payload + 24 exercises positive and negative displacements.
  Bytes input(64, 0xAA);
  for (std::size_t i = 0; i < 16; ++i) {
    input[i] = static_cast<std::uint8_t>(0x80 + i);
  }

  // Loads from [0,16), each result stored as a word into [16,64).
  Assembler loads;
  loads.li(8, 24);
  loads.alu(Opcode::kAdd, 2, 0, 8);
  loads.ld8(3, 0, 5);
  loads.ld32(4, 0, 4);
  loads.ld32(5, 0, 6);
  loads.ld64(6, 0, 8);
  loads.ld64(7, 0, 3);
  loads.ld64(9, 2, -16);
  loads.st64(3, 0, 16);
  loads.st64(4, 0, 24);
  loads.st64(5, 0, 32);
  loads.st64(6, 0, 40);
  loads.st64(7, 0, 48);
  loads.st64(9, 0, 56);
  loads.ret();
  auto load_program = loads.finish(16);
  ASSERT_TRUE(load_program.is_ok()) << load_program.status().to_string();
  auto load_ref = [&](std::size_t offset, std::size_t width) {
    std::uint64_t v = 0;
    std::memcpy(&v, input.data() + offset, width);  // little-endian host
    return v;
  };

  // Stores of one wide register into disjoint slots of [16,64).
  const std::uint64_t wide = 0x1122334455667788ull;
  Assembler stores;
  stores.li(8, 24);
  stores.alu(Opcode::kAdd, 2, 0, 8);
  stores.li(10, wide);
  stores.st32(10, 0, 16);  // [16,20): the low word only
  stores.st32(10, 0, 21);  // [21,25)
  stores.st64(10, 2, 8);   // [32,40)
  stores.st64(10, 0, 41);  // [41,49)
  stores.st64(10, 2, 32);  // [56,64)
  stores.ret();
  auto store_program = stores.finish(16);
  ASSERT_TRUE(store_program.is_ok()) << store_program.status().to_string();
  Bytes store_ref = input;
  for (std::size_t offset : {16u, 21u}) {
    std::memcpy(store_ref.data() + offset, &wide, 4);
  }
  for (std::size_t offset : {32u, 41u, 56u}) {
    std::memcpy(store_ref.data() + offset, &wide, 8);
  }

  for (Dispatch dispatch : kBothLoops) {
    const RunOutcome l = run_config(*load_program, input, dispatch);
    ASSERT_TRUE(l.status.is_ok()) << loop_name(dispatch);
    EXPECT_EQ(word_at(l.payload, 16), load_ref(5, 1)) << loop_name(dispatch);
    EXPECT_EQ(word_at(l.payload, 24), load_ref(4, 4)) << loop_name(dispatch);
    EXPECT_EQ(word_at(l.payload, 32), load_ref(6, 4)) << loop_name(dispatch);
    EXPECT_EQ(word_at(l.payload, 40), load_ref(8, 8)) << loop_name(dispatch);
    EXPECT_EQ(word_at(l.payload, 48), load_ref(3, 8)) << loop_name(dispatch);
    EXPECT_EQ(word_at(l.payload, 56), load_ref(8, 8)) << loop_name(dispatch);
    EXPECT_EQ(word_at(l.payload, 16), 0x85u) << loop_name(dispatch);
    EXPECT_EQ(word_at(l.payload, 24), 0x87868584u) << loop_name(dispatch);

    const RunOutcome s = run_config(*store_program, input, dispatch);
    ASSERT_TRUE(s.status.is_ok()) << loop_name(dispatch);
    EXPECT_EQ(s.payload, store_ref) << loop_name(dispatch);
  }
}

/// Hook stub state: every call appends its name to `calls`.
struct HookLog {
  std::vector<std::string> calls;
  Bytes reply;
};

HookTable logging_hooks(HookLog& log) {
  HookTable h;
  h.ctx = &log;
  h.node = [](void* c) -> std::uint64_t {
    static_cast<HookLog*>(c)->calls.push_back("node");
    return 7;
  };
  h.peer_count = [](void* c) -> std::uint64_t {
    static_cast<HookLog*>(c)->calls.push_back("peer_count");
    return 5;
  };
  h.self_peer = [](void* c) -> std::uint64_t {
    static_cast<HookLog*>(c)->calls.push_back("self_peer");
    return 3;
  };
  h.shard_base = [](void* c) -> std::uint64_t* {
    static_cast<HookLog*>(c)->calls.push_back("shard_base");
    return reinterpret_cast<std::uint64_t*>(0x1000);
  };
  h.shard_size = [](void* c) -> std::uint64_t {
    static_cast<HookLog*>(c)->calls.push_back("shard_size");
    return 64;
  };
  h.reply = [](void* c, const std::uint8_t* p,
               std::uint64_t n) -> std::int32_t {
    auto* log = static_cast<HookLog*>(c);
    log->calls.push_back("reply");
    log->reply.assign(p, p + n);
    return -2;  // a negative i32 status, sign-extended into the register
  };
  return h;
}

TEST(Dispatch, HookCallsMatchAcrossLoops) {
  Assembler a;
  a.hook(HookId::kNode, 2);
  a.hook(HookId::kShardInfo, 3);  // r3..r6
  a.st64(2, 0, 0);
  a.st64(3, 0, 8);
  a.st64(4, 0, 16);
  a.st64(5, 0, 24);
  a.st64(6, 0, 32);
  a.mov(8, 0);  // reply(payload, 16)
  a.li(9, 16);
  a.hook(HookId::kReply, 7, 8);
  a.st64(7, 0, 40);
  a.ret();
  auto program = a.finish(16);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();

  const std::vector<std::string> expected_calls = {
      "node", "shard_size", "self_peer", "shard_base", "peer_count", "reply"};
  for (Dispatch dispatch : kBothLoops) {
    HookLog log;
    Bytes payload(48, 0);
    auto r = execute(*program, logging_hooks(log), payload.data(),
                     payload.size(), InterpOptions{.dispatch = dispatch});
    ASSERT_TRUE(r.is_ok()) << loop_name(dispatch) << ": "
                           << r.status().to_string();
    EXPECT_EQ(log.calls, expected_calls) << loop_name(dispatch);
    EXPECT_EQ(word_at(payload, 0), 7u);
    EXPECT_EQ(word_at(payload, 8), 64u);      // shard_size
    EXPECT_EQ(word_at(payload, 16), 3u);      // self_peer
    EXPECT_EQ(word_at(payload, 24), 0x1000u); // shard_base
    EXPECT_EQ(word_at(payload, 32), 5u);      // peer_count
    EXPECT_EQ(word_at(payload, 40), static_cast<std::uint64_t>(-2));
    ASSERT_EQ(log.reply.size(), 16u);
    EXPECT_EQ(word_at(log.reply, 0), 7u);
    EXPECT_EQ(word_at(log.reply, 8), 64u);
  }
}

/// r2 = iterations; loop { r2 -= 1 } while r2 != 0; ret. Executes
/// 2 + 2 * iterations + 1 instructions; the fuel compare at the k-th brnz
/// sees 2 + 2k.
Program countdown(std::int32_t iterations) {
  Assembler a;
  a.li(2, static_cast<std::uint64_t>(iterations));
  a.li(3, 1);
  const auto loop = a.make_label();
  a.bind(loop);
  a.alu(Opcode::kSub, 2, 2, 3);
  a.brnz(2, loop);
  a.ret();
  auto program = a.finish(4);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  return std::move(program).value();
}

TEST(Dispatch, InstrCountIsTheExecutedStream) {
  for (Dispatch dispatch : kBothLoops) {
    // Straight-line code: every instruction once, the ret included.
    for (std::uint64_t k : {1u, 2u, 17u}) {
      Assembler a;
      for (std::uint64_t i = 0; i < k; ++i) a.li(2, i);
      a.ret();
      auto program = a.finish(4);
      ASSERT_TRUE(program.is_ok());
      const RunOutcome r = run_config(*program, Bytes(8), dispatch);
      ASSERT_TRUE(r.status.is_ok());
      EXPECT_EQ(r.instrs, k + 1) << loop_name(dispatch);
    }
    // Loops: each taken and each not-taken branch counts once.
    for (std::int32_t iterations : {1, 2, 10, 1000}) {
      const RunOutcome r =
          run_config(countdown(iterations), Bytes(8), dispatch);
      ASSERT_TRUE(r.status.is_ok());
      EXPECT_EQ(r.instrs, 3u + 2u * static_cast<std::uint64_t>(iterations))
          << iterations << " iterations under " << loop_name(dispatch);
    }
    // A skipped block is not counted.
    Assembler a;
    const auto skip = a.make_label();
    a.li(2, 0);
    a.brz(2, skip);
    for (int i = 0; i < 5; ++i) a.li(3, 9);
    a.bind(skip);
    a.ret();
    auto program = a.finish(4);
    ASSERT_TRUE(program.is_ok());
    const RunOutcome r = run_config(*program, Bytes(8), dispatch);
    ASSERT_TRUE(r.status.is_ok());
    EXPECT_EQ(r.instrs, 3u) << loop_name(dispatch);
  }
}

TEST(Dispatch, FuelBudgetIsTheInstructionCount) {
  // Ten iterations execute 23 instructions; the last fuel compare (at the
  // tenth brnz) sees 22, and the closing ret is the permitted overshoot.
  const Program program = countdown(10);
  for (Dispatch dispatch : kBothLoops) {
    Bytes payload(8);
    InterpOptions options{.dispatch = dispatch};
    options.max_ops = 22;
    auto ok = execute(program, HookTable{}, payload.data(), payload.size(),
                      options);
    ASSERT_TRUE(ok.is_ok()) << loop_name(dispatch) << ": "
                            << ok.status().to_string();
    EXPECT_EQ(ok->instrs, 23u);

    options.max_ops = 21;
    auto out = execute(program, HookTable{}, payload.data(), payload.size(),
                       options);
    ASSERT_FALSE(out.is_ok()) << loop_name(dispatch);
    EXPECT_EQ(out.status().code(), ErrorCode::kResourceExhausted);
    EXPECT_NE(out.status().to_string().find("(21)"), std::string::npos)
        << out.status().to_string();
  }
}

TEST(Dispatch, FaultsReportIdenticallyInBothLoops) {
  struct Case {
    const char* what;
    Program program;
    ErrorCode code;
    const char* needle;
  };
  std::vector<Case> cases;
  {
    Assembler a;
    a.li(2, 5);
    a.st64(2, 0);  // an effect before the fault must persist
    a.li(3, 0);
    a.alu(Opcode::kUdiv, 4, 2, 3);
    a.ret();
    cases.push_back({"udiv", *a.finish(8), ErrorCode::kInternal,
                     "division by zero at instr 3"});
  }
  {
    Assembler a;
    a.li(2, 5);
    a.st64(2, 0);
    a.li(3, 0);
    a.alu(Opcode::kUrem, 4, 2, 3);
    a.ret();
    cases.push_back({"urem", *a.finish(8), ErrorCode::kInternal,
                     "remainder by zero at instr 3"});
  }
  {
    Assembler a;
    a.li(2, 5);
    a.st64(2, 0);
    a.hook(HookId::kNode, 3);
    a.ret();
    cases.push_back({"missing hook", *a.finish(8),
                     ErrorCode::kFailedPrecondition, "node hook not provided"});
  }
  for (const Case& c : cases) {
    const RunOutcome sw = run_config(c.program, Bytes(8), Dispatch::kSwitch);
    const RunOutcome th = run_config(c.program, Bytes(8), Dispatch::kThreaded);
    EXPECT_EQ(sw.status.code(), c.code) << c.what;
    EXPECT_NE(sw.status.to_string().find(c.needle), std::string::npos)
        << c.what << ": " << sw.status.to_string();
    EXPECT_EQ(th.status.to_string(), sw.status.to_string()) << c.what;
    EXPECT_EQ(word_at(sw.payload, 0), 5u) << c.what;
    EXPECT_EQ(th.payload, sw.payload) << c.what;
  }
}

TEST(Dispatch, ThreadedAvailabilityMatchesBuild) {
#if defined(TC_VM_SWITCH_DISPATCH)
  EXPECT_FALSE(threaded_dispatch_available());
#elif defined(__GNUC__) || defined(__clang__)
  EXPECT_TRUE(threaded_dispatch_available());
#endif
}

}  // namespace
}  // namespace tc::vm
