// Tests for the single-source kernel frontend (src/kir/): catalogue
// completeness, verifier rejections of the lockstep bug classes, the pinned
// size and fnv1a64 of every portable program vm::lower_kernel serves,
// differential execution of the reference evaluator against the
// interpreter on all sixteen kernels, AM-mode equivalence on live clusters,
// and — with LLVM — the kir→llvm backend run end to end through ORC and the
// atomic stores of every shipped bitcode module.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "am/am_runtime.hpp"
#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "core/ifunc.hpp"
#include "ir/kernels.hpp"
#include "kir/am_backend.hpp"
#include "kir/eval.hpp"
#include "kir/kernels.hpp"
#include "kir/kir.hpp"
#include "kir/vm_backend.hpp"
#include "vm/interp.hpp"
#include "vm/lower.hpp"
#include "workloads/shard_layout.hpp"
#include "workloads/workload_engine.hpp"
#include "xrdma/dapc.hpp"

#if TC_WITH_LLVM
#include <llvm/IR/Instructions.h>

#include "core/context.hpp"
#include "core/runtime.hpp"
#include "hll/frontend.hpp"
#include "ir/bitcode.hpp"
#include "ir/target_info.hpp"
#include "jit/engine.hpp"
#include "kir/llvm_backend.hpp"
#endif

namespace tc::kir {
namespace {

// --- pinned portable bytecode --------------------------------------------------

/// One portable program the fabric ships: a kernel variant and the size and
/// fnv1a64 of its serialized vm::lower_kernel output.
struct PinnedProgram {
  ir::KernelKind kind;
  bool hll_guards;
  bool chaser_tagged;
  std::size_t bytes;
  std::uint64_t fnv1a64;
};

void PrintTo(const PinnedProgram& pin, std::ostream* os) {
  *os << ir::kernel_name(pin.kind) << (pin.hll_guards ? " --hll" : "")
      << (pin.chaser_tagged ? " --tagged" : "");
}

using K = ir::KernelKind;

// Every kernel with HLL guards off and on, plus the tagged chaser. The sim
// charges interpreted virtual time per shipped instruction, so a changed
// row moves calibrated figures; `tc_inspect kir <kernel> [--hll]
// [--tagged]` prints a program with its row in this format.
//   kind, hll_guards, chaser_tagged, bytes, fnv1a64
constexpr PinnedProgram kPinnedPrograms[] = {
    {K::kTargetSideIncrement, false, false, 72, 0xb85d6c8b8f30e273},
    {K::kTargetSideIncrement, true, false, 80, 0xcf10b897ea398c4e},
    {K::kPayloadSum, false, false, 128, 0xda53d1ec98574e38},
    {K::kPayloadSum, true, false, 136, 0xc50c3c398c1b9626},
    {K::kSaxpy, false, false, 216, 0xa19e1661df0b7025},
    {K::kSaxpy, true, false, 224, 0xfee303af60ee193e},
    {K::kVecReduce, false, false, 152, 0x3c77a4f596ffcfc8},
    {K::kVecReduce, true, false, 160, 0x780669298525a441},
    {K::kChaser, false, false, 264, 0x4d3474371f55d97b},
    {K::kChaser, true, false, 272, 0x8b57f01d8521446d},
    {K::kChaser, false, true, 288, 0xc45ca4b659900714},
    {K::kChaser, true, true, 296, 0x4c2ba83ce8465a00},
    {K::kRingHop, false, false, 200, 0x9e59bc21de3f821d},
    {K::kRingHop, true, false, 208, 0x5ee64fdf7e72b123},
    {K::kSpawner, false, false, 88, 0xadc79727de1103f9},
    {K::kSpawner, true, false, 96, 0x89bf8f98db4f64fd},
    {K::kSinSum, false, false, 160, 0xff6aab38586b7c69},
    {K::kSinSum, true, false, 168, 0xb5998771104f7987},
    {K::kRemoteStore, false, false, 112, 0x474a9d3fd2f2114d},
    {K::kRemoteStore, true, false, 120, 0x33f2e7093976c835},
    {K::kStatsSummary, false, false, 248, 0x373df18506c2e2d7},
    {K::kStatsSummary, true, false, 256, 0x2c6afdcb5f175d76},
    {K::kTreeBroadcast, false, false, 224, 0x1075b2ad420b8391},
    {K::kTreeBroadcast, true, false, 232, 0x86a5e36464a9a3f1},
    {K::kCollectiveBroadcast, false, false, 352, 0x0d9651e5491cbe46},
    {K::kCollectiveBroadcast, true, false, 360, 0xda3d6eb2173c8ba3},
    {K::kCollectiveReduce, false, false, 856, 0xd65e5001f44a3dcf},
    {K::kCollectiveReduce, true, false, 872, 0xb81b470bb900ff1d},
    {K::kHashProbe, false, false, 392, 0xc021c0f744922cba},
    {K::kHashProbe, true, false, 400, 0xf16ac227f6b46469},
    {K::kOrderedSearch, false, false, 1000, 0xe2a525a06a5112bb},
    {K::kOrderedSearch, true, false, 1032, 0x8a2737f044fb65cc},
    {K::kBfsFrontier, false, false, 1096, 0x3615d1473aef2d70},
    {K::kBfsFrontier, true, false, 1104, 0x70fda61cdba4d421},
};

std::string pin_line(std::size_t bytes, std::uint64_t hash) {
  char line[64];
  std::snprintf(line, sizeof(line), "bytes=%zu fnv1a64=0x%016llx", bytes,
                static_cast<unsigned long long>(hash));
  return line;
}

class PinnedBytecodeP : public ::testing::TestWithParam<PinnedProgram> {};

TEST_P(PinnedBytecodeP, SizeAndFnv1a64Unchanged) {
  const PinnedProgram& pin = GetParam();
  ir::KernelOptions options;
  options.hll_guards = pin.hll_guards;
  options.chaser_tagged = pin.chaser_tagged;
  auto program = vm::lower_kernel(pin.kind, options);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  const Bytes wire = program->serialize();
  const std::uint64_t hash = fnv1a64(as_span(wire));
  if (wire.size() == pin.bytes && hash == pin.fnv1a64) return;
  ADD_FAILURE() << ::testing::PrintToString(pin) << ": expected "
                << pin_line(pin.bytes, pin.fnv1a64) << ", got "
                << pin_line(wire.size(), hash)
                << "\nA deliberate schedule change re-pins this row; inspect "
                   "it with `tc_inspect kir "
                << ::testing::PrintToString(pin) << "`. The program:\n"
                << vm::disassemble(*program);
}

INSTANTIATE_TEST_SUITE_P(
    AllPortablePrograms, PinnedBytecodeP, ::testing::ValuesIn(kPinnedPrograms),
    [](const ::testing::TestParamInfo<PinnedProgram>& info) {
      std::string name = ir::kernel_name(info.param.kind);
      if (info.param.chaser_tagged) name += "_tagged";
      if (info.param.hll_guards) name += "_hll";
      return name;
    });

// --- catalogue completeness ----------------------------------------------------

TEST(KirCatalogue, EveryKernelKindFullyDescribed) {
  for (int k = 0; k < ir::kKernelKindCount; ++k) {
    const auto kind = static_cast<ir::KernelKind>(k);
    EXPECT_STRNE(ir::kernel_name(kind), "unknown") << "kind " << k;
    EXPECT_STRNE(ir::kernel_description(kind), "") << "kind " << k;
    // Every program of the kind is pinned: guards off and on, and both
    // again for the tagged chaser.
    std::size_t pinned = 0;
    for (const PinnedProgram& pin : kPinnedPrograms) {
      if (pin.kind == kind) ++pinned;
    }
    EXPECT_EQ(pinned, kind == ir::KernelKind::kChaser ? 4u : 2u)
        << ir::kernel_name(kind);
  }
}

TEST(KirCatalogue, EveryKindHasADefinition) {
  // KIR is the one frontend: every kind has a def that builds, verifies and
  // prepares with guards off and on, and an out-of-range kind is refused.
  for (int k = 0; k < ir::kKernelKindCount; ++k) {
    const auto kind = static_cast<ir::KernelKind>(k);
    auto def = kernel_def(kind, {});
    ASSERT_TRUE(def.is_ok())
        << ir::kernel_name(kind) << ": " << def.status().to_string();
    EXPECT_EQ(def->name, ir::kernel_name(kind));
    for (bool hll : {false, true}) {
      ir::KernelOptions options;
      options.hll_guards = hll;
      auto prepared = prepared_def(kind, options);
      EXPECT_TRUE(prepared.is_ok())
          << ir::kernel_name(kind) << ": " << prepared.status().to_string();
    }
  }
  auto bogus =
      kernel_def(static_cast<ir::KernelKind>(ir::kKernelKindCount), {});
  EXPECT_EQ(bogus.status().code(), ErrorCode::kInvalidArgument);
}

TEST(KirCatalogue, TaggedRejectedForNonChaserPortableKernels) {
  // chaser_tagged names a chaser variant only; for any other kernel the
  // portable frontend — and the defs every backend builds from — must
  // refuse rather than ship the untagged program under a tagged (`_w`)
  // wire name.
  ir::KernelOptions tagged;
  tagged.chaser_tagged = true;
  for (int k = 0; k < ir::kKernelKindCount; ++k) {
    const auto kind = static_cast<ir::KernelKind>(k);
    auto raw = kernel_def(kind, tagged);
    auto prepared = prepared_def(kind, tagged);
    auto program = vm::lower_kernel(kind, tagged);
    auto library = core::IfuncLibrary::from_portable_kernel(kind, tagged);
    if (kind == ir::KernelKind::kChaser) {
      EXPECT_TRUE(raw.is_ok()) << raw.status().to_string();
      EXPECT_TRUE(prepared.is_ok()) << prepared.status().to_string();
      EXPECT_TRUE(program.is_ok()) << program.status().to_string();
      EXPECT_TRUE(library.is_ok()) << library.status().to_string();
      continue;
    }
    ASSERT_FALSE(raw.is_ok()) << ir::kernel_name(kind);
    EXPECT_EQ(raw.status().code(), ErrorCode::kInvalidArgument);
    ASSERT_FALSE(prepared.is_ok()) << ir::kernel_name(kind);
    EXPECT_EQ(prepared.status().code(), ErrorCode::kInvalidArgument);
    ASSERT_FALSE(program.is_ok()) << ir::kernel_name(kind);
    EXPECT_EQ(program.status().code(), ErrorCode::kInvalidArgument);
    ASSERT_FALSE(library.is_ok()) << ir::kernel_name(kind);
    EXPECT_EQ(library.status().code(), ErrorCode::kInvalidArgument);
  }
}

// --- verifier rejections -------------------------------------------------------

TEST(KirVerifier, UnterminatedLoopRejectedAtFinish) {
  Builder b;
  b.loop();
  b.iconst(2, 1);
  b.ret();
  auto def = b.finish("bad_loop");
  ASSERT_FALSE(def.is_ok());
  EXPECT_NE(def.status().message().find("unterminated loop"),
            std::string::npos)
      << def.status().to_string();
}

TEST(KirVerifier, ReplyAfterForwardRejected) {
  // The classic double-send: a forward whose fallthrough path reaches a
  // reply. Sends must be terminal.
  Builder b;
  b.iconst(12, 0);
  b.mov(13, 0);
  b.mov(14, 1);
  b.forward(8, 12);
  b.reply(8, 13);
  b.ret();
  auto def = b.finish("double_send");
  ASSERT_FALSE(def.is_ok());
  EXPECT_NE(def.status().message().find("send"), std::string::npos)
      << def.status().to_string();
}

TEST(KirVerifier, NonTerminalReplyRejected) {
  Builder b;
  b.mov(13, 0);
  b.mov(14, 1);
  b.reply(8, 13);
  b.iconst(2, 1);  // computation after the send — verifier error
  b.ret();
  auto def = b.finish("chatty_reply");
  ASSERT_FALSE(def.is_ok());
}

TEST(KirVerifier, OutOfRangeShardWordRejected) {
  Builder b;
  b.set_shard_record_words(workloads::kHashBucketWords);  // 2-word records
  b.iconst(4, 0);
  b.ld_shard_word(3, 4, 5);  // word 5 of a 2-word record
  b.ret();
  auto def = b.finish("bad_record_word");
  ASSERT_FALSE(def.is_ok());
  EXPECT_NE(def.status().message().find("shard"), std::string::npos)
      << def.status().to_string();
}

TEST(KirVerifier, PayloadAccessBeyondDeclaredFloorRejected) {
  Builder b;
  b.set_min_payload_bytes(8);
  b.ld_payload(2, 8);  // word at [8, 16) but the floor guarantees only 8
  b.ret();
  auto def = b.finish("bad_payload_word");
  ASSERT_FALSE(def.is_ok());
}

TEST(KirBackends, RawDefsWithMarkersRejected) {
  // Backends consume prepared defs only; raw defs still carry kGuard (and
  // possibly kTrace) markers that must have gone through the passes.
  auto raw = kernel_def(ir::KernelKind::kTargetSideIncrement, {});
  ASSERT_TRUE(raw.is_ok());
  auto program = emit_vm(*raw);
  ASSERT_FALSE(program.is_ok());
  EXPECT_EQ(program.status().code(), ErrorCode::kFailedPrecondition);
}

// --- evaluator ↔ interpreter differential --------------------------------------

struct StubEnv {
  /// One 64-byte lane cell: the target of the lane-cell kernels, a
  /// {value, arrivals} slot or the Welford state for the others.
  std::uint64_t target[8] = {};
  /// Memory the target's words may point at (the BFS cell's visited bitmap
  /// and worklist). Pointers into it compare as offsets across envs.
  std::uint64_t arena[16] = {};
  std::uint64_t* shard = nullptr;
  std::uint64_t shard_size = 0;
  std::uint64_t self_peer = 0;
  std::uint64_t peer_count = 0;
  std::uint64_t guards = 0;
  /// A send to a peer: a forward's payload, an injected ifunc's name plus
  /// its argument, or a remote write's offset plus its bytes.
  struct Forward {
    std::uint64_t peer;
    Bytes payload;
    bool operator==(const Forward&) const = default;
  };
  std::vector<Forward> forwards;
  std::vector<Forward> injects;
  std::vector<Forward> remote_writes;
  std::vector<Bytes> replies;
};

vm::HookTable stub_hooks(StubEnv& env) {
  vm::HookTable h;
  h.ctx = &env;
  h.target = [](void* c) -> void* {
    return static_cast<StubEnv*>(c)->target;
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
    static_cast<StubEnv*>(c)->forwards.push_back({peer, Bytes(p, p + n)});
    return 0;
  };
  h.inject = [](void* c, std::uint64_t peer, const char* name,
                const std::uint8_t* arg, std::uint64_t n) -> std::int32_t {
    Bytes sent(name, name + std::strlen(name) + 1);
    sent.insert(sent.end(), arg, arg + n);
    static_cast<StubEnv*>(c)->injects.push_back({peer, std::move(sent)});
    return 0;
  };
  h.reply = [](void* c, const std::uint8_t* p,
               std::uint64_t n) -> std::int32_t {
    static_cast<StubEnv*>(c)->replies.push_back(Bytes(p, p + n));
    return 0;
  };
  h.remote_write = [](void* c, std::uint64_t peer, std::uint64_t offset,
                      const std::uint8_t* p, std::uint64_t n) -> std::int32_t {
    ByteWriter sent;
    sent.u64(offset);
    sent.raw(ByteSpan(p, n));
    static_cast<StubEnv*>(c)->remote_writes.push_back(
        {peer, std::move(sent).take()});
    return -3;  // a refused write: the kernel replies the rc
  };
  h.hll_guard = [](void* c) { ++static_cast<StubEnv*>(c)->guards; };
  h.sin_fn = [](double x) { return std::sin(x); };
  return h;
}

/// One differential case: identical env + payload through the evaluator
/// (kir defs) and the interpreter (the production vm::lower_kernel
/// bytecode); every observable — target, arena, payload mutation,
/// forwards, injects, remote writes, replies, guard count — must match.
struct DiffCase {
  ir::KernelKind kind;
  Bytes payload;
  std::vector<std::uint64_t> shard = {};
  std::uint64_t shard_size = 0;
  std::uint64_t self_peer = 0;
  std::uint64_t peer_count = 0;
  /// Initial target words (StubEnv::target).
  std::vector<std::uint64_t> target = {};
  /// Target words that start as pointers into the env's arena:
  /// {target word, arena word}.
  std::vector<std::pair<int, int>> arena_ptrs = {};
};

/// Loads `c`'s target, arena pointers and shard geometry into `env`;
/// `shard` is the env's own copy of the case's shard.
void init_env(StubEnv& env, const DiffCase& c,
              std::vector<std::uint64_t>& shard) {
  shard = c.shard;
  env.shard = shard.data();
  env.shard_size = c.shard_size;
  env.self_peer = c.self_peer;
  env.peer_count = c.peer_count;
  std::copy(c.target.begin(), c.target.end(), env.target);
  for (const auto& [word, at] : c.arena_ptrs) {
    env.target[word] = reinterpret_cast<std::uint64_t>(&env.arena[at]);
  }
}

/// A target word with pointers into the env's own arena rewritten
/// as offsets, so two envs compare equal when their layouts agree.
std::uint64_t portable_word(const StubEnv& env, std::uint64_t word) {
  const auto base = reinterpret_cast<std::uint64_t>(env.arena);
  return word >= base && word < base + sizeof(env.arena) ? word - base
                                                           : word;
}

void run_differential(const DiffCase& c, bool hll) {
  ir::KernelOptions options;
  options.hll_guards = hll;
  options.chaser_tagged =
      c.kind == ir::KernelKind::kChaser && c.payload.size() == 24;

  auto def = prepared_def(c.kind, options);
  ASSERT_TRUE(def.is_ok()) << def.status().to_string();
  auto program = vm::lower_kernel(c.kind, options);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();

  StubEnv kir_env, vm_env;
  std::vector<std::uint64_t> kir_shard, vm_shard;
  init_env(kir_env, c, kir_shard);
  init_env(vm_env, c, vm_shard);

  Bytes kir_payload = c.payload;
  Bytes vm_payload = c.payload;
  auto kir_hooks = stub_hooks(kir_env);
  auto vm_hooks = stub_hooks(vm_env);

  auto eval_result =
      evaluate(*def, kir_hooks, kir_payload.data(), kir_payload.size());
  ASSERT_TRUE(eval_result.is_ok())
      << def->name << ": " << eval_result.status().to_string();
  auto interp_result = vm::execute(*program, vm_hooks, vm_payload.data(),
                                   vm_payload.size());
  ASSERT_TRUE(interp_result.is_ok())
      << def->name << ": " << interp_result.status().to_string();

  const std::string label =
      def->name + std::string(hll ? " (hll)" : "");
  EXPECT_EQ(kir_payload, vm_payload) << label << ": payload diverged";
  for (int w = 0; w < 8; ++w) {
    EXPECT_EQ(portable_word(kir_env, kir_env.target[w]),
              portable_word(vm_env, vm_env.target[w]))
        << label << ": target word " << w;
  }
  for (int w = 0; w < 16; ++w) {
    EXPECT_EQ(kir_env.arena[w], vm_env.arena[w])
        << label << ": arena word " << w;
  }
  EXPECT_EQ(kir_shard, vm_shard) << label << ": shard mutation diverged";
  EXPECT_EQ(kir_env.guards, vm_env.guards) << label << ": guard count";
  EXPECT_EQ(kir_env.forwards, vm_env.forwards) << label << ": forwards";
  EXPECT_EQ(kir_env.injects, vm_env.injects) << label << ": injects";
  EXPECT_EQ(kir_env.remote_writes, vm_env.remote_writes)
      << label << ": remote writes";
  EXPECT_EQ(kir_env.replies, vm_env.replies) << label << ": replies";
  // The plain variant must never guard. (Whether the hll variant guards
  // depends on the path taken — KirEval.HllGuardsActuallyFire pins the
  // positive case.)
  if (!hll) {
    EXPECT_EQ(kir_env.guards, 0u) << label;
  }
}

Bytes words(std::initializer_list<std::uint64_t> ws) {
  ByteWriter w;
  for (std::uint64_t v : ws) w.u64(v);
  return std::move(w).take();
}

std::uint64_t f64_word(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<DiffCase> differential_cases() {
  std::vector<DiffCase> cases;
  cases.push_back({ir::KernelKind::kTargetSideIncrement, Bytes{0}});
  cases.push_back(
      {ir::KernelKind::kPayloadSum, Bytes{3, 1, 4, 1, 5, 9, 250, 255}});
  {
    // saxpy over five floats: [n][a:f32][x:f32*n][y:f32*n].
    ByteWriter w;
    const std::vector<float> xs = {1.5f, -2.25f, 4.0f, 1e9f, 3.125f};
    const std::vector<float> ys = {0.5f, 8.0f, -1.0f, 2.0f, 1e-3f};
    w.u64(xs.size());
    w.u32(std::bit_cast<std::uint32_t>(2.5f));
    for (float x : xs) w.u32(std::bit_cast<std::uint32_t>(x));
    for (float y : ys) w.u32(std::bit_cast<std::uint32_t>(y));
    cases.push_back({ir::KernelKind::kSaxpy, std::move(w).take()});
  }
  {
    ByteWriter w;
    const std::vector<double> xs = {1.5, -2.25, 4.0, 1e9, 3.125};
    w.u64(xs.size());
    for (double x : xs) w.f64(x);
    cases.push_back({ir::KernelKind::kVecReduce, w.bytes()});
    cases.push_back({ir::KernelKind::kSinSum, w.bytes()});
    // Welford over a running state {count = 2, mean = 1.5, M2 = 0.5}.
    cases.push_back({ir::KernelKind::kStatsSummary, std::move(w).take(), {},
                     0, 0, 0, {f64_word(2.0), f64_word(1.5), f64_word(0.5)}});
  }
  {
    // Ring hop with live TTL: decrement, forward to the next peer.
    DiffCase c{ir::KernelKind::kRingHop, words({5, 2})};  // ttl, hops
    c.self_peer = 1;
    c.peer_count = 3;
    cases.push_back(c);
    // Drained TTL: reply.
    DiffCase done = c;
    done.payload = words({0, 7});
    cases.push_back(done);
  }
  {
    // Chaser over a 4-entry shard owned by peer 1 (addresses 4..7):
    // two local hops, then the chain leaves the shard → forward.
    DiffCase c{ir::KernelKind::kChaser, words({5, 3})};  // address, depth
    c.shard = {6, 7, 4, 12};
    c.shard_size = 4;
    c.self_peer = 1;
    c.peer_count = 4;
    cases.push_back(c);
    // Same shard, depth drains locally → reply. Classic and tagged (the
    // third word is the window tag).
    DiffCase done = c;
    done.payload = words({5, 1});
    cases.push_back(done);
    DiffCase tagged = c;
    tagged.payload = words({5, 2, 0xBEEF});
    cases.push_back(tagged);
  }
  {
    // Spawner: inject "tsi" with one argument word into peer 2.
    Bytes payload = words({2, 0x1234});
    for (char ch : std::string("tsi")) payload.push_back(ch);
    payload.push_back(0);
    cases.push_back({ir::KernelKind::kSpawner, std::move(payload)});
  }
  // Remote store: the write is refused (rc -3), and the rc is the reply.
  cases.push_back(
      {ir::KernelKind::kRemoteStore, words({1, 16, 0xABCD})});
  {
    // Tree broadcast: fan out a span of 5 (three forwards, then local
    // delivery), and a leaf that only delivers.
    DiffCase fan{ir::KernelKind::kTreeBroadcast, words({0, 5, 77})};
    fan.target = {0, 2};  // {value, arrivals}
    cases.push_back(fan);
    DiffCase leaf = fan;
    leaf.payload = words({4, 1, 9});
    cases.push_back(leaf);
  }
  {
    // Collective broadcast, lane 0 rooted at server 1 of 4: fan out and
    // deliver, and a leaf that delivers and acks the origin.
    DiffCase fan{ir::KernelKind::kCollectiveBroadcast,
                 words({0, 4, 55, 0, 1})};  // base, span, value, lane, root
    fan.peer_count = 4;
    fan.target = {0, 3};  // lane 0's cell: {value, arrivals}
    cases.push_back(fan);
    DiffCase leaf = fan;
    leaf.payload = words({3, 1, 55, 0, 1});
    cases.push_back(leaf);
  }
  {
    // Collective reduce on lane 0. Cell words: 2 contrib, 3 acc,
    // 4 expected, 5 arrived, 6 parent, 7 op.
    constexpr std::uint64_t kRoot = ~0ull;
    auto reduce = [](Bytes payload, std::vector<std::uint64_t> cell,
                     std::uint64_t self) {
      DiffCase c{ir::KernelKind::kCollectiveReduce, std::move(payload)};
      c.self_peer = self;
      c.peer_count = 4;
      c.target = std::move(cell);
      return c;
    };
    // Fan-out [0][base][span][parent][lane][op][root]: the root forwards
    // two halves and parks its partial sum.
    cases.push_back(
        reduce(words({0, 0, 4, kRoot, 0, 0, 0}), {0, 0, 10}, 0));
    // A childless leaf contributes its min straight to its parent, and a
    // one-server tree's root replies its count.
    cases.push_back(reduce(words({0, 3, 1, 2, 0, 1, 0}), {0, 0, 10}, 3));
    cases.push_back(reduce(words({0, 0, 1, kRoot, 0, 3, 0}), {}, 0));
    // Contribute [1][lane][value]: not yet complete (max), the last child
    // climbs to the parent (min), the last child at the root replies (sum).
    cases.push_back(reduce(words({1, 0, 9}), {0, 0, 0, 5, 2, 0, 3, 2}, 1));
    cases.push_back(reduce(words({1, 0, 2}), {0, 0, 0, 5, 2, 1, 3, 1}, 1));
    cases.push_back(
        reduce(words({1, 0, 7}), {0, 0, 0, 5, 1, 0, kRoot, 0}, 0));
  }
  {
    // Hash probe over 4 buckets/shard, 2 shards. Bucket layout per
    // workloads/shard_layout.hpp: [key][value].
    DiffCase base{ir::KernelKind::kHashProbe, {}};
    base.shard = {100, 111, 0, 0, 300, 333, 400, 444};
    base.shard_size = 8;  // words
    base.self_peer = 0;
    base.peer_count = 2;
    auto probe = [&](std::uint64_t key, std::uint64_t slot,
                     std::uint64_t probes, std::uint64_t tag) {
      DiffCase c = base;
      c.payload = words({key, slot, probes, tag});
      return c;
    };
    cases.push_back(probe(100, 0, 3, 9));  // hit in the first bucket
    cases.push_back(probe(500, 1, 3, 9));  // empty bucket → miss
    cases.push_back(probe(500, 2, 1, 9));  // probe budget drains → miss
    cases.push_back(probe(500, 3, 4, 9));  // linear probe leaves the shard
                                           // → forward to peer 1
  }
  {
    // Ordered search on server 0 of 2, four 10-word records per shard:
    // nodes 0..3 (keys 0, 10, 20, 30) live here, nodes 4..7 (keys 40..70)
    // on server 1. Fingers: level 0 links i → i+1, level 1 links
    // 0 → 2 → 4, level 2 links 0 → 4, level 3 is NIL.
    constexpr std::uint64_t kNil = workloads::kIndexNil;
    DiffCase base{ir::KernelKind::kOrderedSearch, {}};
    base.shard = {
        0,  1000, 1, 10, 2,    20,   4,    40,   kNil, kNil,   // node 0
        10, 1010, 2, 20, kNil, kNil, kNil, kNil, kNil, kNil,   // node 1
        20, 1020, 3, 30, 4,    40,   kNil, kNil, kNil, kNil,   // node 2
        30, 1030, 4, 40, kNil, kNil, kNil, kNil, kNil, kNil};  // node 3
    base.shard_size = base.shard.size();
    base.peer_count = 2;
    auto search = [&](std::uint64_t target, std::uint64_t node,
                      std::uint64_t level) {
      DiffCase c = base;
      c.payload = words({target, node, level, 0x7A6});
      return c;
    };
    cases.push_back(search(20, 0, 3));  // in-shard descent, hit
    cases.push_back(search(25, 0, 3));  // in-shard descent, miss
    cases.push_back(search(35, 0, 0));  // three level-0 hops, then a miss
    cases.push_back(search(45, 0, 2));  // down-link leaves the shard
    cases.push_back(search(45, 5, 1));  // arrived at the wrong shard
  }
  {
    // BFS on server 0 of 2 with 4 vertices per shard: the CSR slice
    // [vps][row offsets x 5][cols] has edges 0 → {1, 4}, 1 → {2},
    // 2 → {0, 5}, 3 → {}. Lane 0's cell: 0 visited, 1 bitmap*, 2
    // worklist*, 3 engaged, 4 parent, 5 deficit, 6 parked `from`.
    constexpr std::uint64_t kOrigin = ~0ull;
    auto bfs = [](Bytes payload, std::vector<std::uint64_t> cell) {
      DiffCase c{ir::KernelKind::kBfsFrontier, std::move(payload)};
      c.shard = {4, 0, 2, 3, 5, 5, 1, 4, 2, 0, 5};
      c.shard_size = c.shard.size();
      c.peer_count = 2;
      c.target = std::move(cell);
      c.arena_ptrs = {{1, 0}, {2, 8}};  // bitmap word 0, worklist 8..15
      return c;
    };
    // The seed visit from the origin: the local closure {0, 1, 2} expands
    // through the worklist, 4 and 5 forward, the server engages.
    cases.push_back(bfs(words({0, 0, 0, kOrigin}), {}));
    // A visit to an engaged server is acked right away; a childless visit
    // to a neutral one resolves at once; a mis-routed visit forwards.
    cases.push_back(bfs(words({0, 0, 3, 1}), {0, 0, 0, 1, kOrigin, 1}));
    cases.push_back(bfs(words({0, 0, 3, 1}), {}));
    cases.push_back(bfs(words({0, 0, 6, 1}), {}));
    // Acks [1][lane]: one that leaves children outstanding, one that drains
    // the deficit at the engagement root (origin reply), one that drains it
    // under a parent server (the ack cascades).
    cases.push_back(bfs(words({1, 0}), {0, 0, 0, 1, kOrigin, 2}));
    cases.push_back(bfs(words({1, 0}), {0, 0, 0, 1, kOrigin, 1}));
    cases.push_back(bfs(words({1, 0}), {0, 0, 0, 1, 1, 1}));
  }
  return cases;
}

TEST(KirEvalDifferential, EvaluatorMatchesInterpreterOnEveryObservable) {
  for (const DiffCase& c : differential_cases()) {
    for (bool hll : {false, true}) {
      run_differential(c, hll);
    }
  }
}

TEST(KirEval, CoverageSanity) {
  // The differential matrix is only convincing if the interesting paths
  // actually fire: every sendful kernel must send each way it can.
  struct Sends {
    ir::KernelKind kind;
    bool forwards, replies, injects, remote_writes;
  };
  for (const Sends& want : {
           Sends{ir::KernelKind::kRingHop, true, true, false, false},
           Sends{ir::KernelKind::kChaser, true, true, false, false},
           Sends{ir::KernelKind::kSpawner, false, false, true, false},
           Sends{ir::KernelKind::kRemoteStore, false, true, false, true},
           Sends{ir::KernelKind::kTreeBroadcast, true, false, false, false},
           Sends{ir::KernelKind::kCollectiveBroadcast, true, true, false,
                 false},
           Sends{ir::KernelKind::kCollectiveReduce, true, true, false,
                 false},
           Sends{ir::KernelKind::kHashProbe, true, true, false, false},
           Sends{ir::KernelKind::kOrderedSearch, true, true, false, false},
           Sends{ir::KernelKind::kBfsFrontier, true, true, false, false},
       }) {
    std::size_t forwards = 0, replies = 0, injects = 0, remote_writes = 0;
    for (const DiffCase& c : differential_cases()) {
      if (c.kind != want.kind) continue;
      ir::KernelOptions options;
      options.chaser_tagged =
          want.kind == ir::KernelKind::kChaser && c.payload.size() == 24;
      auto def = prepared_def(want.kind, options);
      ASSERT_TRUE(def.is_ok());
      StubEnv env;
      std::vector<std::uint64_t> shard;
      init_env(env, c, shard);
      Bytes payload = c.payload;
      auto hooks = stub_hooks(env);
      ASSERT_TRUE(
          evaluate(*def, hooks, payload.data(), payload.size()).is_ok());
      forwards += env.forwards.size();
      replies += env.replies.size();
      injects += env.injects.size();
      remote_writes += env.remote_writes.size();
    }
    const char* name = ir::kernel_name(want.kind);
    EXPECT_EQ(forwards > 0, want.forwards) << name;
    EXPECT_EQ(replies > 0, want.replies) << name;
    EXPECT_EQ(injects > 0, want.injects) << name;
    EXPECT_EQ(remote_writes > 0, want.remote_writes) << name;
  }
}

TEST(KirEval, HllGuardsActuallyFire) {
  ir::KernelOptions options;
  options.hll_guards = true;
  auto def = prepared_def(ir::KernelKind::kTargetSideIncrement, options);
  ASSERT_TRUE(def.is_ok());
  StubEnv env;
  Bytes payload{0};
  auto hooks = stub_hooks(env);
  ASSERT_TRUE(evaluate(*def, hooks, payload.data(), payload.size()).is_ok());
  EXPECT_EQ(env.guards, 1u);
}

TEST(KirEval, OpBudgetStopsRunawayKernels) {
  // An infinite ring: ttl never reaches zero because the kernel keeps
  // seeing a fresh payload... simulate by evaluating payload_sum over a
  // large buffer with a tiny budget instead.
  auto def = prepared_def(ir::KernelKind::kPayloadSum, {});
  ASSERT_TRUE(def.is_ok());
  StubEnv env;
  Bytes payload(1024, 1);
  auto hooks = stub_hooks(env);
  EvalOptions options;
  options.max_ops = 16;
  auto r = evaluate(*def, hooks, payload.data(), payload.size(), options);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
}

// --- AM backend ----------------------------------------------------------------

TEST(KirAmBackend, RingHopHandlerRoundTripsOnAFabric) {
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  std::vector<fabric::NodeId> nodes;
  std::vector<std::unique_ptr<am::AmRuntime>> rts;
  for (const char* name : {"a", "b", "c"}) {
    nodes.push_back(fabric.add_node(name));
  }
  auto handler = make_am_handler(ir::KernelKind::kRingHop);
  ASSERT_TRUE(handler.is_ok()) << handler.status().to_string();
  std::uint16_t index = 0;
  for (fabric::NodeId node : nodes) {
    auto rt = am::AmRuntime::create(fabric, node);
    ASSERT_TRUE(rt.is_ok());
    (*rt)->set_peers(nodes);
    auto registered = (*rt)->register_handler(*handler);
    ASSERT_TRUE(registered.is_ok());
    index = *registered;  // predeployment discipline: identical everywhere
    rts.push_back(std::move(rt).value());
  }
  bool done = false;
  std::uint64_t ttl = ~0ull, hops = ~0ull;
  rts[0]->set_result_handler([&](ByteSpan data, fabric::NodeId) {
    ByteReader r(data);
    (void)r.u64(ttl);
    (void)r.u64(hops);
    done = true;
  });
  ByteWriter w;
  w.u64(6);
  w.u64(0);
  ASSERT_TRUE(rts[0]->send(nodes[1], index, as_span(w.bytes())).is_ok());
  ASSERT_TRUE(fabric.run_until([&] { return done; }).is_ok());
  EXPECT_EQ(ttl, 0u);
  EXPECT_EQ(hops, 6u);
}

TEST(KirAmBackend, MalformedPayloadDroppedNotEvaluated) {
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  const auto a = fabric.add_node("a");
  const auto b = fabric.add_node("b");
  auto rt_a = am::AmRuntime::create(fabric, a);
  auto rt_b = am::AmRuntime::create(fabric, b);
  ASSERT_TRUE(rt_a.is_ok());
  ASSERT_TRUE(rt_b.is_ok());
  auto handler = make_am_handler(ir::KernelKind::kRingHop);
  ASSERT_TRUE(handler.is_ok());
  auto idx_a = (*rt_a)->register_handler(*handler);
  auto idx_b = (*rt_b)->register_handler(*handler);
  ASSERT_TRUE(idx_a.is_ok());
  ASSERT_TRUE(idx_b.is_ok());
  ASSERT_EQ(*idx_a, *idx_b);
  bool replied = false;
  (*rt_a)->set_result_handler([&](ByteSpan, fabric::NodeId) {
    replied = true;
  });
  // 8 bytes, below ring_hop's declared 16-byte floor: the handler must
  // warn-and-drop, never evaluate (the def would read past the buffer).
  Bytes runt(8, 0);
  ASSERT_TRUE((*rt_a)->send(b, *idx_a, as_span(runt)).is_ok());
  fabric.run_until_idle();
  EXPECT_FALSE(replied);
}

TEST(KirAmEquivalence, DapcChaserAmMatchesInterpretedValues) {
  // The AM chaser evaluates the KIR def (xrdma/chaser.cpp); the observed
  // chase values must match the interpreted-bytecode pipeline exactly.
  xrdma::DapcConfig config;
  config.depth = 32;
  config.chases = 4;
  config.entries_per_shard = 128;
  std::vector<std::uint64_t> reference;
  for (xrdma::ChaseMode mode :
       {xrdma::ChaseMode::kInterpreted, xrdma::ChaseMode::kActiveMessage}) {
    hetsim::ClusterConfig cc;
    cc.platform = hetsim::Platform::kThorXeon;
    cc.server_count = 4;
    auto cluster = hetsim::Cluster::create(cc);
    ASSERT_TRUE(cluster.is_ok());
    auto driver = xrdma::DapcDriver::create(**cluster, mode, config);
    ASSERT_TRUE(driver.is_ok()) << driver.status().to_string();
    auto result = (*driver)->run();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->correct, result->completed);
    if (reference.empty()) {
      reference = result->values;
    } else {
      EXPECT_EQ(result->values, reference);
    }
  }
}

TEST(KirAmEquivalence, HashProbeAmMatchesPortableOnAllTransports) {
  for (hetsim::Backend backend :
       {hetsim::Backend::kSim, hetsim::Backend::kShm,
        hetsim::Backend::kSocket}) {
    std::vector<std::uint64_t> reference;
    for (workloads::WorkloadMode mode :
         {workloads::WorkloadMode::kPortable,
          workloads::WorkloadMode::kActiveMessage}) {
      hetsim::ClusterConfig cc;
      cc.platform = hetsim::Platform::kThorXeon;
      cc.backend = backend;
      cc.server_count = 4;
      auto cluster = hetsim::Cluster::create(cc);
      ASSERT_TRUE(cluster.is_ok());
      workloads::WorkloadConfig config;
      config.workload = workloads::Workload::kHashProbe;
      config.buckets_per_shard = 32;
      config.mode = mode;
      auto engine = workloads::WorkloadEngine::create(**cluster, config);
      ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
      const auto queries = (*engine)->sample_queries(0, 24, 70);
      auto result = (*engine)->run_lookups(queries);
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(result->values[i], (*engine)->expected_lookup(queries[i]))
            << "query " << i;
      }
      if (reference.empty()) {
        reference = result->values;
      } else {
        EXPECT_EQ(result->values, reference)
            << hetsim::backend_name(backend);
      }
    }
  }
}

// --- kir→llvm backend (ORC end to end) -----------------------------------------

#if TC_WITH_LLVM

TEST(KirHll, TaggedRejectedForNonChaserKernels) {
  auto lib = hll::build_library(ir::KernelKind::kPayloadSum,
                                /*drive_with_c=*/false, /*tagged=*/true);
  ASSERT_FALSE(lib.is_ok());
  EXPECT_EQ(lib.status().code(), ErrorCode::kInvalidArgument);
  // The chaser itself still accepts it.
  auto chaser = hll::build_library(ir::KernelKind::kChaser,
                                   /*drive_with_c=*/false, /*tagged=*/true);
  EXPECT_TRUE(chaser.is_ok()) << chaser.status().to_string();
  // The bitcode builders and the library built from them reject it too: no
  // untagged module under a tagged (`_w`) wire name.
  ir::KernelOptions tagged;
  tagged.chaser_tagged = true;
  llvm::LLVMContext context;
  auto module = build_kir_module(context, ir::KernelKind::kHashProbe,
                                 ir::host_descriptor(), tagged);
  ASSERT_FALSE(module.is_ok());
  EXPECT_EQ(module.status().code(), ErrorCode::kInvalidArgument);
  auto archive = build_default_kir_fat_kernel(ir::KernelKind::kHashProbe,
                                              tagged);
  ASSERT_FALSE(archive.is_ok());
  EXPECT_EQ(archive.status().code(), ErrorCode::kInvalidArgument);
  auto bitcode_lib =
      core::IfuncLibrary::from_kernel(ir::KernelKind::kHashProbe, tagged);
  ASSERT_FALSE(bitcode_lib.is_ok());
  EXPECT_EQ(bitcode_lib.status().code(), ErrorCode::kInvalidArgument);
  auto chaser_module = build_kir_module(context, ir::KernelKind::kChaser,
                                        ir::host_descriptor(), tagged);
  EXPECT_TRUE(chaser_module.is_ok()) << chaser_module.status().to_string();
  auto chaser_archive =
      build_default_kir_fat_kernel(ir::KernelKind::kChaser, tagged);
  EXPECT_TRUE(chaser_archive.is_ok()) << chaser_archive.status().to_string();
}

/// Atomic instructions in one decoded module: how many, and how many of
/// them are `store atomic ... release, align 8`.
struct AtomicCensus {
  unsigned atomics = 0;
  unsigned release_stores = 0;
};

AtomicCensus atomic_census(const llvm::Module& module) {
  AtomicCensus census;
  for (const llvm::Function& fn : module) {
    for (const llvm::BasicBlock& bb : fn) {
      for (const llvm::Instruction& inst : bb) {
        if (!inst.isAtomic()) continue;
        ++census.atomics;
        const auto* store = llvm::dyn_cast<llvm::StoreInst>(&inst);
        if (store != nullptr &&
            store->getOrdering() == llvm::AtomicOrdering::Release &&
            store->getAlign() == llvm::Align(8)) {
          ++census.release_stores;
        }
      }
    }
  }
  return census;
}

TEST(KirLlvmBackend, ShippedBitcodeReleasesOnlyTheBroadcastSlotWords) {
  // tree_broadcast and coll_bcast publish {value, arrivals} to a poller on
  // another thread (xrdma::BroadcastSlot, the collective cells), so those
  // two stores are release-ordered. Nothing else in any shipped module is
  // atomic: the other kernels keep plain, optimizable accesses.
  ir::KernelOptions hll;
  hll.hll_guards = true;
  for (int k = 0; k < ir::kKernelKindCount; ++k) {
    const auto kind = static_cast<ir::KernelKind>(k);
    const unsigned expected =
        kind == ir::KernelKind::kTreeBroadcast ||
                kind == ir::KernelKind::kCollectiveBroadcast
            ? 2
            : 0;
    for (const ir::KernelOptions& options : {ir::KernelOptions{}, hll}) {
      auto library = core::IfuncLibrary::from_stock_kernel(
          kind, ir::CodeRepr::kBitcode, options);
      ASSERT_TRUE(library.is_ok()) << library.status().to_string();
      for (const ir::ArchiveEntry& entry : library->archive().entries()) {
        llvm::LLVMContext context;
        auto module = ir::bitcode_to_module(as_span(entry.code), context);
        ASSERT_TRUE(module.is_ok()) << module.status().to_string();
        const AtomicCensus census = atomic_census(**module);
        EXPECT_EQ(census.atomics, expected)
            << library->name() << " on " << entry.target.triple;
        EXPECT_EQ(census.release_stores, expected)
            << library->name() << " on " << entry.target.triple;
      }
    }
  }
}

TEST(KirLlvmBackend, FatArchivesBuildForEveryPortedKernel) {
  for (int k = 0; k < ir::kKernelKindCount; ++k) {
    const auto kind = static_cast<ir::KernelKind>(k);
    auto archive = build_default_kir_fat_kernel(kind);
    ASSERT_TRUE(archive.is_ok())
        << ir::kernel_name(kind) << ": " << archive.status().to_string();
    EXPECT_EQ(archive->repr(), ir::CodeRepr::kBitcode);
    EXPECT_EQ(archive->entries().size(), ir::default_fat_targets().size());
  }
}

/// JIT the kir→llvm emission of a target-only kernel through ORC and
/// compare every observable against the evaluator on the same def, both
/// starting from the same target words.
void run_jit_differential(ir::KernelKind kind, const Bytes& payload,
                          const std::vector<std::uint64_t>& target = {}) {
  auto def = prepared_def(kind, {});
  ASSERT_TRUE(def.is_ok());
  llvm::LLVMContext context;
  auto module = build_kir_module(context, *def, ir::host_descriptor());
  ASSERT_TRUE(module.is_ok()) << module.status().to_string();
  const Bytes bitcode = ir::module_to_bitcode(**module);

  jit::EngineOptions options;
  options.extra_symbols = core::runtime_hook_symbols();
  auto engine = jit::OrcEngine::create(options);
  ASSERT_TRUE(engine.is_ok());
  auto entry = (*engine)->add_ifunc_bitcode(def->name, as_span(bitcode),
                                            {"libm.so.6"});
  ASSERT_TRUE(entry.is_ok()) << entry.status().to_string();

  std::array<std::uint64_t, 8> jit_target = {};
  std::copy(target.begin(), target.end(), jit_target.begin());
  core::ExecContext ctx;
  ctx.target_ptr = jit_target.data();
  Bytes jit_payload = payload;
  (*entry)(&ctx, jit_payload.data(), jit_payload.size());

  StubEnv env;
  std::copy(target.begin(), target.end(), env.target);
  Bytes eval_payload = payload;
  auto hooks = stub_hooks(env);
  auto r = evaluate(*def, hooks, eval_payload.data(), eval_payload.size());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();

  EXPECT_EQ(jit_payload, eval_payload)
      << def->name << ": payload mutation diverged";
  for (int w = 0; w < 8; ++w) {
    EXPECT_EQ(jit_target[w], env.target[w])
        << def->name << ": target word " << w;
  }
}

TEST(KirLlvmBackend, TargetOnlyKernelsBitIdenticalUnderJit) {
  run_jit_differential(ir::KernelKind::kTargetSideIncrement, Bytes{0});
  run_jit_differential(ir::KernelKind::kPayloadSum,
                       Bytes{3, 1, 4, 1, 5, 9, 2, 6, 255, 0, 128});
  ByteWriter w;
  const std::vector<double> xs = {0.5, -1.25, 3.75, 1e-3, 9.5, -2e6};
  w.u64(xs.size());
  for (double x : xs) w.f64(x);
  run_jit_differential(ir::KernelKind::kVecReduce, w.bytes());
  run_jit_differential(ir::KernelKind::kSinSum, w.bytes());
  run_jit_differential(ir::KernelKind::kStatsSummary, w.bytes(),
                       {f64_word(3.0), f64_word(-0.5), f64_word(2.25)});
  ByteWriter saxpy;
  const std::vector<float> sx = {0.5f, -1.25f, 3.75f, 1e-3f, 9.5f, -2e6f};
  saxpy.u64(sx.size());
  saxpy.u32(std::bit_cast<std::uint32_t>(-1.5f));
  for (float x : sx) saxpy.u32(std::bit_cast<std::uint32_t>(x));
  for (float x : sx) saxpy.u32(std::bit_cast<std::uint32_t>(x * 0.25f));
  run_jit_differential(ir::KernelKind::kSaxpy, std::move(saxpy).take());
}

StatusOr<core::IfuncLibrary> kir_host_library(std::string name,
                                              ir::KernelKind kind) {
  const std::array<ir::TargetDescriptor, 1> targets = {
      ir::host_descriptor()};
  TC_ASSIGN_OR_RETURN(ir::FatBitcode archive,
                      build_kir_fat_kernel(kind, targets));
  return core::IfuncLibrary::from_archive(std::move(name),
                                          std::move(archive));
}

TEST(KirLlvmBackend, RingHopForwardsAndRepliesThroughTheRuntime) {
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  std::vector<fabric::NodeId> nodes;
  for (const char* name : {"n0", "n1", "n2"}) {
    nodes.push_back(fabric.add_node(name));
  }
  std::vector<std::unique_ptr<core::Runtime>> rts;
  for (fabric::NodeId node : nodes) {
    auto rt = core::Runtime::create(fabric, node);
    ASSERT_TRUE(rt.is_ok());
    (*rt)->set_peers(nodes);
    rts.push_back(std::move(rt).value());
  }
  auto lib = kir_host_library("kir_ring_hop", ir::KernelKind::kRingHop);
  ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
  auto id = rts[0]->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  bool done = false;
  std::uint64_t hops = 0;
  rts[0]->set_result_handler([&](ByteSpan data, fabric::NodeId) {
    ByteReader r(data);
    std::uint64_t ttl = 0;
    (void)r.u64(ttl);
    (void)r.u64(hops);
    done = true;
  });
  ByteWriter w;
  w.u64(6);
  w.u64(0);
  ASSERT_TRUE(rts[0]->send_ifunc(nodes[1], *id, as_span(w.bytes())).is_ok());
  ASSERT_TRUE(fabric.run_until([&] { return done; }).is_ok());
  EXPECT_EQ(hops, 6u);
}

TEST(KirLlvmBackend, ChaserChainsAcrossShardsUnderJit) {
  // Two servers, 4-entry shards: server 0 owns addresses 0..3, server 1
  // owns 4..7. The chain 0 → 5 → 2 crosses shards twice before the depth
  // drains, so the JIT'd KIR chaser exercises self-forward, shard reads
  // and the final reply.
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  const auto client = fabric.add_node("client");
  const auto s0 = fabric.add_node("s0");
  const auto s1 = fabric.add_node("s1");
  const std::vector<fabric::NodeId> servers = {s0, s1};

  auto rt_client = core::Runtime::create(fabric, client);
  auto rt_s0 = core::Runtime::create(fabric, s0);
  auto rt_s1 = core::Runtime::create(fabric, s1);
  ASSERT_TRUE(rt_client.is_ok());
  ASSERT_TRUE(rt_s0.is_ok());
  ASSERT_TRUE(rt_s1.is_ok());

  std::vector<std::uint64_t> shard0 = {5, 0, 42, 0};
  std::vector<std::uint64_t> shard1 = {0, 2, 0, 0};
  (*rt_s0)->set_peers(servers);
  (*rt_s1)->set_peers(servers);
  (*rt_s0)->set_shard(shard0.data(), shard0.size());
  (*rt_s1)->set_shard(shard1.data(), shard1.size());

  auto lib = kir_host_library("kir_dapc_chaser", ir::KernelKind::kChaser);
  ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
  auto id = (*rt_client)->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  bool done = false;
  std::uint64_t value = 0;
  (*rt_client)->set_result_handler([&](ByteSpan data, fabric::NodeId) {
    ByteReader r(data);
    (void)r.u64(value);
    done = true;
  });
  ByteWriter w;
  w.u64(0);  // address: owned by server 0
  w.u64(3);  // depth: 0 → 5 → 2, reply the value stored at 2
  ASSERT_TRUE(
      (*rt_client)->send_ifunc(s0, *id, as_span(w.bytes())).is_ok());
  ASSERT_TRUE(fabric.run_until([&] { return done; }).is_ok());
  EXPECT_EQ(value, 42u);
}

TEST(KirLlvmBackend, HashProbeForwardsAndHitsUnderJit) {
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  const auto client = fabric.add_node("client");
  const auto s0 = fabric.add_node("s0");
  const auto s1 = fabric.add_node("s1");
  const std::vector<fabric::NodeId> servers = {s0, s1};

  auto rt_client = core::Runtime::create(fabric, client);
  auto rt_s0 = core::Runtime::create(fabric, s0);
  auto rt_s1 = core::Runtime::create(fabric, s1);
  ASSERT_TRUE(rt_client.is_ok());
  ASSERT_TRUE(rt_s0.is_ok());
  ASSERT_TRUE(rt_s1.is_ok());

  // 4 buckets per shard ([key][value] pairs); key 100 lives in global
  // slot 5, i.e. server 1's bucket 1.
  std::vector<std::uint64_t> shard0(8, 0);
  std::vector<std::uint64_t> shard1 = {0, 0, 100, 111, 0, 0, 0, 0};
  (*rt_s0)->set_peers(servers);
  (*rt_s1)->set_peers(servers);
  (*rt_s0)->set_shard(shard0.data(), shard0.size());
  (*rt_s1)->set_shard(shard1.data(), shard1.size());

  auto lib = kir_host_library("kir_hash_probe", ir::KernelKind::kHashProbe);
  ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
  auto id = (*rt_client)->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  bool done = false;
  std::uint64_t value = 0, tag = 0;
  (*rt_client)->set_result_handler([&](ByteSpan data, fabric::NodeId) {
    ByteReader r(data);
    (void)r.u64(value);
    (void)r.u64(tag);
    done = true;
  });
  ByteWriter w;
  w.u64(100);  // key
  w.u64(5);    // slot: owned by server 1 → the first hop forwards
  w.u64(3);    // probe budget
  w.u64(77);   // tag
  ASSERT_TRUE(
      (*rt_client)->send_ifunc(s0, *id, as_span(w.bytes())).is_ok());
  ASSERT_TRUE(fabric.run_until([&] { return done; }).is_ok());
  EXPECT_EQ(value, 111u);
  EXPECT_EQ(tag, 77u);
}

#endif  // TC_WITH_LLVM

}  // namespace
}  // namespace tc::kir
