// Tests for the single-source kernel frontend (src/kir/): catalogue
// completeness, verifier rejections of the lockstep bug classes, the pinned
// size and fnv1a64 of every portable program vm::lower_kernel serves,
// differential execution of the evaluator (the AM backend's engine) against
// the interpreter, AM-mode equivalence on live clusters, and — with LLVM —
// the kir→llvm backend run end to end through ORC.
#include <gtest/gtest.h>

#include <array>
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
#include "core/context.hpp"
#include "core/runtime.hpp"
#include "hll/frontend.hpp"
#include "ir/bitcode.hpp"
#include "ir/kernel_builder.hpp"
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
    // has_kernel_def is the registry of ported kernels: a kind it names must
    // have a definition that builds and verifies, and no other kind may.
    auto def = kernel_def(kind, {});
    if (has_kernel_def(kind)) {
      EXPECT_TRUE(def.is_ok())
          << ir::kernel_name(kind) << ": " << def.status().to_string();
    } else {
      EXPECT_EQ(def.status().code(), ErrorCode::kNotFound)
          << ir::kernel_name(kind);
    }
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

TEST(KirCatalogue, PortedSetIsExactlyTheSixKernels) {
  const std::vector<ir::KernelKind> ported = {
      ir::KernelKind::kTargetSideIncrement, ir::KernelKind::kPayloadSum,
      ir::KernelKind::kVecReduce,           ir::KernelKind::kRingHop,
      ir::KernelKind::kChaser,              ir::KernelKind::kHashProbe,
  };
  std::size_t kir_count = 0;
  for (int k = 0; k < ir::kKernelKindCount; ++k) {
    if (has_kernel_def(static_cast<ir::KernelKind>(k))) ++kir_count;
  }
  EXPECT_EQ(kir_count, ported.size());
  for (ir::KernelKind kind : ported) {
    EXPECT_TRUE(has_kernel_def(kind)) << ir::kernel_name(kind);
  }
}

TEST(KirCatalogue, TaggedRejectedForNonChaserPortableKernels) {
  // chaser_tagged names a chaser variant only; for any other kernel the
  // portable frontend must refuse rather than ship the untagged program
  // under a tagged (`_w`) wire name.
  ir::KernelOptions tagged;
  tagged.chaser_tagged = true;
  for (int k = 0; k < ir::kKernelKindCount; ++k) {
    const auto kind = static_cast<ir::KernelKind>(k);
    auto program = vm::lower_kernel(kind, tagged);
    auto library = core::IfuncLibrary::from_portable_kernel(kind, tagged);
    if (kind == ir::KernelKind::kChaser) {
      EXPECT_TRUE(program.is_ok()) << program.status().to_string();
      EXPECT_TRUE(library.is_ok()) << library.status().to_string();
      continue;
    }
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
  std::uint64_t target[4] = {};
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

/// One differential case: identical env + payload through the evaluator
/// (kir defs) and the interpreter (the production vm::lower_kernel
/// bytecode); every observable — target, payload mutation, forwards,
/// replies, guard count — must match.
struct DiffCase {
  ir::KernelKind kind;
  Bytes payload;
  std::vector<std::uint64_t> shard;
  std::uint64_t shard_size = 0;
  std::uint64_t self_peer = 0;
  std::uint64_t peer_count = 0;
};

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
  std::vector<std::uint64_t> kir_shard = c.shard;
  std::vector<std::uint64_t> vm_shard = c.shard;
  kir_env.shard = kir_shard.data();
  vm_env.shard = vm_shard.data();
  kir_env.shard_size = vm_env.shard_size = c.shard_size;
  kir_env.self_peer = vm_env.self_peer = c.self_peer;
  kir_env.peer_count = vm_env.peer_count = c.peer_count;

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
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(kir_env.target[w], vm_env.target[w])
        << label << ": target word " << w;
  }
  EXPECT_EQ(kir_shard, vm_shard) << label << ": shard mutation diverged";
  EXPECT_EQ(kir_env.guards, vm_env.guards) << label << ": guard count";
  ASSERT_EQ(kir_env.forwards.size(), vm_env.forwards.size()) << label;
  for (std::size_t i = 0; i < kir_env.forwards.size(); ++i) {
    EXPECT_EQ(kir_env.forwards[i].peer, vm_env.forwards[i].peer) << label;
    EXPECT_EQ(kir_env.forwards[i].payload, vm_env.forwards[i].payload)
        << label;
  }
  EXPECT_EQ(kir_env.replies, vm_env.replies) << label;
  // The plain variant must never guard. (Whether the hll variant guards
  // depends on the path taken — KirEval.HllGuardsActuallyFire pins the
  // positive case.)
  if (!hll) {
    EXPECT_EQ(kir_env.guards, 0u) << label;
  }
}

std::vector<DiffCase> differential_cases() {
  std::vector<DiffCase> cases;
  cases.push_back({ir::KernelKind::kTargetSideIncrement, Bytes{0}});
  cases.push_back(
      {ir::KernelKind::kPayloadSum, Bytes{3, 1, 4, 1, 5, 9, 250, 255}});
  {
    ByteWriter w;
    const std::vector<double> xs = {1.5, -2.25, 4.0, 1e9, 3.125};
    w.u64(xs.size());
    for (double x : xs) w.f64(x);
    cases.push_back({ir::KernelKind::kVecReduce, std::move(w).take()});
  }
  {
    // Ring hop with live TTL: decrement, forward to the next peer.
    ByteWriter w;
    w.u64(5);  // ttl
    w.u64(2);  // hops so far
    DiffCase c{ir::KernelKind::kRingHop, std::move(w).take()};
    c.self_peer = 1;
    c.peer_count = 3;
    cases.push_back(c);
    // Drained TTL: reply.
    ByteWriter w2;
    w2.u64(0);
    w2.u64(7);
    DiffCase done{ir::KernelKind::kRingHop, std::move(w2).take()};
    done.self_peer = 1;
    done.peer_count = 3;
    cases.push_back(done);
  }
  {
    // Chaser over a 4-entry shard owned by peer 1 (addresses 4..7):
    // two local hops, then the chain leaves the shard → forward.
    DiffCase c{ir::KernelKind::kChaser, {}};
    ByteWriter w;
    w.u64(5);  // address
    w.u64(3);  // depth
    c.payload = std::move(w).take();
    c.shard = {6, 7, 4, 12};
    c.shard_size = 4;
    c.self_peer = 1;
    c.peer_count = 4;
    cases.push_back(c);
    // Same shard, depth drains locally → reply. Classic and tagged.
    DiffCase done = c;
    ByteWriter w2;
    w2.u64(5);
    w2.u64(1);
    done.payload = std::move(w2).take();
    cases.push_back(done);
    DiffCase tagged = c;
    ByteWriter w3;
    w3.u64(5);
    w3.u64(2);
    w3.u64(0xBEEF);  // window tag
    tagged.payload = std::move(w3).take();
    cases.push_back(tagged);
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
      ByteWriter w;
      w.u64(key);
      w.u64(slot);
      w.u64(probes);
      w.u64(tag);
      DiffCase c = base;
      c.payload = std::move(w).take();
      return c;
    };
    cases.push_back(probe(100, 0, 3, 9));  // hit in the first bucket
    cases.push_back(probe(500, 1, 3, 9));  // empty bucket → miss
    cases.push_back(probe(500, 2, 1, 9));  // probe budget drains → miss
    cases.push_back(probe(500, 3, 4, 9));  // linear probe leaves the shard
                                           // → forward to peer 1
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
  // actually fire: at least one forward and one reply per sendful kernel.
  for (ir::KernelKind kind :
       {ir::KernelKind::kRingHop, ir::KernelKind::kChaser,
        ir::KernelKind::kHashProbe}) {
    std::size_t forwards = 0, replies = 0;
    for (const DiffCase& c : differential_cases()) {
      if (c.kind != kind) continue;
      ir::KernelOptions options;
      options.chaser_tagged =
          kind == ir::KernelKind::kChaser && c.payload.size() == 24;
      auto def = prepared_def(kind, options);
      ASSERT_TRUE(def.is_ok());
      StubEnv env;
      std::vector<std::uint64_t> shard = c.shard;
      env.shard = shard.data();
      env.shard_size = c.shard_size;
      env.self_peer = c.self_peer;
      env.peer_count = c.peer_count;
      Bytes payload = c.payload;
      auto hooks = stub_hooks(env);
      ASSERT_TRUE(
          evaluate(*def, hooks, payload.data(), payload.size()).is_ok());
      forwards += env.forwards.size();
      replies += env.replies.size();
    }
    EXPECT_GT(forwards, 0u) << ir::kernel_name(kind);
    EXPECT_GT(replies, 0u) << ir::kernel_name(kind);
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
  ASSERT_TRUE(has_kernel_def(ir::KernelKind::kChaser));
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
  ASSERT_TRUE(has_kernel_def(ir::KernelKind::kHashProbe));
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
  // The bitcode builder and the library built from it reject it too: no
  // untagged module under a tagged (`_w`) wire name.
  ir::KernelOptions tagged;
  tagged.chaser_tagged = true;
  llvm::LLVMContext context;
  auto module = ir::build_kernel(context, ir::KernelKind::kHashProbe,
                                 ir::host_descriptor(), tagged);
  ASSERT_FALSE(module.is_ok());
  EXPECT_EQ(module.status().code(), ErrorCode::kInvalidArgument);
  auto bitcode_lib =
      core::IfuncLibrary::from_kernel(ir::KernelKind::kHashProbe, tagged);
  ASSERT_FALSE(bitcode_lib.is_ok());
  EXPECT_EQ(bitcode_lib.status().code(), ErrorCode::kInvalidArgument);
  auto chaser_module = ir::build_kernel(context, ir::KernelKind::kChaser,
                                        ir::host_descriptor(), tagged);
  EXPECT_TRUE(chaser_module.is_ok()) << chaser_module.status().to_string();
}

TEST(KirLlvmBackend, FatArchivesBuildForEveryPortedKernel) {
  for (int k = 0; k < ir::kKernelKindCount; ++k) {
    const auto kind = static_cast<ir::KernelKind>(k);
    if (!has_kernel_def(kind)) continue;
    auto archive = build_default_kir_fat_kernel(kind);
    ASSERT_TRUE(archive.is_ok())
        << ir::kernel_name(kind) << ": " << archive.status().to_string();
    EXPECT_EQ(archive->repr(), ir::CodeRepr::kBitcode);
    EXPECT_EQ(archive->entries().size(), ir::default_fat_targets().size());
  }
}

/// JIT the kir→llvm emission of a target-only kernel through ORC and
/// compare every observable against the evaluator on the same def.
void run_jit_differential(ir::KernelKind kind, const Bytes& payload) {
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

  std::array<std::uint64_t, 4> jit_target = {};
  core::ExecContext ctx;
  ctx.target_ptr = jit_target.data();
  Bytes jit_payload = payload;
  (*entry)(&ctx, jit_payload.data(), jit_payload.size());

  StubEnv env;
  Bytes eval_payload = payload;
  auto hooks = stub_hooks(env);
  auto r = evaluate(*def, hooks, eval_payload.data(), eval_payload.size());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();

  EXPECT_EQ(jit_payload, eval_payload)
      << def->name << ": payload mutation diverged";
  for (int w = 0; w < 4; ++w) {
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
  run_jit_differential(ir::KernelKind::kVecReduce, std::move(w).take());
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
