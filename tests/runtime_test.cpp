// End-to-end tests of the Three-Chains runtime: registration, the message
// workflow, both-side caching, auto-registration of received code, binary
// vs bitcode representations, recursive self-propagation (ring), and
// code-that-injects-code (spawner).
#include <gtest/gtest.h>

#include <cmath>

#include "core/runtime.hpp"
#include "hll/frontend.hpp"
#include "jit/compiler.hpp"
#include "kir/llvm_backend.hpp"

namespace tc::core {
namespace {

using fabric::Fabric;
using fabric::NodeId;

/// Two-node harness with functional (instant) links and measured costs.
class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_.set_default_link(fabric::instant_link());
    a_ = fabric_.add_node("a");
    b_ = fabric_.add_node("b");
    rt_a_ = create_runtime(a_);
    rt_b_ = create_runtime(b_);
  }

  std::unique_ptr<Runtime> create_runtime(NodeId node,
                                          RuntimeOptions options = {}) {
    auto rt = Runtime::create(fabric_, node, options);
    EXPECT_TRUE(rt.is_ok()) << rt.status().to_string();
    return std::move(rt).value();
  }

  IfuncLibrary make_library(ir::KernelKind kind) {
    auto lib = IfuncLibrary::from_kernel(kind);
    EXPECT_TRUE(lib.is_ok()) << lib.status().to_string();
    return std::move(lib).value();
  }

  Fabric fabric_;
  NodeId a_ = 0, b_ = 0;
  std::unique_ptr<Runtime> rt_a_, rt_b_;
};

TEST_F(RuntimeTest, RegistrationLifecycle) {
  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement));
  ASSERT_TRUE(id.is_ok());
  EXPECT_TRUE(rt_a_->is_registered(*id));
  EXPECT_EQ(*rt_a_->ifunc_id_by_name("tsi"), *id);
  EXPECT_EQ(*id, ifunc_id_for_name("tsi"));

  // Duplicate registration rejected.
  auto dup = rt_a_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement));
  EXPECT_EQ(dup.status().code(), ErrorCode::kAlreadyExists);

  ASSERT_TRUE(rt_a_->deregister_ifunc(*id).is_ok());
  EXPECT_FALSE(rt_a_->is_registered(*id));
  EXPECT_EQ(rt_a_->deregister_ifunc(*id).code(), ErrorCode::kNotFound);
}

TEST_F(RuntimeTest, SendRequiresRegistration) {
  Bytes payload{1};
  Status s = rt_a_->send_ifunc(b_, 12345, as_span(payload));
  EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RuntimeTest, TsiEndToEnd) {
  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement));
  ASSERT_TRUE(id.is_ok());

  std::uint64_t counter = 0;
  rt_b_->set_target_ptr(&counter);

  Bytes payload{0};
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(counter, 1u);
  EXPECT_EQ(rt_b_->stats().frames_executed, 1u);
  EXPECT_EQ(rt_b_->stats().auto_registered, 1u);
  EXPECT_EQ(rt_b_->stats().jit_compiles, 1u);

  // Second send: truncated frame, no new JIT.
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(counter, 2u);
  EXPECT_EQ(rt_b_->stats().jit_compiles, 1u);
  EXPECT_EQ(rt_a_->stats().frames_sent_full, 1u);
  EXPECT_EQ(rt_a_->stats().frames_sent_truncated, 1u);
  EXPECT_GT(rt_a_->stats().code_bytes_saved, 1000u);
}

TEST_F(RuntimeTest, CachingIsPerEndpoint) {
  const NodeId c = fabric_.add_node("c");
  auto rt_c = create_runtime(c);
  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement));
  ASSERT_TRUE(id.is_ok());
  std::uint64_t counter_b = 0, counter_c = 0;
  rt_b_->set_target_ptr(&counter_b);
  rt_c->set_target_ptr(&counter_c);

  Bytes payload{0};
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  // b has the code now, c does not: sending to c must be a full frame.
  ASSERT_TRUE(rt_a_->send_ifunc(c, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(counter_b, 1u);
  EXPECT_EQ(counter_c, 1u);
  EXPECT_EQ(rt_a_->stats().frames_sent_full, 2u);
  EXPECT_EQ(rt_a_->stats().frames_sent_truncated, 0u);
}

TEST_F(RuntimeTest, WireSizeShrinksWhenCached) {
  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement));
  ASSERT_TRUE(id.is_ok());
  std::uint64_t counter = 0;
  rt_b_->set_target_ptr(&counter);

  Bytes payload{0};
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  const std::uint64_t first_bytes = fabric_.stats().bytes_on_wire;
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  const std::uint64_t second_bytes =
      fabric_.stats().bytes_on_wire - first_bytes;
  // Paper §V-A scale: kilobytes full vs tens of bytes truncated (our TSI
  // fat archive is ~3.2 KB; the paper's clang-built one was 5159 B).
  EXPECT_GT(first_bytes, 2500u);
  EXPECT_LT(second_bytes, 100u);
}

TEST_F(RuntimeTest, NackRecoveryReplaysStashedPayload) {
  // Cache-miss recovery extension: the receiver gets a
  // truncated frame for code it never saw, NACKs, the sender re-ships the
  // archive in a code-only frame, and the stashed payload finally runs.
  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement));
  ASSERT_TRUE(id.is_ok());
  std::uint64_t counter = 0;
  rt_b_->set_target_ptr(&counter);

  auto frame = rt_a_->create_message(*id, as_span(Bytes{0}));
  ASSERT_TRUE(frame.is_ok());
  // Simulate a sender that wrongly believes b has the code (e.g. b lost its
  // cache in a restart): raw truncated send, bypassing the sent-table.
  fabric_.post_send(a_, b_, frame->truncated_view(), 1, {});
  fabric_.run_until_idle();

  EXPECT_EQ(counter, 1u);
  EXPECT_EQ(rt_b_->stats().nacks_sent, 1u);
  EXPECT_EQ(rt_a_->stats().nacks_received, 1u);
  EXPECT_EQ(rt_b_->stats().frames_executed, 1u);
  EXPECT_EQ(rt_b_->stats().protocol_errors, 0u);
}

TEST_F(RuntimeTest, NackForUnknownIfuncAtSenderIsError) {
  fabric_.post_send(a_, b_, as_span(encode_nack_frame(0xDEAD)), 1, {});
  fabric_.run_until_idle();
  EXPECT_EQ(rt_b_->stats().protocol_errors, 1u);
}

TEST_F(RuntimeTest, CacheEvictionRecompilesFromArchive) {
  // Bounded code cache: with capacity 1, registering a second ifunc evicts
  // the first; resending the first recompiles from the retained archive.
  RuntimeOptions options;
  options.cache_capacity = 1;
  rt_b_.reset();
  auto rt_b2 = create_runtime(b_, options);

  auto tsi = rt_a_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement));
  auto sum = rt_a_->register_ifunc(make_library(ir::KernelKind::kPayloadSum));
  ASSERT_TRUE(tsi.is_ok());
  ASSERT_TRUE(sum.is_ok());
  std::uint64_t target = 0;
  rt_b2->set_target_ptr(&target);

  Bytes payload{2};
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *tsi, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(target, 1u);
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *sum, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(target, 2u);  // payload_sum of {2}
  EXPECT_EQ(rt_b2->stats().cache_evictions, 1u);

  // TSI was evicted; this (truncated) resend must recompile, not crash.
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *tsi, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(target, 3u);
  EXPECT_EQ(rt_b2->stats().jit_compiles, 3u);
}

TEST_F(RuntimeTest, SinSumLinksAgainstLibmDependency) {
  // The deps-manifest workflow end to end: the shipped bitcode calls sin()
  // and the receiving JIT resolves it from the declared libm dependency.
  auto lib = make_library(ir::KernelKind::kSinSum);
  EXPECT_EQ(lib.archive().dependencies().size(), 1u);
  auto id = rt_a_->register_ifunc(std::move(lib));
  ASSERT_TRUE(id.is_ok());

  constexpr std::uint64_t n = 32;
  ByteWriter w;
  w.u64(n);
  double expected = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const double x = 0.1 * static_cast<double>(i);
    expected += std::sin(x);
    w.f64(x);
  }
  double out = 0;
  rt_b_->set_target_ptr(&out);
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(w.bytes())).is_ok());
  fabric_.run_until_idle();
  EXPECT_NEAR(out, expected, 1e-9);
}

TEST_F(RuntimeTest, RemoteStoreWritesPeerSegment) {
  // X-RDMA: injected code issues a one-sided write into a third node's
  // exposed segment, then replies with the hook status.
  const NodeId c = fabric_.add_node("c");
  auto rt_c = create_runtime(c);
  std::vector<NodeId> peers{a_, b_, c};
  rt_a_->set_peers(peers);
  rt_b_->set_peers(peers);
  rt_c->set_peers(peers);

  std::uint64_t window[8] = {};
  ASSERT_TRUE(rt_c->expose_segment(window, sizeof(window)).is_ok());

  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kRemoteStore));
  ASSERT_TRUE(id.is_ok());

  std::int64_t rc = -1;
  bool done = false;
  rt_a_->set_result_handler([&](ByteSpan data, NodeId) {
    ByteReader r(data);
    std::uint64_t rc_u = 0;
    ASSERT_TRUE(r.u64(rc_u).is_ok());
    rc = static_cast<std::int64_t>(rc_u);
    done = true;
  });

  ByteWriter w;
  w.u64(2);                    // peer index of c
  w.u64(3 * sizeof(std::uint64_t));  // byte offset into the window
  w.u64(0xFEEDFACE);           // value
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(w.bytes())).is_ok());
  ASSERT_TRUE(fabric_.run_until([&] { return done; }).is_ok());
  fabric_.run_until_idle();  // let the PUT land

  EXPECT_EQ(rc, 0);
  EXPECT_EQ(window[3], 0xFEEDFACEull);
  EXPECT_EQ(rt_b_->stats().remote_writes, 1u);
}

TEST_F(RuntimeTest, RemoteStoreOutOfBoundsReportsFailure) {
  const NodeId c = fabric_.add_node("c");
  auto rt_c = create_runtime(c);
  std::vector<NodeId> peers{a_, b_, c};
  for (auto* rt : {rt_a_.get(), rt_b_.get(), rt_c.get()}) rt->set_peers(peers);

  std::uint64_t window[2] = {};
  ASSERT_TRUE(rt_c->expose_segment(window, sizeof(window)).is_ok());
  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kRemoteStore));
  ASSERT_TRUE(id.is_ok());

  std::int64_t rc = 0;
  bool done = false;
  rt_a_->set_result_handler([&](ByteSpan data, NodeId) {
    ByteReader r(data);
    std::uint64_t rc_u = 0;
    ASSERT_TRUE(r.u64(rc_u).is_ok());
    rc = static_cast<std::int64_t>(rc_u);
    done = true;
  });

  ByteWriter w;
  w.u64(2);
  w.u64(1024);  // beyond the 16-byte window
  w.u64(1);
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(w.bytes())).is_ok());
  ASSERT_TRUE(fabric_.run_until([&] { return done; }).is_ok());
  EXPECT_EQ(rc, -1);
  EXPECT_EQ(window[0], 0u);
}

TEST_F(RuntimeTest, ExposeSegmentTwiceRejected) {
  std::uint64_t window[2] = {};
  ASSERT_TRUE(rt_b_->expose_segment(window, sizeof(window)).is_ok());
  EXPECT_EQ(rt_b_->expose_segment(window, sizeof(window)).code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(RuntimeTest, CorruptedFrameDropped) {
  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement));
  ASSERT_TRUE(id.is_ok());
  auto frame = rt_a_->create_message(*id, as_span(Bytes{0}));
  ASSERT_TRUE(frame.is_ok());
  Bytes corrupted(frame->full_view().begin(), frame->full_view().end());
  corrupted[kHeaderSize / 2] ^= 0xff;
  fabric_.post_send(a_, b_, as_span(corrupted), 1, {});
  fabric_.run_until_idle();
  EXPECT_EQ(rt_b_->stats().protocol_errors, 1u);
}

TEST_F(RuntimeTest, PayloadSumRemoteExecution) {
  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kPayloadSum));
  ASSERT_TRUE(id.is_ok());
  std::uint64_t result = 0;
  rt_b_->set_target_ptr(&result);

  Bytes payload(300);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(3 * i + 1);
    expected += payload[i];
  }
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(result, expected);
}

TEST_F(RuntimeTest, BinaryObjectRepresentationExecutes) {
  auto bitcode =
      kir::build_default_kir_fat_kernel(ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(bitcode.is_ok());
  auto objects = jit::compile_archive_to_objects(*bitcode);
  ASSERT_TRUE(objects.is_ok());
  auto lib = IfuncLibrary::from_archive("tsi_bin", std::move(*objects));
  ASSERT_TRUE(lib.is_ok());
  auto id = rt_a_->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  std::uint64_t counter = 0;
  rt_b_->set_target_ptr(&counter);
  Bytes payload{0};
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(counter, 1u);
  EXPECT_EQ(rt_b_->stats().object_links, 1u);
  EXPECT_EQ(rt_b_->stats().jit_compiles, 0u);
}

TEST_F(RuntimeTest, RingPropagationAcrossFourNodes) {
  // The headline capability: an ifunc that recursively re-injects itself
  // around the cluster. Four nodes, TTL 10 — the code visits peers
  // (1,2,3,0,1,...) and replies to the origin when TTL expires.
  const NodeId c = fabric_.add_node("c");
  const NodeId d = fabric_.add_node("d");
  auto rt_c = create_runtime(c);
  auto rt_d = create_runtime(d);

  std::vector<NodeId> peers{a_, b_, c, d};
  rt_a_->set_peers(peers);
  rt_b_->set_peers(peers);
  rt_c->set_peers(peers);
  rt_d->set_peers(peers);

  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kRingHop));
  ASSERT_TRUE(id.is_ok());

  std::uint64_t final_ttl = ~0ull, final_hops = ~0ull;
  bool done = false;
  rt_a_->set_result_handler([&](ByteSpan data, NodeId) {
    ByteReader r(data);
    ASSERT_TRUE(r.u64(final_ttl).is_ok());
    ASSERT_TRUE(r.u64(final_hops).is_ok());
    done = true;
  });

  ByteWriter w;
  w.u64(10);  // ttl
  w.u64(0);   // hops
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(w.bytes())).is_ok());
  ASSERT_TRUE(fabric_.run_until([&] { return done; }).is_ok());

  EXPECT_EQ(final_ttl, 0u);
  EXPECT_EQ(final_hops, 10u);
  // Each node JIT-compiled the traveling code exactly once.
  EXPECT_EQ(rt_b_->stats().jit_compiles, 1u);
  EXPECT_EQ(rt_c->stats().jit_compiles, 1u);
  EXPECT_EQ(rt_d->stats().jit_compiles, 1u);
  // The ring revisits nodes: later hops must be truncated (cached) sends.
  EXPECT_GE(rt_b_->stats().frames_sent_truncated, 1u);
}

TEST_F(RuntimeTest, SpawnerInjectsAnotherIfunc) {
  // Code-generating code: the spawner ifunc runs on b and injects the
  // locally registered TSI ifunc into a peer chosen from its payload.
  const NodeId c = fabric_.add_node("c");
  auto rt_c = create_runtime(c);
  std::vector<NodeId> peers{a_, b_, c};
  rt_a_->set_peers(peers);
  rt_b_->set_peers(peers);
  rt_c->set_peers(peers);

  auto spawner_id = rt_a_->register_ifunc(make_library(ir::KernelKind::kSpawner));
  ASSERT_TRUE(spawner_id.is_ok());
  // The spawner looks the target ifunc up by name on the node it runs on.
  auto tsi_id = rt_b_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement));
  ASSERT_TRUE(tsi_id.is_ok());

  std::uint64_t counter = 0;
  rt_c->set_target_ptr(&counter);

  ByteWriter w;
  w.u64(2);  // peer index of c
  w.u64(0);  // argument word for the spawned ifunc
  w.raw(as_span(std::string_view("tsi")));
  w.u8(0);  // NUL
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *spawner_id, as_span(w.bytes())).is_ok());
  fabric_.run_until_idle();

  EXPECT_EQ(counter, 1u);
  EXPECT_EQ(rt_b_->stats().injects, 1u);
  EXPECT_EQ(rt_c->stats().auto_registered, 1u);
}

TEST_F(RuntimeTest, FailedDeferredInjectIsCounted) {
  // An inject that cannot leave the node is counted like a failed forward:
  // the spawner names its own node's peer index, and the deferred
  // self-send is refused after the ifunc has returned.
  std::vector<NodeId> peers{a_, b_};
  rt_a_->set_peers(peers);
  rt_b_->set_peers(peers);
  auto spawner_id = rt_a_->register_ifunc(make_library(ir::KernelKind::kSpawner));
  ASSERT_TRUE(spawner_id.is_ok());
  ASSERT_TRUE(
      rt_b_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement))
          .is_ok());

  ByteWriter w;
  w.u64(1);  // peer index of b, where the spawner runs
  w.u64(0);
  w.raw(as_span(std::string_view("tsi")));
  w.u8(0);  // NUL
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *spawner_id, as_span(w.bytes())).is_ok());
  fabric_.run_until_idle();

  EXPECT_EQ(rt_b_->stats().injects, 1u);
  EXPECT_EQ(rt_b_->stats().forward_send_failures, 1u);
  EXPECT_EQ(rt_b_->stats().frames_executed, 1u);  // the spawner only
}

TEST_F(RuntimeTest, HllLibraryExecutesWithGuardCost) {
  RuntimeOptions options;
  options.hll_guard_cost_ns = 100;
  // Replace default runtime b (two runtimes on one node would double-poll).
  rt_b_.reset();
  auto rt_b2 = create_runtime(b_, options);

  auto lib = hll::build_library(ir::KernelKind::kPayloadSum);
  ASSERT_TRUE(lib.is_ok());
  auto id = rt_a_->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  std::uint64_t result = 0;
  rt_b2->set_target_ptr(&result);
  Bytes payload(32, 2);
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(result, 64u);
  // 32 iterations × 100 ns of guard cost must show in virtual time.
  EXPECT_GE(fabric_.node(b_).busy_until, 3200);
}

TEST_F(RuntimeTest, ManualPollMode) {
  RuntimeOptions options;
  options.auto_poll = false;
  rt_b_.reset();
  auto rt_b2 = create_runtime(b_, options);

  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement));
  ASSERT_TRUE(id.is_ok());
  std::uint64_t counter = 0;
  rt_b2->set_target_ptr(&counter);

  Bytes payload{0};
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(counter, 0u);  // nothing polls automatically
  EXPECT_EQ(rt_b2->poll(), 1u);
  fabric_.run_until_idle();  // the execute event
  EXPECT_EQ(counter, 1u);
  EXPECT_EQ(rt_b2->poll(), 0u);
}

TEST_F(RuntimeTest, WarmSendShipsTheTruncatedView) {
  // Paper §III-D: once the peer holds the code, a send ships the prefix
  // through MAGIC1 — byte for byte the truncated view of the frame
  // create_message builds — and counts the code section it left out.
  RuntimeOptions options;
  options.auto_poll = false;
  rt_b_.reset();
  auto rt_b2 = create_runtime(b_, options);

  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kHashProbe));
  ASSERT_TRUE(id.is_ok());
  const Bytes payload(32, 0x5a);
  auto frame = rt_a_->create_message(*id, as_span(payload));
  ASSERT_TRUE(frame.is_ok());

  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  const std::uint64_t saved = rt_a_->stats().code_bytes_saved;
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();

  auto cold = fabric_.try_recv(b_);
  auto warm = fabric_.try_recv(b_);
  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(warm.has_value());
  const ByteSpan full = frame->full_view();
  const ByteSpan truncated = frame->truncated_view();
  EXPECT_EQ(cold->data, Bytes(full.begin(), full.end()));
  EXPECT_EQ(warm->data, Bytes(truncated.begin(), truncated.end()));
  EXPECT_EQ(rt_a_->stats().code_bytes_saved - saved,
            frame->full_size() - frame->truncated_size());
  EXPECT_EQ(rt_a_->stats().frames_sent_full, 1u);
  EXPECT_EQ(rt_a_->stats().frames_sent_truncated, 1u);
}

TEST_F(RuntimeTest, VirtualTimeChargesJitConstant) {
  RuntimeOptions options;
  options.jit_cost_ns = 5'000'000;  // 5 ms, as a profile would pin
  options.lookup_exec_cost_ns = 100;
  rt_b_.reset();
  auto rt_b2 = create_runtime(b_, options);

  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement));
  ASSERT_TRUE(id.is_ok());
  std::uint64_t counter = 0;
  rt_b2->set_target_ptr(&counter);
  Bytes payload{0};
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(counter, 1u);
  // First execution completes no earlier than the charged JIT time.
  EXPECT_GE(fabric_.now(), 5'000'000);

  const auto t_cached = fabric_.now();
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  // Cached execution is orders of magnitude cheaper.
  EXPECT_LT(fabric_.now() - t_cached, 100'000);
}

TEST_F(RuntimeTest, SelfSendRejected) {
  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement));
  ASSERT_TRUE(id.is_ok());
  Bytes payload{0};
  EXPECT_EQ(rt_a_->send_ifunc(a_, *id, as_span(payload)).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(RuntimeTest, FrameReuseAcrossPeers) {
  // Paper: "the ifunc message is never modified ... the user might want to
  // send it to another process later."
  const NodeId c = fabric_.add_node("c");
  auto rt_c = create_runtime(c);
  auto id = rt_a_->register_ifunc(make_library(ir::KernelKind::kTargetSideIncrement));
  ASSERT_TRUE(id.is_ok());
  std::uint64_t counter_b = 0, counter_c = 0;
  rt_b_->set_target_ptr(&counter_b);
  rt_c->set_target_ptr(&counter_c);

  auto frame = rt_a_->create_message(*id, as_span(Bytes{0}));
  ASSERT_TRUE(frame.is_ok());
  ASSERT_TRUE(rt_a_->send_frame(b_, *frame).is_ok());
  ASSERT_TRUE(rt_a_->send_frame(c, *frame).is_ok());
  ASSERT_TRUE(rt_a_->send_frame(b_, *frame).is_ok());  // truncated now
  fabric_.run_until_idle();
  EXPECT_EQ(counter_b, 2u);
  EXPECT_EQ(counter_c, 1u);
}

}  // namespace
}  // namespace tc::core
