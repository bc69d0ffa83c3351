// Tests for the async-pipeline layer: the batch container codec,
// sender-side frame coalescing in core::Runtime, NACK recovery when
// a *batched* window is redelivered (no duplicates, no drops), and
// determinism of windowed (W > 1) DAPC runs. Everything here is LLVM-free:
// ifuncs ship as portable bytecode, so the suite runs in both build
// flavors.
#include <gtest/gtest.h>

#include "core/frame.hpp"
#include "core/runtime.hpp"
#include "fabric/fabric.hpp"
#include "fabric/link_model.hpp"
#include "hetsim/cluster.hpp"
#include "xrdma/dapc.hpp"

namespace tc {
namespace {

using core::BatchOptions;
using core::Runtime;
using core::RuntimeOptions;
using fabric::Fabric;
using fabric::NodeId;

// --- batch container codec ---------------------------------------------------

TEST(BatchFrame, RoundTrip) {
  const std::vector<Bytes> parts = {Bytes{1, 2, 3}, Bytes{4},
                                    Bytes(300, 0xAB)};
  auto container_or = core::encode_batch_frame(parts);
  ASSERT_TRUE(container_or.is_ok());
  Bytes container = *container_or;
  ASSERT_TRUE(core::is_batch_frame(as_span(container)));
  auto decoded = core::decode_batch_frame(as_span(container));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded->size(), parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(Bytes((*decoded)[i].begin(), (*decoded)[i].end()), parts[i]);
  }
}

TEST(BatchFrame, RejectsMalformed) {
  // Not a batch at all.
  Bytes not_batch{0x00, 0x01, 0x02};
  EXPECT_FALSE(core::decode_batch_frame(as_span(not_batch)).is_ok());

  // Empty container.
  auto empty = core::encode_batch_frame({});
  ASSERT_TRUE(empty.is_ok());
  EXPECT_FALSE(core::decode_batch_frame(as_span(*empty)).is_ok());

  // Truncated sub-frame length.
  auto container_or = core::encode_batch_frame({Bytes{1, 2, 3, 4}});
  ASSERT_TRUE(container_or.is_ok());
  Bytes container = *container_or;
  Bytes clipped(container.begin(), container.end() - 2);
  EXPECT_FALSE(core::decode_batch_frame(as_span(clipped)).is_ok());

  // Trailing garbage.
  Bytes padded = container;
  padded.push_back(0xFF);
  EXPECT_FALSE(core::decode_batch_frame(as_span(padded)).is_ok());

  // Only the current protocol version is decoded.
  ASSERT_EQ(container[2], core::kProtocolVersion);
  for (unsigned version = 0; version <= 0xFF; ++version) {
    if (version == core::kProtocolVersion) continue;
    Bytes other_version = container;
    other_version[2] = static_cast<std::uint8_t>(version);
    auto decoded = core::decode_batch_frame(as_span(other_version));
    ASSERT_FALSE(decoded.is_ok()) << "decoded version " << version;
    EXPECT_EQ(decoded.status().code(), ErrorCode::kDataLoss);
  }

  // Nested batches are a protocol violation.
  auto nested = core::encode_batch_frame({container});
  ASSERT_TRUE(nested.is_ok());
  EXPECT_FALSE(core::decode_batch_frame(as_span(*nested)).is_ok());

  // A part count beyond the u16 wire field is refused at encode time.
  EXPECT_FALSE(
      core::encode_batch_frame(std::vector<Bytes>(70'000, Bytes{1})).is_ok());
}

// --- runtime coalescing ------------------------------------------------------

struct BatchPair {
  Fabric fabric;
  NodeId src = 0;
  NodeId dst = 0;
  std::unique_ptr<Runtime> sender;
  std::unique_ptr<Runtime> receiver;

  explicit BatchPair(BatchOptions batch) {
    fabric.set_default_link(fabric::instant_link());
    src = fabric.add_node("src");
    dst = fabric.add_node("dst");
    RuntimeOptions sender_options;
    sender_options.batch = batch;
    sender = std::move(Runtime::create(fabric, src, sender_options)).value();
    receiver = std::move(Runtime::create(fabric, dst, {})).value();
  }
};

StatusOr<std::uint64_t> register_portable(Runtime& runtime,
                                          ir::KernelKind kind) {
  TC_ASSIGN_OR_RETURN(auto library,
                      core::IfuncLibrary::from_portable_kernel(kind));
  return runtime.register_ifunc(std::move(library));
}

TEST(RuntimeBatching, CoalescesBackToBackSends) {
  BatchOptions batch;
  batch.max_frames = 4;
  batch.flush_ns = 100;
  BatchPair pair(batch);

  auto id = register_portable(*pair.sender,
                              ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();
  std::uint64_t counter = 0;
  pair.receiver->set_target_ptr(&counter);

  Bytes payload{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        pair.sender->send_ifunc(pair.dst, *id, as_span(payload)).is_ok());
  }
  ASSERT_TRUE(pair.fabric.run_until([&] { return counter == 8; }).is_ok());

  // Eight logical frames traveled in two coalesced wire messages.
  EXPECT_EQ(pair.sender->stats().batches_sent, 2u);
  EXPECT_EQ(pair.sender->stats().frames_coalesced, 8u);
  EXPECT_EQ(pair.sender->stats().batch_full_flushes, 2u);
  EXPECT_EQ(pair.fabric.stats().sends, 2u);
  EXPECT_EQ(pair.receiver->stats().batches_received, 2u);
  EXPECT_EQ(pair.receiver->stats().frames_received, 8u);
  EXPECT_EQ(pair.receiver->stats().frames_executed, 8u);
  EXPECT_EQ(pair.receiver->stats().protocol_errors, 0u);
  // The code-caching protocol is orthogonal to batching: only the first
  // frame shipped the archive.
  EXPECT_EQ(pair.sender->stats().frames_sent_full, 1u);
  EXPECT_EQ(pair.sender->stats().frames_sent_truncated, 7u);
}

TEST(RuntimeBatching, DeadlineFlushesPartialBatch) {
  BatchOptions batch;
  batch.max_frames = 8;
  batch.flush_ns = 500;
  BatchPair pair(batch);

  auto id = register_portable(*pair.sender,
                              ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(id.is_ok());
  std::uint64_t counter = 0;
  pair.receiver->set_target_ptr(&counter);

  Bytes payload{0};
  ASSERT_TRUE(
      pair.sender->send_ifunc(pair.dst, *id, as_span(payload)).is_ok());
  ASSERT_TRUE(pair.fabric.run_until([&] { return counter == 1; }).is_ok());

  // The lone frame waited out the deadline and then shipped *bare* — no
  // container overhead, no batch on the receive side.
  EXPECT_GE(pair.fabric.now(), 500);
  EXPECT_EQ(pair.sender->stats().batch_deadline_flushes, 1u);
  EXPECT_EQ(pair.sender->stats().batches_sent, 0u);
  EXPECT_EQ(pair.receiver->stats().batches_received, 0u);
  EXPECT_EQ(pair.receiver->stats().frames_executed, 1u);
}

TEST(RuntimeBatching, DisabledBatchingLeavesWireUnchanged) {
  BatchOptions off;  // max_frames = 1
  BatchPair pair(off);

  auto id = register_portable(*pair.sender,
                              ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(id.is_ok());
  std::uint64_t counter = 0;
  pair.receiver->set_target_ptr(&counter);

  Bytes payload{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        pair.sender->send_ifunc(pair.dst, *id, as_span(payload)).is_ok());
  }
  ASSERT_TRUE(pair.fabric.run_until([&] { return counter == 4; }).is_ok());
  EXPECT_EQ(pair.sender->stats().batches_sent, 0u);
  EXPECT_EQ(pair.fabric.stats().sends, 4u);
  EXPECT_EQ(pair.receiver->stats().frames_received, 4u);
}

TEST(RuntimeBatching, SenderDestroyedWithFrameOnTheWire) {
  // A posted frame belongs to the fabric: destroying the sending runtime
  // before it lands must neither lose it nor leave an in-flight event
  // pointing into the destroyed sender.
  BatchPair pair(BatchOptions{});
  auto id = register_portable(*pair.sender,
                              ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(id.is_ok());
  std::uint64_t counter = 0;
  pair.receiver->set_target_ptr(&counter);

  Bytes payload{0};
  ASSERT_TRUE(
      pair.sender->send_ifunc(pair.dst, *id, as_span(payload)).is_ok());
  pair.sender.reset();
  pair.fabric.run_until_idle();
  EXPECT_EQ(counter, 1u);
  EXPECT_EQ(pair.receiver->stats().frames_received, 1u);
  EXPECT_EQ(pair.receiver->stats().frames_executed, 1u);
  EXPECT_EQ(pair.receiver->stats().protocol_errors, 0u);
}

TEST(RuntimeBatching, InterleavedDestinationsBatchSeparately) {
  // Sends alternating between two receivers fill one batch per
  // destination; a full batch ships without waiting for the other's, and
  // the leftover frame waits out its own deadline.
  Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  const NodeId src = fabric.add_node("src");
  const NodeId dst[2] = {fabric.add_node("dst0"), fabric.add_node("dst1")};
  RuntimeOptions sender_options;
  sender_options.batch.max_frames = 3;
  sender_options.batch.flush_ns = 100;
  auto sender = std::move(Runtime::create(fabric, src, sender_options)).value();
  std::unique_ptr<Runtime> receivers[2];
  std::uint64_t counters[2] = {0, 0};
  for (int r = 0; r < 2; ++r) {
    receivers[r] = std::move(Runtime::create(fabric, dst[r], {})).value();
    receivers[r]->set_target_ptr(&counters[r]);
  }
  auto id = register_portable(*sender, ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();

  Bytes payload{0};
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(sender->send_ifunc(dst[i % 2], *id, as_span(payload)).is_ok());
  }
  ASSERT_TRUE(fabric
                  .run_until([&] {
                    return counters[0] == 4 && counters[1] == 3;
                  })
                  .is_ok());

  // dst0 got frames 0, 2, 4 in one container and frame 6 bare at its
  // deadline; dst1 got frames 1, 3, 5 in one container.
  EXPECT_EQ(sender->stats().batch_full_flushes, 2u);
  EXPECT_EQ(sender->stats().batch_deadline_flushes, 1u);
  EXPECT_EQ(sender->stats().batches_sent, 2u);
  EXPECT_EQ(sender->stats().frames_coalesced, 6u);
  EXPECT_EQ(fabric.stats().sends, 3u);
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(receivers[r]->stats().batches_received, 1u);
    EXPECT_EQ(receivers[r]->stats().protocol_errors, 0u);
  }
  EXPECT_EQ(receivers[0]->stats().frames_executed, 4u);
  EXPECT_EQ(receivers[1]->stats().frames_executed, 3u);
}

// --- NACK recovery across a batched window -----------------------------------

TEST(RuntimeBatching, NackMidBatchRedeliversWithoutDuplicatesOrDrops) {
  BatchOptions batch;
  batch.max_frames = 3;
  batch.flush_ns = 100;
  BatchPair pair(batch);

  // Two portable ifuncs: the increment (IA) and the payload byte-sum (IB).
  auto id_inc = register_portable(*pair.sender,
                                  ir::KernelKind::kTargetSideIncrement);
  auto id_sum = register_portable(*pair.sender, ir::KernelKind::kPayloadSum);
  ASSERT_TRUE(id_inc.is_ok());
  ASSERT_TRUE(id_sum.is_ok());

  std::uint64_t target = 0;
  pair.receiver->set_target_ptr(&target);

  // Prime the sender's sent-code table for IB against the *old* receiver.
  Bytes prime{5};
  ASSERT_TRUE(
      pair.sender->send_ifunc(pair.dst, *id_sum, as_span(prime)).is_ok());
  ASSERT_TRUE(pair.fabric.run_until([&] { return target == 5; }).is_ok());

  // "Restart" the receiver: registry and caches are gone, but the sender
  // still believes the peer holds IB's code and will truncate. Destroy the
  // old instance first — its destructor clears the worker's delivery
  // notifier, which the replacement must re-install.
  pair.receiver.reset();
  pair.receiver = std::move(Runtime::create(pair.fabric, pair.dst, {})).value();
  pair.receiver->set_target_ptr(&target);

  // One batched window: IA full (first send), then two truncated IB frames
  // the restarted receiver cannot execute.
  Bytes one{0};
  Bytes abc{1, 2, 3};
  Bytes seven{7};
  ASSERT_TRUE(
      pair.sender->send_ifunc(pair.dst, *id_inc, as_span(one)).is_ok());
  ASSERT_TRUE(
      pair.sender->send_ifunc(pair.dst, *id_sum, as_span(abc)).is_ok());
  ASSERT_TRUE(
      pair.sender->send_ifunc(pair.dst, *id_sum, as_span(seven)).is_ok());
  ASSERT_TRUE(pair.fabric.run_until([&] { return target == 7; }).is_ok());

  // Partial redelivery: IA executed straight from the batch (5 -> 6), the
  // two IB payloads were stashed, ONE Nack re-fetched the code, and both
  // replayed in order (sum{1,2,3} = 6, then sum{7} = 7) — nothing executed
  // twice, nothing lost.
  EXPECT_EQ(target, 7u);
  EXPECT_EQ(pair.receiver->stats().nacks_sent, 1u);
  EXPECT_EQ(pair.sender->stats().nacks_received, 1u);
  EXPECT_EQ(pair.receiver->stats().batches_received, 1u);
  EXPECT_EQ(pair.receiver->stats().frames_executed, 3u);
  EXPECT_EQ(pair.receiver->stats().auto_registered, 2u);
  EXPECT_EQ(pair.receiver->stats().protocol_errors, 0u);
}

// --- windowed DAPC determinism and equivalence -------------------------------

xrdma::DapcConfig windowed_config(std::uint64_t window) {
  xrdma::DapcConfig config;
  config.depth = 48;
  config.chases = 12;
  config.entries_per_shard = 256;
  config.window = window;
  config.batch_frames = window > 1 ? 4 : 1;
  return config;
}

StatusOr<xrdma::DapcResult> run_windowed(xrdma::ChaseMode mode,
                                         std::uint64_t window) {
  hetsim::ClusterConfig cluster_config;
  cluster_config.platform = hetsim::Platform::kThorXeon;
  cluster_config.server_count = 4;
  TC_ASSIGN_OR_RETURN(auto cluster, hetsim::Cluster::create(cluster_config));
  TC_ASSIGN_OR_RETURN(
      auto driver,
      xrdma::DapcDriver::create(*cluster, mode, windowed_config(window)));
  return driver->run();
}

// Modes that run without LLVM; the full seven-mode matrix is covered by
// xrdma_test in LLVM builds.
constexpr xrdma::ChaseMode kPortableModes[] = {
    xrdma::ChaseMode::kActiveMessage,
    xrdma::ChaseMode::kGet,
    xrdma::ChaseMode::kInterpreted,
};

TEST(DapcWindowed, RunToRunDeterministic) {
  for (xrdma::ChaseMode mode : kPortableModes) {
    auto first = run_windowed(mode, 4);
    auto second = run_windowed(mode, 4);
    ASSERT_TRUE(first.is_ok()) << xrdma::chase_mode_name(mode);
    ASSERT_TRUE(second.is_ok()) << xrdma::chase_mode_name(mode);
    EXPECT_EQ(first->values, second->values) << xrdma::chase_mode_name(mode);
    // Identical virtual completion time, not merely identical values: the
    // whole pipelined schedule replays bit-for-bit.
    EXPECT_EQ(first->virtual_ns, second->virtual_ns)
        << xrdma::chase_mode_name(mode);
  }
}

TEST(DapcWindowed, WindowedValuesMatchSynchronous) {
  for (xrdma::ChaseMode mode : kPortableModes) {
    auto sync = run_windowed(mode, 1);
    auto windowed = run_windowed(mode, 6);
    ASSERT_TRUE(sync.is_ok()) << xrdma::chase_mode_name(mode);
    ASSERT_TRUE(windowed.is_ok()) << xrdma::chase_mode_name(mode);
    EXPECT_EQ(windowed->correct, windowed->completed)
        << xrdma::chase_mode_name(mode);
    EXPECT_EQ(windowed->values, sync->values) << xrdma::chase_mode_name(mode);
  }
}

TEST(DapcWindowed, PipeliningImprovesInterpretedRate) {
  auto sync = run_windowed(xrdma::ChaseMode::kInterpreted, 1);
  auto windowed = run_windowed(xrdma::ChaseMode::kInterpreted, 8);
  ASSERT_TRUE(sync.is_ok());
  ASSERT_TRUE(windowed.is_ok());
  EXPECT_GT(windowed->chases_per_second, sync->chases_per_second);
}

TEST(DapcWindowed, ZeroWindowRejected) {
  hetsim::ClusterConfig cluster_config;
  cluster_config.platform = hetsim::Platform::kThorXeon;
  cluster_config.server_count = 2;
  auto cluster = hetsim::Cluster::create(cluster_config);
  ASSERT_TRUE(cluster.is_ok());
  xrdma::DapcConfig config = windowed_config(1);
  config.window = 0;
  EXPECT_FALSE(xrdma::DapcDriver::create(**cluster,
                                         xrdma::ChaseMode::kInterpreted,
                                         config)
                   .is_ok());
}

}  // namespace
}  // namespace tc
