// Transport conformance suite instantiation for the two in-process
// backends — the deterministic discrete-event fabric::Fabric and the
// real-threads ShmTransport. The shared TEST_P bodies live in
// transport_conformance.hpp (socket_test.cpp runs the same suite against
// fabric::SocketTransport, and mp_launch's conformance role runs it
// across real processes).
//
// The wall-clock suite (wall_clock_suite.hpp) and the shm-specific tests at
// the bottom exercise the SPSC rings, the shared wall-clock core and the
// per-node progress threads under real concurrency; they are the tests the
// CI ThreadSanitizer job is aimed at.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "fabric/fabric.hpp"
#include "fabric/shm_transport.hpp"
#include "fabric/spsc_ring.hpp"
#include "fabric/transport.hpp"
#include "transport_conformance.hpp"
#include "wall_clock_suite.hpp"

namespace tc {
namespace {

conformance::BackendInstance make_sim(std::size_t nodes) {
  auto fabric = std::make_shared<fabric::Fabric>();
  fabric->set_default_link(fabric::instant_link());
  for (std::size_t i = 0; i < nodes; ++i) {
    fabric->add_node("n" + std::to_string(i));
  }
  return {fabric, fabric.get()};
}

conformance::BackendInstance make_shm(std::size_t nodes) {
  auto shm = std::make_shared<fabric::ShmTransport>(nodes);
  return {shm, shm.get()};
}

using conformance::TransportConformance;

INSTANTIATE_TEST_SUITE_P(
    Backends, TransportConformance,
    ::testing::Values(
        conformance::ConformanceParam{"sim", /*deterministic=*/true, make_sim},
        conformance::ConformanceParam{"shm", /*deterministic=*/false,
                                      make_shm}),
    conformance::param_name);

using wall_clock::WallClockP;

INSTANTIATE_TEST_SUITE_P(
    Backends, WallClockP,
    ::testing::Values(wall_clock::WallClockParam{
        "shm",
        [](std::size_t nodes, std::int64_t run_until_timeout_ms) {
          fabric::ShmTransportOptions options;
          options.run_until_timeout_ms = run_until_timeout_ms;
          return std::make_shared<fabric::ShmTransport>(nodes, options);
        }}),
    wall_clock::param_name);

// --- SPSC ring unit coverage -------------------------------------------------

TEST(SpscRing, FillDrainWrapAround) {
  fabric::SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      int v = round * 10 + i;
      EXPECT_TRUE(ring.try_push(v));
    }
    int overflow = 99;
    EXPECT_FALSE(ring.try_push(overflow));  // full
    for (int i = 0; i < 4; ++i) {
      int out = -1;
      EXPECT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, round * 10 + i);
    }
    int out = -1;
    EXPECT_FALSE(ring.try_pop(out));  // empty
  }
  // A full ring the consumer then frees one slot of: the producer's cached
  // head says full, so the push must re-read head_ to find the slot, and
  // the push after it is refused again.
  for (int i = 0; i < 4; ++i) {
    int v = 100 + i;
    EXPECT_TRUE(ring.try_push(v));
  }
  int overflow = 99;
  EXPECT_FALSE(ring.try_push(overflow));
  int out = -1;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 100);
  int next = 104;
  EXPECT_TRUE(ring.try_push(next));
  EXPECT_FALSE(ring.try_push(overflow));
  for (int want = 101; want <= 104; ++want) {
    EXPECT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, want);
  }
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_EQ(ring.pushed(), 17u);
  EXPECT_EQ(ring.popped(), 17u);
}

TEST(SpscRing, ConcurrentProducerConsumerKeepsOrder) {
  constexpr int kItems = 100'000;
  fabric::SpscRing<int> ring(256);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      int v = i;
      while (!ring.try_push(v)) std::this_thread::yield();
    }
  });
  int expected = 0;
  while (expected < kItems) {
    int out = -1;
    if (ring.try_pop(out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    }
  }
  producer.join();
}

TEST(SpscRing, MovedBuffersArriveIntactAcrossWraps) {
  // Heap buffers through a ring small enough to fill and wrap constantly:
  // a slot overwritten before the consumer vacated it, or an item read
  // before the producer published it, shows as a wrong length or byte
  // here (and as a race under TSan, a use-after-free under ASan).
  constexpr std::size_t kItems = 200'000;
  fabric::SpscRing<Bytes> ring(8);
  std::thread producer([&] {
    for (std::size_t i = 0; i < kItems; ++i) {
      Bytes item(i % 97, static_cast<std::uint8_t>(i & 0xFF));
      while (!ring.try_push(item)) std::this_thread::yield();
    }
  });
  std::size_t bad = 0;
  for (std::size_t i = 0; i < kItems;) {
    Bytes out;
    if (!ring.try_pop(out)) continue;
    if (out != Bytes(i % 97, static_cast<std::uint8_t>(i & 0xFF))) {
      if (++bad <= 5) ADD_FAILURE() << "item " << i << " arrived damaged";
    }
    ++i;
  }
  producer.join();
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(ring.pushed(), kItems);
  EXPECT_EQ(ring.popped(), kItems);
}

// --- shm-specific threaded coverage ------------------------------------------

TEST(ShmTransportThreaded, FullRingFailsCompletionWithBackpressure) {
  // A consumer that never runs: once the ring fills and full_ring_wait_ms
  // elapses, the post must fail its completion with the shared
  // backpressure status — the same signal the socket backend's bounded tx
  // queue reports — instead of blocking the producer forever.
  fabric::ShmTransportOptions options;
  options.ring_capacity = 4;
  options.full_ring_wait_ms = 50;
  fabric::ShmTransport shm(2, options);

  Bytes payload{0x5A};
  Status rejected = Status::ok();
  bool saw_reject = false;
  for (int i = 0; i < 16 && !saw_reject; ++i) {
    shm.post_send(0, 1, as_span(payload), 1, [&](Status s) {
      if (!s.is_ok()) {
        saw_reject = true;
        rejected = std::move(s);
      }
    });
  }
  ASSERT_TRUE(saw_reject);
  EXPECT_TRUE(fabric::is_backpressure(rejected)) << rejected.to_string();
  EXPECT_GE(shm.stats().backpressure_failures, 1u);
  // ops_pushed is the rings' tail indices plus the ops push_op gave up on:
  // the four that filled the ring and the one that failed.
  EXPECT_EQ(shm.stats().ops_pushed, 5u);
  EXPECT_EQ(shm.stats().ops_drained, 0u);

  // Recovery: drain the consumer first (push_op can only drain the
  // *producer's* rings while blocked), then the same post completes OK.
  for (int spin = 0; spin < 1000; ++spin) {
    (void)shm.progress(1);
    (void)shm.progress(0);
    while (shm.try_recv(1).has_value()) {}
  }
  bool ok_fired = false;
  Status ok_status = internal_error("never fired");
  shm.post_send(0, 1, as_span(payload), 1, [&](Status s) {
    ok_fired = true;
    ok_status = std::move(s);
  });
  for (int spin = 0; spin < 1'000'000 && !ok_fired; ++spin) {
    (void)shm.progress(1);
    (void)shm.progress(0);
    (void)shm.try_recv(1);
  }
  ASSERT_TRUE(ok_fired);
  EXPECT_TRUE(ok_status.is_ok()) << ok_status.to_string();
}

TEST(ShmTransportThreaded, OpDroppedAtStopStillCountsAsPushed) {
  // Node 0's progress thread posts into a full ring from a timer and
  // blocks; stopping the threads makes it drop the op, which never
  // entered a ring but still counts in ops_pushed.
  fabric::ShmTransportOptions options;
  options.ring_capacity = 4;
  options.full_ring_wait_ms = 60'000;
  fabric::ShmTransport shm(2, options);
  Bytes payload{0x5A};
  for (int i = 0; i < 4; ++i) shm.post_send(0, 1, as_span(payload), 1, {});
  shm.schedule_after(0, 0, [&shm, &payload] {
    shm.post_send(0, 1, as_span(payload), 1, {});
  });
  shm.start_progress_threads({0});
  for (int spin = 0; spin < 10'000 && shm.stats().producer_stalls == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(shm.stats().producer_stalls, 1u);
  shm.stop_progress_threads();
  const fabric::ShmTransport::Stats stats = shm.stats();
  EXPECT_EQ(stats.ops_dropped, 1u);
  EXPECT_EQ(stats.ops_pushed, 5u);
  EXPECT_EQ(stats.ops_drained, 0u);
}

TEST(ShmTransportStats, RingIndicesCountEveryNonLoopbackOp) {
  // N fire-and-forget sends on every directed link of a 4-node cluster,
  // loopback included. Once quiet, every ring op was pushed and popped
  // once; loopback ops never touch a ring and count in neither.
  constexpr std::size_t kNodes = 4;
  constexpr std::size_t kPerLink = 50;
  fabric::ShmTransport shm(kNodes);
  Bytes payload{1, 2, 3};
  for (fabric::NodeId src = 0; src < kNodes; ++src) {
    for (fabric::NodeId dst = 0; dst < kNodes; ++dst) {
      for (std::size_t i = 0; i < kPerLink; ++i) {
        shm.post_send(src, dst, as_span(payload), 1, {});
      }
    }
  }
  std::size_t received = 0;
  for (int spin = 0; spin < 1'000'000 && received < kNodes * kNodes * kPerLink;
       ++spin) {
    for (fabric::NodeId node = 0; node < kNodes; ++node) {
      (void)shm.progress(node);
      while (shm.try_recv(node).has_value()) ++received;
    }
  }
  ASSERT_EQ(received, kNodes * kNodes * kPerLink);
  const fabric::ShmTransport::Stats stats = shm.stats();
  const std::uint64_t non_loopback = kNodes * (kNodes - 1) * kPerLink;
  EXPECT_EQ(stats.ops_pushed, non_loopback);
  EXPECT_EQ(stats.ops_drained, non_loopback);
}

TEST(ShmTransportThreaded, StatsReadWhileProgressThreadsPushAndPop) {
  // stats() sums the rings' indices while their producers and consumers
  // run (the read the TSan job checks). Each counter only grows, and once
  // every send's ack is back both read sends plus acks.
  constexpr std::size_t kNodes = 4;
  constexpr int kSends = 3000;
  fabric::ShmTransport shm(kNodes);
  shm.start_progress_threads({1, 2, 3});
  std::atomic<bool> done{false};
  std::thread reader([&] {
    fabric::ShmTransport::Stats last;
    while (!done.load(std::memory_order_acquire)) {
      const fabric::ShmTransport::Stats now = shm.stats();
      EXPECT_GE(now.ops_pushed, last.ops_pushed);
      EXPECT_GE(now.ops_drained, last.ops_drained);
      last = now;
    }
  });
  Bytes payload{7};
  int acked = 0;
  for (int i = 0; i < kSends; ++i) {
    const fabric::NodeId dst = 1 + static_cast<fabric::NodeId>(i % 3);
    shm.post_send(0, dst, as_span(payload), 1, [&](Status s) {
      EXPECT_TRUE(s.is_ok()) << s.to_string();
      ++acked;
    });
    (void)shm.progress(0);
  }
  const Status acks = shm.run_until(0, [&] { return acked == kSends; });
  done.store(true, std::memory_order_release);
  reader.join();
  shm.stop_progress_threads();
  ASSERT_TRUE(acks.is_ok()) << acks.to_string();
  const fabric::ShmTransport::Stats stats = shm.stats();
  EXPECT_EQ(stats.ops_pushed, 2u * kSends);
  EXPECT_EQ(stats.ops_drained, 2u * kSends);
}

TEST(ShmTransport, GetPastTheOpLengthFieldFailsAtPost) {
  // The ring op's GET length is 32 bits: a longer GET completes with
  // kOutOfRange inside post_get, before any progress, and pushes nothing.
  fabric::ShmTransport shm(2);
  auto window = shm.allocate_window(1, 64);
  ASSERT_TRUE(window.is_ok()) << window.status().to_string();
  std::optional<Status> status;
  shm.post_get(0, window->remote_addr(1), (std::size_t{1} << 32) + 8,
               [&](StatusOr<Bytes> r) { status = r.status(); });
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code(), ErrorCode::kOutOfRange) << status->to_string();
  EXPECT_EQ(shm.stats().ops_pushed, 0u);
}

TEST(ShmTransport, PostSendHandsTheBufferToTheReceiver) {
  // The ring op takes the sender's buffer: the receiver gets the very heap
  // allocation that was posted, not a copy.
  fabric::ShmTransport shm(2);
  Bytes frame(256, 0xAB);
  const std::uint8_t* sent = frame.data();
  shm.post_send(0, 1, std::move(frame), 1, {});
  (void)shm.progress(1);
  std::optional<fabric::ReceivedMessage> msg = shm.try_recv(1);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->data.data(), sent);
  EXPECT_EQ(msg->data, Bytes(256, 0xAB));
}

}  // namespace
}  // namespace tc
