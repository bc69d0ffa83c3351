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

#include <memory>
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

}  // namespace
}  // namespace tc
