// Transport conformance suite instantiation for the two in-process
// backends — the deterministic discrete-event fabric::Fabric and the
// real-threads ShmTransport. The shared TEST_P bodies live in
// transport_conformance.hpp (socket_test.cpp runs the same suite against
// fabric::SocketTransport, and mp_launch's conformance role runs it
// across real processes).
//
// The shm-specific threaded tests at the bottom exercise the SPSC rings and
// per-node progress threads under real concurrency; they are the tests the
// CI ThreadSanitizer job is aimed at.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "fabric/fabric.hpp"
#include "fabric/shm_transport.hpp"
#include "fabric/spsc_ring.hpp"
#include "fabric/transport.hpp"
#include "transport_conformance.hpp"

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

TEST(ShmTransportThreaded, AmEchoStormAcrossProgressThreads) {
  // Node 0 (driven by this thread) fires AMs at nodes 1 and 2 (dedicated
  // progress threads); their handlers echo back; node 0 counts echoes.
  fabric::ShmTransport shm(3);
  std::atomic<int> echoes{0};
  ASSERT_TRUE(shm.register_am_handler(0, 5,
                                      [&](ByteSpan, fabric::NodeId) {
                                        echoes.fetch_add(
                                            1, std::memory_order_relaxed);
                                      })
                  .is_ok());
  for (fabric::NodeId server : {1u, 2u}) {
    ASSERT_TRUE(shm.register_am_handler(
                       server, 5,
                       [&shm, server](ByteSpan payload,
                                      fabric::NodeId source) {
                         shm.post_am(server, source, 5, payload, {});
                       })
                    .is_ok());
  }
  shm.start_progress_threads({1, 2});

  constexpr int kPerServer = 500;
  Bytes payload{0x42};
  for (int i = 0; i < kPerServer; ++i) {
    shm.post_am(0, 1, 5, as_span(payload), {});
    shm.post_am(0, 2, 5, as_span(payload), {});
  }
  Status status = shm.run_until(
      0, [&] { return echoes.load(std::memory_order_relaxed) ==
                      2 * kPerServer; });
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  shm.stop_progress_threads();
  EXPECT_EQ(echoes.load(), 2 * kPerServer);
}

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

TEST(ShmTransportThreaded, ConcurrentPutsLandInDistinctWindowSlots) {
  fabric::ShmTransport shm(4);
  auto window = shm.allocate_window(3, 3 * sizeof(std::uint64_t));
  ASSERT_TRUE(window.is_ok());
  shm.start_progress_threads({3});

  // Three initiator threads, each PUTting its id into its own slot.
  std::vector<std::thread> initiators;
  for (fabric::NodeId n = 0; n < 3; ++n) {
    initiators.emplace_back([&shm, &window, n] {
      const std::uint64_t value = 0x1000 + n;
      Bytes data(sizeof(value));
      std::memcpy(data.data(), &value, sizeof(value));
      std::atomic<bool> done{false};
      shm.post_put(n, window->remote_addr(3, n * sizeof(std::uint64_t)),
                   as_span(data), [&](Status s) {
                     ASSERT_TRUE(s.is_ok());
                     done.store(true, std::memory_order_relaxed);
                   });
      Status st = shm.run_until(
          n, [&] { return done.load(std::memory_order_relaxed); });
      ASSERT_TRUE(st.is_ok()) << st.to_string();
    });
  }
  for (auto& t : initiators) t.join();
  shm.stop_progress_threads();

  for (std::uint64_t n = 0; n < 3; ++n) {
    std::uint64_t slot = 0;
    std::memcpy(&slot, window->base + n * sizeof(slot), sizeof(slot));
    EXPECT_EQ(slot, 0x1000 + n);
  }
}

}  // namespace
}  // namespace tc
