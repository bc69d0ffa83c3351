// Wall-clock suite — the TEST_P bodies every fabric::WallClockTransport
// backend must pass, parameterized over a backend factory. Where
// transport_conformance.hpp checks the Transport contract single-threaded,
// these cases run the shared core under real concurrency (dedicated
// progress threads racing the posting thread) and pin what the core owns:
// timers and the run_until watchdog. They are the tests the CI
// ThreadSanitizer job is aimed at.
//
// transport_test.cpp instantiates it for shm, socket_test.cpp for socket
// (threaded mode); separate binaries, so the header-defined TEST_P bodies
// never collide.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "fabric/wall_clock_transport.hpp"

namespace tc::wall_clock {

struct WallClockParam {
  /// Expected Transport::name() (also the gtest parameter label).
  std::string name;
  std::function<std::shared_ptr<fabric::WallClockTransport>(
      std::size_t node_count, std::int64_t run_until_timeout_ms)>
      factory;
};

inline std::string param_name(
    const ::testing::TestParamInfo<WallClockParam>& info) {
  return info.param.name;
}

/// Prints the label only: gtest_discover_tests copies the printed
/// parameter into the ctest name, and the default byte dump would carry
/// ASLR-randomized pointers.
inline void PrintTo(const WallClockParam& param, std::ostream* os) {
  *os << param.name;
}

/// Node 0 (driven by the calling thread) fires `per_server` AMs at nodes 1
/// and 2 (dedicated progress threads); their handlers echo back and node 0
/// counts the echoes. Returns run_until's status; `echoes` ends at
/// 2 * per_server on success.
inline Status run_am_echo_storm(fabric::WallClockTransport& t, int per_server,
                                std::atomic<int>& echoes) {
  TC_RETURN_IF_ERROR(t.register_am_handler(
      0, 5, [&echoes](ByteSpan, fabric::NodeId) {
        echoes.fetch_add(1, std::memory_order_relaxed);
      }));
  for (fabric::NodeId server : {1u, 2u}) {
    TC_RETURN_IF_ERROR(t.register_am_handler(
        server, 5, [&t, server](ByteSpan payload, fabric::NodeId source) {
          t.post_am(server, source, 5, payload, {});
        }));
  }
  t.start_progress_threads({1, 2});
  Bytes payload{0x42};
  for (int i = 0; i < per_server; ++i) {
    t.post_am(0, 1, 5, as_span(payload), {});
    t.post_am(0, 2, 5, as_span(payload), {});
  }
  Status status = t.run_until(0, [&] {
    return echoes.load(std::memory_order_relaxed) == 2 * per_server;
  });
  t.stop_progress_threads();
  return status;
}

class WallClockP : public ::testing::TestWithParam<WallClockParam> {
 protected:
  std::shared_ptr<fabric::WallClockTransport> make(
      std::size_t node_count, std::int64_t run_until_timeout_ms = 30'000) {
    return GetParam().factory(node_count, run_until_timeout_ms);
  }
};

TEST_P(WallClockP, AmEchoStormAcrossProgressThreads) {
  auto transport = make(3);
  ASSERT_NE(transport, nullptr);
  constexpr int kPerServer = 500;
  std::atomic<int> echoes{0};
  const Status status = run_am_echo_storm(*transport, kPerServer, echoes);
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(echoes.load(), 2 * kPerServer);
}

TEST_P(WallClockP, ConcurrentPutsLandInDistinctWindowSlots) {
  auto transport = make(4);
  ASSERT_NE(transport, nullptr);
  fabric::WallClockTransport& t = *transport;
  auto window = t.allocate_window(3, 3 * sizeof(std::uint64_t));
  ASSERT_TRUE(window.is_ok());
  t.start_progress_threads({3});

  // Three initiator threads, each PUTting its id into its own slot.
  std::vector<std::thread> initiators;
  for (fabric::NodeId n = 0; n < 3; ++n) {
    initiators.emplace_back([&t, &window, n] {
      const std::uint64_t value = 0x1000 + n;
      Bytes data(sizeof(value));
      std::memcpy(data.data(), &value, sizeof(value));
      std::atomic<bool> done{false};
      t.post_put(n, window->remote_addr(3, n * sizeof(std::uint64_t)),
                 as_span(data), [&](Status s) {
                   ASSERT_TRUE(s.is_ok()) << s.to_string();
                   done.store(true, std::memory_order_relaxed);
                 });
      Status st = t.run_until(
          n, [&] { return done.load(std::memory_order_relaxed); });
      ASSERT_TRUE(st.is_ok()) << st.to_string();
    });
  }
  for (auto& thread : initiators) thread.join();
  t.stop_progress_threads();

  for (std::uint64_t n = 0; n < 3; ++n) {
    std::uint64_t slot = 0;
    std::memcpy(&slot, window->base + n * sizeof(slot), sizeof(slot));
    EXPECT_EQ(slot, 0x1000 + n);
  }
}

// A timer runs on its node's progress context — the dedicated thread of a
// server node, the driving thread of an inline node — and never before its
// delay has passed.
TEST_P(WallClockP, ScheduleAfterFiresOnTheNodesProgressContextAfterItsDelay) {
  auto transport = make(2);
  ASSERT_NE(transport, nullptr);
  fabric::WallClockTransport& t = *transport;

  // Name node 1's progress context: the thread its AM handlers run on.
  std::thread::id server_context;
  std::atomic<bool> named{false};
  ASSERT_TRUE(t.register_am_handler(1, 5,
                                    [&](ByteSpan, fabric::NodeId) {
                                      server_context =
                                          std::this_thread::get_id();
                                      named.store(true,
                                                  std::memory_order_release);
                                    })
                  .is_ok());
  t.start_progress_threads({1});
  Bytes payload{1};
  t.post_am(0, 1, 5, as_span(payload), {});
  ASSERT_TRUE(
      t.run_until(0, [&] { return named.load(std::memory_order_acquire); })
          .is_ok());

  constexpr std::int64_t kDelayNs = 20'000'000;
  const std::int64_t armed_at = t.now_ns();
  std::thread::id server_fired_on;
  std::atomic<std::int64_t> server_fired_at{0};
  t.schedule_after(1, kDelayNs, [&] {
    server_fired_on = std::this_thread::get_id();
    server_fired_at.store(t.now_ns(), std::memory_order_release);
  });
  std::thread::id client_fired_on;
  std::int64_t client_fired_at = 0;
  t.schedule_after(0, kDelayNs, [&] {
    client_fired_on = std::this_thread::get_id();
    client_fired_at = t.now_ns();
  });
  const Status status = t.run_until(0, [&] {
    return client_fired_at != 0 &&
           server_fired_at.load(std::memory_order_acquire) != 0;
  });
  t.stop_progress_threads();
  ASSERT_TRUE(status.is_ok()) << status.to_string();

  EXPECT_EQ(server_fired_on, server_context);
  EXPECT_EQ(client_fired_on, std::this_thread::get_id());
  EXPECT_GE(server_fired_at.load() - armed_at, kDelayNs);
  EXPECT_GE(client_fired_at - armed_at, kDelayNs);
}

// The watchdog must fire even when progress() never goes idle: a timer
// that re-arms itself at zero delay makes every progress(0) call do work,
// so only the periodic deadline poll can end run_until.
TEST_P(WallClockP, RunUntilTimesOutWhileProgressStaysBusy) {
  constexpr std::int64_t kTimeoutMs = 100;
  auto transport = make(2, kTimeoutMs);
  ASSERT_NE(transport, nullptr);
  fabric::WallClockTransport& t = *transport;

  std::uint64_t fired = 0;
  std::function<void()> rearm = [&] {
    ++fired;
    t.schedule_after(0, 0, rearm);
  };
  t.schedule_after(0, 0, rearm);
  const std::int64_t started = t.now_ns();
  const Status status = t.run_until(0, [] { return false; });
  const std::int64_t elapsed = t.now_ns() - started;

  EXPECT_EQ(status.code(), ErrorCode::kResourceExhausted) << status.to_string();
  EXPECT_NE(status.message().find(GetParam().name + " run_until"),
            std::string::npos)
      << status.to_string();
  EXPECT_FALSE(fabric::is_backpressure(status));
  EXPECT_GE(elapsed, kTimeoutMs * 1'000'000);
  EXPECT_GT(fired, 256u) << "progress was not kept busy";
}

}  // namespace tc::wall_clock
