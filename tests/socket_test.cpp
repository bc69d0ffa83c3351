// SocketTransport coverage: the shared transport conformance suite run
// against the real-sockets backend in threaded (socketpair) mode, plus
// socket-specific behaviour the other backends cannot exhibit — wire-codec
// framing under concurrency, bounded-send-buffer backpressure, and abrupt
// peer disconnect. The true multi-process deployment of the same codec is
// exercised by socket_mp_test.cpp / tools/tc_launch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fabric/socket_transport.hpp"
#include "fabric/transport.hpp"
#include "transport_conformance.hpp"

namespace tc {
namespace {

conformance::BackendInstance make_socket(std::size_t nodes) {
  auto socket_or = fabric::SocketTransport::create_threaded(nodes);
  if (!socket_or.is_ok()) return {};
  std::shared_ptr<fabric::SocketTransport> holder = std::move(*socket_or);
  return {holder, holder.get()};
}

using conformance::TransportConformance;

INSTANTIATE_TEST_SUITE_P(
    Backends, TransportConformance,
    ::testing::Values(conformance::ConformanceParam{
        "socket", /*deterministic=*/false, make_socket}),
    conformance::param_name);

// --- socket-specific coverage ------------------------------------------------

TEST(SocketTransport, UnixEndpointsNameEveryNode) {
  const auto eps = fabric::SocketTransport::unix_endpoints(3, "/tmp/tc");
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[0], "unix:/tmp/tc/n0.sock");
  EXPECT_EQ(eps[2], "unix:/tmp/tc/n2.sock");
}

TEST(SocketTransport, ProcessModeRejectsMalformedEndpoints) {
  auto bad = fabric::SocketTransport::create_process(
      2, 0, {"unix:/tmp/x.sock", "carrier-pigeon:coop7"});
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
  auto miscounted = fabric::SocketTransport::create_process(
      3, 0, {"unix:/tmp/x.sock"});
  EXPECT_FALSE(miscounted.is_ok());
}

TEST(SocketTransport, AmEchoStormAcrossProgressThreads) {
  // Same storm the shm backend runs, but every AM and its ack crosses the
  // wire codec and the kernel's socketpair buffers.
  auto socket_or = fabric::SocketTransport::create_threaded(3);
  ASSERT_TRUE(socket_or.is_ok()) << socket_or.status().to_string();
  fabric::SocketTransport& sock = **socket_or;
  std::atomic<int> echoes{0};
  ASSERT_TRUE(sock.register_am_handler(0, 5,
                                       [&](ByteSpan, fabric::NodeId) {
                                         echoes.fetch_add(
                                             1, std::memory_order_relaxed);
                                       })
                  .is_ok());
  for (fabric::NodeId server : {1u, 2u}) {
    ASSERT_TRUE(sock.register_am_handler(
                        server, 5,
                        [&sock, server](ByteSpan payload,
                                        fabric::NodeId source) {
                          sock.post_am(server, source, 5, payload, {});
                        })
                    .is_ok());
  }
  sock.start_progress_threads({1, 2});

  constexpr int kPerServer = 500;
  Bytes payload{0x42};
  for (int i = 0; i < kPerServer; ++i) {
    sock.post_am(0, 1, 5, as_span(payload), {});
    sock.post_am(0, 2, 5, as_span(payload), {});
  }
  Status status = sock.run_until(
      0, [&] { return echoes.load(std::memory_order_relaxed) ==
                      2 * kPerServer; });
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  sock.stop_progress_threads();
  EXPECT_EQ(echoes.load(), 2 * kPerServer);
  const fabric::SocketTransport::Stats stats = sock.stats();
  EXPECT_GE(stats.frames_sent, 2u * kPerServer);
  EXPECT_GE(stats.bytes_received, stats.frames_received * 44u)
      << "every frame carries at least the wire header";
}

TEST(SocketTransport, ConcurrentPutsLandInDistinctWindowSlots) {
  auto socket_or = fabric::SocketTransport::create_threaded(4);
  ASSERT_TRUE(socket_or.is_ok());
  fabric::SocketTransport& sock = **socket_or;
  auto window = sock.allocate_window(3, 3 * sizeof(std::uint64_t));
  ASSERT_TRUE(window.is_ok());
  sock.start_progress_threads({3});

  std::vector<std::thread> initiators;
  for (fabric::NodeId n = 0; n < 3; ++n) {
    initiators.emplace_back([&sock, &window, n] {
      const std::uint64_t value = 0x2000 + n;
      Bytes data(sizeof(value));
      std::memcpy(data.data(), &value, sizeof(value));
      std::atomic<bool> done{false};
      sock.post_put(n, window->remote_addr(3, n * sizeof(std::uint64_t)),
                    as_span(data), [&](Status s) {
                      ASSERT_TRUE(s.is_ok()) << s.to_string();
                      done.store(true, std::memory_order_relaxed);
                    });
      Status st = sock.run_until(
          n, [&] { return done.load(std::memory_order_relaxed); });
      ASSERT_TRUE(st.is_ok()) << st.to_string();
    });
  }
  for (auto& t : initiators) t.join();
  sock.stop_progress_threads();

  for (std::uint64_t n = 0; n < 3; ++n) {
    std::uint64_t slot = 0;
    std::memcpy(&slot, window->base + n * sizeof(slot), sizeof(slot));
    EXPECT_EQ(slot, 0x2000 + n);
  }
}

TEST(SocketTransport, SlowConsumerBackpressureFailsPostAndRecovers) {
  // A tx budget far below one message: the first frame is accepted (the
  // queue was empty) but cannot drain into the kernel buffer while node 1
  // never runs, so the next post must fail with the shared backpressure
  // status — not block, not crash.
  struct Post {
    bool fired = false;
    Status status = internal_error("never fired");
  };
  // An accepted post completes only once node 1 acks it, long after its
  // loop iteration: each post's state lives here, at a stable address,
  // and outlives the transport.
  std::deque<Post> posts;
  fabric::SocketTransportOptions options;
  options.send_buffer_bytes = 16 * 1024;
  auto socket_or = fabric::SocketTransport::create_threaded(2, options);
  ASSERT_TRUE(socket_or.is_ok());
  fabric::SocketTransport& sock = **socket_or;

  const Bytes big(1024 * 1024, 0xAB);
  // Without draining node 1, the socketpair buffer + tx queue fill. An
  // accepted post leaves its completion pending (the ack needs node 1); a
  // rejected one fails it immediately — keep posting until that happens.
  Status rejected = Status::ok();
  bool saw_reject = false;
  for (int i = 0; i < 64 && !saw_reject; ++i) {
    Post& post = posts.emplace_back();
    sock.post_send(0, 1, as_span(big), 1, [&post](Status s) {
      post.fired = true;
      post.status = std::move(s);
    });
    for (int spin = 0; spin < 100; ++spin) (void)sock.progress(0);
    if (post.fired) {
      saw_reject = true;
      rejected = post.status;
    }
  }
  ASSERT_TRUE(saw_reject) << "64 MiB queued without a backpressure signal";
  EXPECT_FALSE(rejected.is_ok());
  EXPECT_TRUE(fabric::is_backpressure(rejected)) << rejected.to_string();
  EXPECT_GE(sock.stats().backpressure_rejects, 1u);
  EXPECT_GE(sock.stats().partial_writes, 1u)
      << "a 1MiB frame cannot enter the kernel buffer in one write";

  // Recovery: drain the consumer, then the same post succeeds.
  int drained = 0;
  for (int spin = 0; spin < 1'000'000; ++spin) {
    (void)sock.progress(0);
    (void)sock.progress(1);
    while (sock.try_recv(1).has_value()) ++drained;
    if (drained > 0) break;
  }
  EXPECT_GT(drained, 0);
  bool ok_fired = false;
  Status ok_status = internal_error("never fired");
  sock.post_send(0, 1, as_span(big), 1, [&](Status s) {
    ok_fired = true;
    ok_status = std::move(s);
  });
  for (int spin = 0; spin < 1'000'000 && !ok_fired; ++spin) {
    (void)sock.progress(0);
    (void)sock.progress(1);
    (void)sock.try_recv(1);
  }
  ASSERT_TRUE(ok_fired);
  EXPECT_TRUE(ok_status.is_ok()) << ok_status.to_string();
}

TEST(SocketTransport, KillConnectionFailsPendingCompletionsWithUnavailable) {
  auto socket_or = fabric::SocketTransport::create_threaded(2);
  ASSERT_TRUE(socket_or.is_ok());
  fabric::SocketTransport& sock = **socket_or;

  // A send whose ack can never come back once the link dies.
  Bytes msg{1, 2, 3, 4};
  Status seen = internal_error("never fired");
  bool fired = false;
  sock.post_send(0, 1, as_span(msg), 1, [&](Status s) {
    fired = true;
    seen = std::move(s);
  });
  ASSERT_TRUE(sock.kill_connection(0, 1).is_ok());
  for (int spin = 0; spin < 1'000'000 && !fired; ++spin) {
    (void)sock.progress(0);
  }
  ASSERT_TRUE(fired);
  EXPECT_EQ(seen.code(), ErrorCode::kUnavailable) << seen.to_string();
  EXPECT_GE(sock.stats().disconnects, 1u);

  // Posting into the dead link fails immediately with the same code.
  bool fired2 = false;
  Status seen2 = internal_error("never fired");
  sock.post_send(0, 1, as_span(msg), 1, [&](Status s) {
    fired2 = true;
    seen2 = std::move(s);
  });
  for (int spin = 0; spin < 1'000'000 && !fired2; ++spin) {
    (void)sock.progress(0);
  }
  ASSERT_TRUE(fired2);
  EXPECT_EQ(seen2.code(), ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace tc
