// SocketTransport coverage: the shared transport conformance and
// wall-clock suites run against the real-sockets backend in threaded
// (socketpair) mode, plus socket-specific behaviour the other backends
// cannot exhibit — wire-codec framing under concurrency, bounded-send-buffer
// backpressure, abrupt peer disconnect, and a hostile peer forging frame
// headers. The true multi-process deployment of the same codec is exercised
// by socket_mp_test.cpp / tools/tc_launch.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fabric/socket_transport.hpp"
#include "fabric/transport.hpp"
#include "transport_conformance.hpp"
#include "wall_clock_suite.hpp"

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

using wall_clock::WallClockP;

INSTANTIATE_TEST_SUITE_P(
    Backends, WallClockP,
    ::testing::Values(wall_clock::WallClockParam{
        "socket",
        [](std::size_t nodes, std::int64_t run_until_timeout_ms)
            -> std::shared_ptr<fabric::WallClockTransport> {
          fabric::SocketTransportOptions options;
          options.run_until_timeout_ms = run_until_timeout_ms;
          auto socket_or =
              fabric::SocketTransport::create_threaded(nodes, options);
          if (!socket_or.is_ok()) return nullptr;
          return std::move(*socket_or);
        }}),
    wall_clock::param_name);

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

TEST(SocketTransport, EchoStormWireStatsCountEveryFrame) {
  // The wall-clock suite's storm, where every AM and its ack crosses the
  // wire codec and the kernel's socketpair buffers.
  auto socket_or = fabric::SocketTransport::create_threaded(3);
  ASSERT_TRUE(socket_or.is_ok()) << socket_or.status().to_string();
  fabric::SocketTransport& sock = **socket_or;
  constexpr int kPerServer = 500;
  std::atomic<int> echoes{0};
  const Status status = wall_clock::run_am_echo_storm(sock, kPerServer, echoes);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  const fabric::SocketTransport::Stats stats = sock.stats();
  EXPECT_GE(stats.frames_sent, 2u * kPerServer);
  EXPECT_GE(stats.bytes_received, stats.frames_received * 44u)
      << "every frame carries at least the wire header";
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

// --- hostile peer ----------------------------------------------------------
// A raw client speaking the codec by hand plays node 1 of a process-mode
// pair: it completes the bootstrap hello honestly, then forges the `src` of
// a frame header. The receiver must treat the link as the sender and
// disconnect on the lie — no thread fork, so the sanitizer jobs run it.

void put_le(Bytes& out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

// [u32 length][u8 kind][u8 code][u16 am_id][u32 src][u64 cid][u64 f0..f2]
Bytes raw_frame(std::uint8_t kind, std::uint32_t src, std::uint64_t cid,
                const Bytes& payload) {
  Bytes out;
  put_le(out, 40 + payload.size(), 4);
  put_le(out, kind, 1);
  put_le(out, 0, 1);
  put_le(out, 0, 2);
  put_le(out, src, 4);
  put_le(out, cid, 8);
  for (int f = 0; f < 3; ++f) put_le(out, 0, 8);  // f0..f2
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

constexpr std::uint8_t kRawHello = 1;
constexpr std::uint8_t kRawSend = 2;

class SocketHostilePeer : public ::testing::Test {
 protected:
  // Brings up node 0 of 2 in process mode with the raw client as node 1.
  void SetUp() override {
    path_ = "/tmp/tc_hostile_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".sock";
    ::unlink(path_.c_str());
    // create_process blocks until node 1 says hello, so the raw client
    // dials from a thread; it retries until node 0 has bound its path.
    std::thread dialer([this] {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (std::chrono::steady_clock::now() < deadline) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
          raw_fd_ = fd;
          write_raw(raw_frame(kRawHello, /*src=*/1, 0, {}));
          return;
        }
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    fabric::SocketTransportOptions options;
    options.connect_timeout_ms = 10'000;
    options.run_until_timeout_ms = 10'000;
    auto sock_or = fabric::SocketTransport::create_process(
        2, 0, {"unix:" + path_, "unix:" + path_ + ".peer"}, options);
    dialer.join();
    ASSERT_TRUE(sock_or.is_ok()) << sock_or.status().to_string();
    ASSERT_GE(raw_fd_, 0);
    sock_ = std::move(*sock_or);
  }

  void TearDown() override {
    sock_.reset();
    if (raw_fd_ >= 0) ::close(raw_fd_);
    ::unlink(path_.c_str());
  }

  void write_raw(const Bytes& bytes) {
    ASSERT_EQ(::send(raw_fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  std::string path_;
  int raw_fd_ = -1;
  std::unique_ptr<fabric::SocketTransport> sock_;
};

TEST_F(SocketHostilePeer, OutOfRangeSourceDisconnectsTheLink) {
  // src = 7 of 2 nodes: acking it would index past the link table.
  write_raw(raw_frame(kRawSend, /*src=*/7, /*cid=*/1, Bytes{0xEE}));
  const Status status =
      sock_->run_until(0, [&] { return sock_->stats().disconnects > 0; });
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_FALSE(sock_->try_recv(0).has_value()) << "forged frame delivered";
  EXPECT_EQ(sock_->stats().frames_received, 0u);
}

TEST_F(SocketHostilePeer, ForgedSelfSourceCannotCompleteTheReceiversOps) {
  // Node 0 waits on its first op (cid 1): a send the raw peer never acks.
  Status seen = internal_error("never fired");
  bool fired = false;
  Bytes msg{1, 2, 3};
  sock_->post_send(0, 1, as_span(msg), 1, [&](Status s) {
    fired = true;
    seen = std::move(s);
  });
  // A kSend "from node 0" with cid 1 would make node 0 ack itself and
  // complete its own pending op with OK.
  write_raw(raw_frame(kRawSend, /*src=*/0, /*cid=*/1, Bytes{0xEE}));
  const Status status = sock_->run_until(0, [&] { return fired; });
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(seen.code(), ErrorCode::kUnavailable) << seen.to_string();
  EXPECT_EQ(sock_->stats().disconnects, 1u);
  EXPECT_FALSE(sock_->try_recv(0).has_value()) << "forged frame delivered";
}

}  // namespace
}  // namespace tc
