// SocketTransport coverage: the shared transport conformance and
// wall-clock suites run against the real-sockets backend in threaded
// (socketpair) mode, plus socket-specific behaviour the other backends
// cannot exhibit — wire-codec framing under concurrency, when a frame is
// written (at once from the top level, gathered per link after a read's
// handlers ran), bounded-send-buffer backpressure, abrupt peer disconnect,
// and a hostile peer forging frame headers or flooding requests. The true
// multi-process deployment of the same codec is exercised by
// socket_mp_test.cpp / tools/tc_launch.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
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

// --- when frames leave -------------------------------------------------------
// Node 0 posts one AM to node 1 from the top level; node 1's handler posts
// frame i of `sizes` to node 2 as a two-sided send of pattern(i, sizes[i]).

constexpr fabric::AmId kFanOutAm = 9;
constexpr std::size_t kWireHeader = 44;  // u32 length + 40-byte header

Bytes pattern(std::size_t index, std::size_t size) {
  Bytes out(size);
  for (std::size_t b = 0; b < size; ++b) {
    out[b] = static_cast<std::uint8_t>(index * 31 + b * 7);
  }
  return out;
}

struct FanOut {
  std::vector<std::size_t> sizes;
  bool handled = false;
  /// Stats::writes seen inside the handler, after its last post.
  std::uint64_t writes_in_handler = 0;
};

void register_fan_out(fabric::SocketTransport& sock, FanOut& fan) {
  auto handler = [&sock, &fan](ByteSpan, fabric::NodeId) {
    for (std::size_t i = 0; i < fan.sizes.size(); ++i) {
      const Bytes frame = pattern(i, fan.sizes[i]);
      sock.post_send(1, 2, as_span(frame), 1, {});
    }
    fan.writes_in_handler = sock.stats().writes;
    fan.handled = true;
  };
  ASSERT_TRUE(sock.register_am_handler(1, kFanOutAm, handler).is_ok());
}

/// Drives nodes 1 and 2 until node 2 holds every frame of `fan`, then
/// checks each arrived once, in order and byte-exact.
void expect_fan_out_delivered(fabric::SocketTransport& sock,
                              const FanOut& fan) {
  std::vector<fabric::ReceivedMessage> got;
  for (int spin = 0; spin < 1'000'000 && got.size() < fan.sizes.size();
       ++spin) {
    (void)sock.progress(1);
    (void)sock.progress(2);
    while (auto msg = sock.try_recv(2)) got.push_back(std::move(*msg));
  }
  for (int spin = 0; spin < 1'000; ++spin) {
    (void)sock.progress(1);
    (void)sock.progress(2);
    while (auto msg = sock.try_recv(2)) got.push_back(std::move(*msg));
  }
  ASSERT_EQ(got.size(), fan.sizes.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].source, 1u) << "frame " << i;
    EXPECT_TRUE(got[i].data == pattern(i, fan.sizes[i]))
        << "frame " << i << " (" << fan.sizes[i] << " bytes) arrived as "
        << got[i].data.size() << " bytes or out of order";
  }
}

TEST(SocketTransport, TopLevelPostWritesBeforeAnyProgress) {
  auto socket_or = fabric::SocketTransport::create_threaded(2);
  ASSERT_TRUE(socket_or.is_ok());
  fabric::SocketTransport& sock = **socket_or;
  const Bytes msg{1, 2, 3};
  const fabric::SocketTransport::Stats before = sock.stats();
  sock.post_send(0, 1, as_span(msg), 1, {});
  const fabric::SocketTransport::Stats after = sock.stats();
  EXPECT_EQ(after.writes, before.writes + 1);
  EXPECT_EQ(after.bytes_sent, before.bytes_sent + kWireHeader + msg.size());
  std::optional<fabric::ReceivedMessage> got;
  for (int spin = 0; spin < 1'000'000 && !got; ++spin) {
    (void)sock.progress(1);
    got = sock.try_recv(1);
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->data == msg);
}

TEST(SocketTransport, HandlerPostsLeaveInOneGatheredWritePerLink) {
  auto socket_or = fabric::SocketTransport::create_threaded(3);
  ASSERT_TRUE(socket_or.is_ok());
  fabric::SocketTransport& sock = **socket_or;
  FanOut fan;
  for (std::size_t i = 0; i < 16; ++i) fan.sizes.push_back(1 + 5 * i);
  register_fan_out(sock, fan);
  if (HasFatalFailure()) return;

  const Bytes go{7};
  sock.post_am(0, 1, kFanOutAm, as_span(go), {});
  const fabric::SocketTransport::Stats before = sock.stats();
  for (int spin = 0; spin < 1'000'000 && !fan.handled; ++spin) {
    (void)sock.progress(1);
  }
  ASSERT_TRUE(fan.handled);
  EXPECT_EQ(fan.writes_in_handler, before.writes)
      << "a handler's post was written before its read was handled";
  const fabric::SocketTransport::Stats after = sock.stats();
  EXPECT_EQ(after.frames_sent, before.frames_sent + fan.sizes.size());
  EXPECT_EQ(after.writes, before.writes + 1)
      << "the handler's frames to one idle peer take one sendmsg";
  EXPECT_EQ(after.partial_writes, before.partial_writes);
  expect_fan_out_delivered(sock, fan);
}

TEST(SocketTransport, GatheredShortWriteResumesMidFrame) {
  // The handler queues ~3.5 MB of mixed-size frames toward node 2, which
  // is not driven, so the one gathered write stops inside the list and
  // inside a frame; the rest must follow intact once node 2 reads. The
  // budget is raised so that no frame is refused.
  fabric::SocketTransportOptions options;
  options.send_buffer_bytes = 64 * 1024 * 1024;
  auto socket_or = fabric::SocketTransport::create_threaded(3, options);
  ASSERT_TRUE(socket_or.is_ok());
  fabric::SocketTransport& sock = **socket_or;
  FanOut fan;
  const std::size_t cycle[] = {1,     256 * 1024, 13,  100 * 1024 + 3,
                               4'096, 256 * 1024 - 1, 777, 64 * 1024};
  for (int round = 0; round < 5; ++round) {
    for (std::size_t size : cycle) fan.sizes.push_back(size);
  }
  std::vector<std::size_t> boundaries{0};
  for (std::size_t size : fan.sizes) {
    boundaries.push_back(boundaries.back() + kWireHeader + size);
  }
  register_fan_out(sock, fan);
  if (HasFatalFailure()) return;

  const Bytes go{7};
  sock.post_am(0, 1, kFanOutAm, as_span(go), {});
  const fabric::SocketTransport::Stats before = sock.stats();
  for (int spin = 0; spin < 1'000'000 && !fan.handled; ++spin) {
    (void)sock.progress(1);
  }
  ASSERT_TRUE(fan.handled);
  const fabric::SocketTransport::Stats after = sock.stats();
  EXPECT_EQ(after.writes, before.writes + 1);
  EXPECT_GE(after.partial_writes, before.partial_writes + 1);
  EXPECT_EQ(after.backpressure_rejects, 0u);
  const std::size_t written = after.bytes_sent - before.bytes_sent;
  EXPECT_LT(written, boundaries.back()) << "the whole list fit one write";
  EXPECT_EQ(std::count(boundaries.begin(), boundaries.end(), written), 0)
      << "the short write ended on a frame boundary";
  expect_fan_out_delivered(sock, fan);
  EXPECT_EQ(sock.stats().bytes_sent - before.bytes_sent, boundaries.back());
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
                const Bytes& payload, std::uint64_t f0 = 0,
                std::uint64_t f1 = 0, std::uint64_t f2 = 0) {
  Bytes out;
  put_le(out, 40 + payload.size(), 4);
  put_le(out, kind, 1);
  put_le(out, 0, 1);
  put_le(out, 0, 2);
  put_le(out, src, 4);
  put_le(out, cid, 8);
  for (std::uint64_t f : {f0, f1, f2}) put_le(out, f, 8);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

constexpr std::uint8_t kRawHello = 1;
constexpr std::uint8_t kRawSend = 2;
constexpr std::uint8_t kRawGet = 5;  // f0 = rkey, f1 = offset, f2 = length

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

TEST_F(SocketHostilePeer, GetFloodPastTheControlCapDisconnects) {
  // GET replies are control frames: they skip the send budget so that a
  // completion is never lost to backpressure. A peer that keeps asking
  // and never reads must still not grow node 0's queue without bound.
  std::vector<std::uint8_t> segment(64 * 1024, 0x5A);
  ASSERT_TRUE(
      sock_->expose_segment(0, segment.data(), segment.size()).is_ok());
  const std::uint64_t rkey = sock_->exposed_segment(0)->rkey;
  // A send the raw peer never acks: the refusal must fail it.
  Status seen = internal_error("never fired");
  bool fired = false;
  Bytes msg{1, 2, 3};
  sock_->post_send(0, 1, as_span(msg), 1, [&](Status s) {
    fired = true;
    seen = std::move(s);
  });
  // 1024 whole-segment GETs ask for 64 MiB of replies, four times the cap
  // at the default 4 MiB budget; the count is bounded so that a node
  // without the cap queues them all and its run_until times out.
  constexpr std::uint64_t kGets = 1024;
  std::uint64_t asked = 0;
  Bytes pending;
  const Status status = sock_->run_until(0, [&] {
    if (fired) return true;
    if (pending.empty() && asked < kGets) {
      for (int i = 0; i < 64; ++i) {
        const Bytes get = raw_frame(kRawGet, /*src=*/1, /*cid=*/++asked, {},
                                    rkey, 0, segment.size());
        pending.insert(pending.end(), get.begin(), get.end());
      }
    }
    if (!pending.empty()) {
      const ssize_t n = ::send(raw_fd_, pending.data(), pending.size(),
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) pending.erase(pending.begin(), pending.begin() + n);
    }
    return false;
  });
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(seen.code(), ErrorCode::kUnavailable) << seen.to_string();
  EXPECT_EQ(sock_->stats().control_overflows, 1u);
  EXPECT_EQ(sock_->stats().disconnects, 1u);
}

TEST_F(SocketHostilePeer, OneProgressPassReadsAtMostOneBuffer) {
  // A peer that writes as fast as node 0 reads must not hold node 0's
  // progress context in one link: a pass takes one recv of at most 64 KiB,
  // and later passes deliver the rest, in order.
  constexpr std::size_t kReadBytes = 64 * 1024;
  constexpr std::size_t kFrames = 64;
  Bytes stream;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const Bytes frame = raw_frame(kRawSend, /*src=*/1, /*cid=*/0,
                                  Bytes(4096, static_cast<std::uint8_t>(i)));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  ASSERT_GT(stream.size(), 3 * kReadBytes);
  // One blocking send per frame from a helper thread, which blocks once
  // the socket buffer is full and resumes as node 0 reads.
  const std::size_t frame_bytes = stream.size() / kFrames;
  std::atomic<std::size_t> written{0};
  std::thread writer([&] {
    for (std::size_t off = 0; off < stream.size();) {
      const ssize_t n =
          ::send(raw_fd_, stream.data() + off,
                 std::min(frame_bytes, stream.size() - off), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
      written.store(off, std::memory_order_release);
    }
  });
  // A failed assertion must not leave the writer blocked in send.
  struct Joiner {
    std::thread& thread;
    int fd;
    ~Joiner() {
      if (!thread.joinable()) return;
      ::shutdown(fd, SHUT_RDWR);
      thread.join();
    }
  } joiner{writer, raw_fd_};
  // Let the writer fill the socket before node 0 progresses: wait until it
  // is done or has stalled on a full buffer.
  std::size_t seen = 0;
  for (int quiet = 0; quiet < 20 && seen < stream.size();) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::size_t now = written.load(std::memory_order_acquire);
    quiet = now == seen ? quiet + 1 : 0;
    seen = now;
  }
  ASSERT_GT(seen, 2 * kReadBytes) << "the socket buffer took too little";

  const std::uint64_t before = sock_->stats().bytes_received;
  (void)sock_->progress(0);
  const std::uint64_t first_pass = sock_->stats().bytes_received - before;
  EXPECT_GT(first_pass, 0u);
  EXPECT_LE(first_pass, kReadBytes);

  std::vector<Bytes> delivered;
  const Status status = sock_->run_until(0, [&] {
    while (auto msg = sock_->try_recv(0)) {
      delivered.push_back(std::move(msg->data));
    }
    return delivered.size() == kFrames;
  });
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  writer.join();
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(delivered[i], Bytes(4096, static_cast<std::uint8_t>(i)))
        << "frame " << i;
  }
  EXPECT_EQ(sock_->stats().frames_received, kFrames);
  EXPECT_EQ(sock_->stats().disconnects, 0u);
}

}  // namespace
}  // namespace tc
