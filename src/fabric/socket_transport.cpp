#include "fabric/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "common/log.hpp"

namespace tc::fabric {

namespace {

// Bytes after the u32 length prefix that every frame carries before its
// payload: kind(1) code(1) am_id(2) src(4) cid(8) f0(8) f1(8) f2(8).
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kWireFrameMin = 4 + kHeaderBytes;
// Codec sanity bound; a longer frame on the wire is a protocol error and
// disconnects the link.
constexpr std::size_t kMaxFrameBytes = 64 * 1024 * 1024;
// Control frames bypass send_buffer_bytes but not this multiple of it: past
// it the link is refused (see the header comment).
constexpr std::size_t kControlQueueFactor = 4;
// Frames one sendmsg gathers; a longer queue takes more than one call.
constexpr std::size_t kMaxGather = 64;
// Bytes one read pass takes from a link: a single recv of at most this.
constexpr std::size_t kReadBytes = 64 * 1024;

void put_u16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(Bytes& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}
void put_u64(Bytes& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}
std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// Adds `n` to one of a node's counters. Only the node's progress context
// writes them, so a relaxed load and store do without a locked
// read-modify-write; stats() may read them from any thread.
void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

Status errno_status(const std::string& what) {
  return internal_error(what + ": " + std::strerror(errno));
}

struct Endpoint {
  bool is_unix = true;
  std::string path;        // unix
  std::string host;        // tcp
  std::uint16_t port = 0;  // tcp
};

StatusOr<Endpoint> parse_endpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.is_unix = true;
    ep.path = spec.substr(5);
    if (ep.path.empty()) return invalid_argument("empty unix path: " + spec);
    if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return invalid_argument("unix path too long (sun_path cap): " + spec);
    }
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.is_unix = false;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon + 1 == rest.size()) {
      return invalid_argument("want tcp:<ipv4>:<port>, got " + spec);
    }
    ep.host = rest.substr(0, colon);
    const long port = std::strtol(rest.c_str() + colon + 1, nullptr, 10);
    if (port <= 0 || port > 65535) {
      return invalid_argument("bad tcp port in " + spec);
    }
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  return invalid_argument("endpoint wants unix:<path> or tcp:<ip>:<port>: " +
                          spec);
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return errno_status("fcntl(O_NONBLOCK)");
  }
  return Status::ok();
}

void set_tcp_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return errno_status("bootstrap write");
    }
  }
  return Status::ok();
}

Status read_exact(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::recv(fd, data + off, size - off, 0);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EINTR)) {
      continue;
    } else if (n == 0) {
      return unavailable("bootstrap peer closed mid-hello");
    } else {
      return errno_status("bootstrap read");
    }
  }
  return Status::ok();
}

}  // namespace

SocketTransport::SocketTransport(std::size_t node_count, NodeId self,
                                 SocketTransportOptions options)
    : WallClockTransport(node_count, self, options.run_until_timeout_ms),
      options_(options),
      self_(self),
      links_(node_count) {
  for (NodeId node = 0; node < node_count; ++node) {
    if (is_local(node)) links_[node].to.resize(node_count);
  }
}

SocketTransport::~SocketTransport() {
  stop_progress_threads();
  for (NodeLinks& links : links_) {
    for (Link& link : links.to) {
      if (link.fd >= 0) ::close(link.fd);
      link.fd = -1;
    }
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!listen_unix_path_.empty()) ::unlink(listen_unix_path_.c_str());
}

std::vector<std::string> SocketTransport::unix_endpoints(
    std::size_t node_count, const std::string& dir) {
  std::vector<std::string> endpoints;
  endpoints.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    endpoints.push_back("unix:" + dir + "/n" + std::to_string(i) + ".sock");
  }
  return endpoints;
}

StatusOr<std::unique_ptr<SocketTransport>> SocketTransport::create_threaded(
    std::size_t node_count, SocketTransportOptions options) {
  if (node_count == 0) return invalid_argument("need at least one node");
  auto transport = std::unique_ptr<SocketTransport>(
      new SocketTransport(node_count, kAllLocal, options));
  for (std::size_t i = 0; i < node_count; ++i) {
    for (std::size_t j = i + 1; j < node_count; ++j) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        return errno_status("socketpair");
      }
      for (int fd : fds) {
        if (Status s = set_nonblocking(fd); !s.is_ok()) return s;
      }
      transport->links_[i].to[j] = Link{fds[0], true, {}, {}, 0, 0};
      transport->links_[j].to[i] = Link{fds[1], true, {}, {}, 0, 0};
    }
  }
  return transport;
}

StatusOr<std::unique_ptr<SocketTransport>> SocketTransport::create_process(
    std::size_t node_count, NodeId self,
    const std::vector<std::string>& endpoints, SocketTransportOptions options) {
  if (self >= node_count) return invalid_argument("self out of range");
  if (endpoints.size() != node_count) {
    return invalid_argument("need one endpoint per node");
  }
  // Validate the whole endpoint list before touching the network: a typo in
  // a peer we'd only accept from should fail fast, not as a bootstrap
  // timeout ten seconds later.
  for (const std::string& spec : endpoints) {
    TC_RETURN_IF_ERROR(parse_endpoint(spec).status());
  }
  auto transport = std::unique_ptr<SocketTransport>(
      new SocketTransport(node_count, self, options));
  std::vector<Link>& links = transport->links_[self].to;

  // 1. Bind + listen on our own endpoint so every later dialer succeeds
  //    regardless of accept timing (the backlog holds connections).
  TC_ASSIGN_OR_RETURN(Endpoint ep, parse_endpoint(endpoints[self]));
  if (ep.is_unix) {
    transport->listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (transport->listen_fd_ < 0) return errno_status("socket(AF_UNIX)");
    ::unlink(ep.path.c_str());  // stale path from a crashed previous run
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(transport->listen_fd_,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      return errno_status("bind(" + ep.path + ")");
    }
    transport->listen_unix_path_ = ep.path;
  } else {
    transport->listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (transport->listen_fd_ < 0) return errno_status("socket(AF_INET)");
    int one = 1;
    ::setsockopt(transport->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ep.port);
    if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
      return invalid_argument("bad ipv4 address: " + ep.host);
    }
    if (::bind(transport->listen_fd_,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      return errno_status("bind(tcp " + ep.host + ")");
    }
  }
  if (::listen(transport->listen_fd_, static_cast<int>(node_count)) != 0) {
    return errno_status("listen");
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options.connect_timeout_ms);

  // 2. Dial every lower-id peer (it may not have bound yet — retry until
  //    the deadline) and identify ourselves with a kHello frame.
  for (NodeId peer = 0; peer < self; ++peer) {
    TC_ASSIGN_OR_RETURN(Endpoint pep, parse_endpoint(endpoints[peer]));
    int fd = -1;
    for (;;) {
      fd = ::socket(pep.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return errno_status("socket(dial)");
      int rc;
      if (pep.is_unix) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, pep.path.c_str(),
                     sizeof(addr.sun_path) - 1);
        rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr));
      } else {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(pep.port);
        if (::inet_pton(AF_INET, pep.host.c_str(), &addr.sin_addr) != 1) {
          ::close(fd);
          return invalid_argument("bad ipv4 address: " + pep.host);
        }
        rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr));
      }
      if (rc == 0) break;
      ::close(fd);
      fd = -1;
      if (std::chrono::steady_clock::now() >= deadline) {
        return unavailable("bootstrap: node " + std::to_string(peer) +
                           " never came up at " + endpoints[peer]);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Frame hello;
    hello.kind = FrameKind::kHello;
    hello.src = self;
    const Bytes wire = encode(hello, {});
    if (Status s = write_all(fd, wire.data(), wire.size()); !s.is_ok()) {
      ::close(fd);
      return s;
    }
    links[peer] = Link{fd, true, {}, {}, 0, 0};
  }

  // 3. Accept every higher-id peer; the kHello names which one each is.
  std::size_t expected = node_count - 1 - self;
  while (expected > 0) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      return unavailable("bootstrap: timed out waiting for " +
                         std::to_string(expected) + " inbound peers");
    }
    pollfd pfd{transport->listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    const int fd = ::accept(transport->listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return errno_status("accept");
    }
    // A dead dialer must not hang the hello read forever.
    timeval tv{};
    tv.tv_sec = options.connect_timeout_ms / 1000;
    tv.tv_usec = (options.connect_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::uint8_t hello[kWireFrameMin];
    if (Status s = read_exact(fd, hello, sizeof(hello)); !s.is_ok()) {
      ::close(fd);
      return s;
    }
    const std::uint32_t len = get_u32(hello);
    const NodeId peer = get_u32(hello + 8);
    if (len != kHeaderBytes ||
        static_cast<FrameKind>(hello[4]) != FrameKind::kHello ||
        peer <= self || peer >= node_count || links[peer].fd >= 0) {
      ::close(fd);
      return internal_error("bootstrap: malformed hello from peer " +
                            std::to_string(peer));
    }
    links[peer] = Link{fd, true, {}, {}, 0, 0};
    --expected;
  }

  for (NodeId peer = 0; peer < node_count; ++peer) {
    if (peer == self) continue;
    Link& link = links[peer];
    if (Status s = set_nonblocking(link.fd); !s.is_ok()) return s;
    TC_ASSIGN_OR_RETURN(Endpoint pep, parse_endpoint(endpoints[peer]));
    if (!pep.is_unix) set_tcp_nodelay(link.fd);
  }
  // The mesh is complete: nobody will dial us again.
  ::close(transport->listen_fd_);
  transport->listen_fd_ = -1;
  if (!transport->listen_unix_path_.empty()) {
    ::unlink(transport->listen_unix_path_.c_str());
    transport->listen_unix_path_.clear();
  }
  return transport;
}

// --- wire codec ---------------------------------------------------------------

Bytes SocketTransport::encode(const Frame& frame, ByteSpan payload) {
  Bytes out;
  out.reserve(kWireFrameMin + payload.size());
  put_u32(out, static_cast<std::uint32_t>(kHeaderBytes + payload.size()));
  out.push_back(static_cast<std::uint8_t>(frame.kind));
  out.push_back(frame.code);
  put_u16(out, frame.am_id);
  put_u32(out, frame.src);
  put_u64(out, frame.cid);
  put_u64(out, frame.f0);
  put_u64(out, frame.f1);
  put_u64(out, frame.f2);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Status SocketTransport::send_frame(NodeId node, NodeId peer, Bytes wire,
                                   bool control) {
  NodeLinks& links = links_[node];
  Link& link = links.to[peer];
  if (link.fd < 0) {
    return invalid_argument("no link from node " + std::to_string(node) +
                            " to node " + std::to_string(peer));
  }
  if (!link.connected) {
    return unavailable("peer " + std::to_string(peer) + " disconnected");
  }
  if (!control && link.tx_queued >= options_.send_buffer_bytes) {
    backpressure_rejects_.fetch_add(1, std::memory_order_relaxed);
    return backpressure_status(node, peer);
  }
  if (control &&
      link.tx_queued > kControlQueueFactor * options_.send_buffer_bytes) {
    control_overflows_.fetch_add(1, std::memory_order_relaxed);
    disconnect_link(node, peer, "control queue overflow");
    return unavailable("peer " + std::to_string(peer) +
                       " disconnected: control queue overflow");
  }
  link.tx_queued += wire.size();
  link.tx.push_back(std::move(wire));
  bump(links.frames_sent);
  // Inside frame handling the frame waits for read_link's flush_queued.
  if (!links.handling) flush_link(node, peer);
  return Status::ok();
}

bool SocketTransport::flush_link(NodeId node, NodeId peer) {
  NodeLinks& links = links_[node];
  Link& link = links.to[peer];
  if (!link.connected) return false;
  bool wrote = false;
  iovec iov[kMaxGather];
  while (!link.tx.empty()) {
    std::size_t count = 0;
    std::size_t want = 0;
    for (auto it = link.tx.begin(); it != link.tx.end() && count < kMaxGather;
         ++it, ++count) {
      const std::size_t skip = count == 0 ? link.tx_front_off : 0;
      iov[count].iov_base = const_cast<std::uint8_t*>(it->data()) + skip;
      iov[count].iov_len = it->size() - skip;
      want += iov[count].iov_len;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(link.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      wrote = true;
      bump(links.writes);
      bump(links.bytes_sent, static_cast<std::uint64_t>(n));
      link.tx_queued -= static_cast<std::size_t>(n);
      // Retire the frames the kernel took whole; a frame it took part of
      // stays at the front with tx_front_off marking where to resume, so
      // frame bytes never interleave.
      std::size_t taken = static_cast<std::size_t>(n);
      while (taken > 0) {
        const std::size_t rest = link.tx.front().size() - link.tx_front_off;
        if (taken < rest) {
          link.tx_front_off += taken;
          break;
        }
        taken -= rest;
        link.tx.pop_front();
        link.tx_front_off = 0;
      }
      if (static_cast<std::size_t>(n) < want) {
        // A short write: the kernel buffer is full and the rest stays
        // queued.
        partial_writes_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      disconnect_link(node, peer, "write failed");
      break;
    }
  }
  return wrote;
}

void SocketTransport::flush_queued(NodeId node) {
  std::vector<Link>& to = links_[node].to;
  for (NodeId peer = 0; peer < to.size(); ++peer) {
    if (!to[peer].tx.empty()) flush_link(node, peer);
  }
}

bool SocketTransport::read_link(NodeId node, NodeId peer) {
  NodeLinks& links = links_[node];
  Link& link = links.to[peer];
  if (!link.connected) return false;
  // One recv per pass: a peer that writes as fast as this node reads
  // cannot hold the progress context here, and rx never holds more than
  // one partial frame plus one buffer. What is left in the kernel waits
  // for the next pass, behind the node's timers and other links.
  std::uint8_t buf[kReadBytes];
  ssize_t n = ::recv(link.fd, buf, sizeof(buf), 0);
  while (n < 0 && errno == EINTR) n = ::recv(link.fd, buf, sizeof(buf), 0);
  if (n > 0) {
    bump(links.bytes_received, static_cast<std::uint64_t>(n));
    link.rx.insert(link.rx.end(), buf, buf + n);
    // What the handlers post meanwhile is queued, and leaves in one
    // gathered write per link as soon as the read's frames are handled.
    links.handling = true;
    parse_frames(node, peer, link);
    links.handling = false;
    flush_queued(node);
    return true;
  }
  // Every complete frame before an EOF or error was handled by an earlier
  // pass; disconnect_link discards (and counts) a partial tail.
  if (n == 0) {
    disconnect_link(node, peer, "peer closed");
  } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
    disconnect_link(node, peer, "read failed");
  }
  return false;
}

void SocketTransport::parse_frames(NodeId node, NodeId peer, Link& link) {
  std::size_t off = 0;
  while (link.rx.size() - off >= 4) {
    const std::uint32_t len = get_u32(link.rx.data() + off);
    if (len < kHeaderBytes || len > kMaxFrameBytes) {
      TC_LOG(kError, "socket")
          << "node " << node << ": protocol error from peer " << peer
          << " (frame length " << len << ")";
      disconnect_link(node, peer, "protocol error");
      return;  // disconnect_link cleared rx
    }
    if (link.rx.size() - off - 4 < len) break;
    const std::uint8_t* p = link.rx.data() + off + 4;
    Frame frame;
    frame.src = get_u32(p + 4);
    if (frame.src != peer) {
      // The link names the sender; a header claiming another node would
      // index past the link table or pose as someone else.
      TC_LOG(kError, "socket")
          << "node " << node << ": protocol error from peer " << peer
          << " (frame claims src " << frame.src << ")";
      disconnect_link(node, peer, "protocol error");
      return;
    }
    frame.kind = static_cast<FrameKind>(p[0]);
    frame.code = p[1];
    frame.am_id = get_u16(p + 2);
    frame.cid = get_u64(p + 8);
    frame.f0 = get_u64(p + 16);
    frame.f1 = get_u64(p + 24);
    frame.f2 = get_u64(p + 32);
    frame.payload.assign(p + kHeaderBytes, p + len);
    off += 4 + len;
    bump(links_[node].frames_received);
    handle_frame(node, std::move(frame));
    // An ack send inside handle_frame may have torn this link down and
    // cleared rx under us.
    if (!link.connected) return;
  }
  if (off > 0) {
    link.rx.erase(link.rx.begin(),
                  link.rx.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

void SocketTransport::disconnect_link(NodeId node, NodeId peer,
                                      const char* reason) {
  Link& link = links_[node].to[peer];
  if (!link.connected) return;
  link.connected = false;
  if (!link.rx.empty()) {
    rx_partial_discards_.fetch_add(1, std::memory_order_relaxed);
  }
  link.rx.clear();
  link.tx.clear();
  link.tx_front_off = 0;
  link.tx_queued = 0;
  disconnects_.fetch_add(1, std::memory_order_relaxed);
  TC_LOG(kWarn, "socket") << "node " << node << ": link to peer " << peer
                          << " down (" << reason << ")";
  fail_completions_to(node, peer,
                      unavailable("peer " + std::to_string(peer) +
                                  " disconnected"));
}

void SocketTransport::reply(NodeId node, NodeId peer, Frame frame) {
  if (peer == node) {
    handle_frame(node, std::move(frame));
    return;
  }
  // Completions and barriers must survive full tx queues or flow control
  // deadlocks the protocol above it, so replies ride as control frames; a
  // dead link is already handled by fail_completions_to on the other
  // side's disconnect.
  (void)send_frame(node, peer, encode(frame, as_span(frame.payload)),
                   /*control=*/true);
}

void SocketTransport::handle_frame(NodeId node, Frame frame) {
  NodeState& state = node_state(node);
  Status status;
  switch (frame.kind) {
    case FrameKind::kSend:
      state.worker.deliver_message(std::move(frame.payload), frame.src);
      break;
    case FrameKind::kAm:
      status = state.worker.deliver_am(frame.am_id, std::move(frame.payload),
                                       frame.src);
      break;
    case FrameKind::kPut: {
      std::lock_guard lock(state.mem_mu);
      auto target =
          state.memory.translate(frame.f0, frame.f1, frame.payload.size());
      if (target.is_ok()) {
        std::memcpy(*target, frame.payload.data(), frame.payload.size());
      } else {
        status = target.status();
      }
      break;
    }
    case FrameKind::kGet: {
      Frame ack;
      ack.kind = FrameKind::kGetAck;
      ack.src = node;
      ack.cid = frame.cid;
      {
        std::lock_guard lock(state.mem_mu);
        auto source = state.memory.translate(frame.f0, frame.f1, frame.f2);
        if (source.is_ok()) {
          ack.payload.assign(*source, *source + frame.f2);
        } else {
          encode_ack_status(source.status(), ack.code, ack.payload);
        }
      }
      reply(node, frame.src, std::move(ack));
      return;
    }
    case FrameKind::kAck:
      complete(node, frame.cid, acked_status(frame.code, frame.payload));
      return;
    case FrameKind::kGetAck:
      if (frame.code == 0) {
        complete_get(node, frame.cid, std::move(frame.payload));
      } else {
        complete_get(node, frame.cid, acked_status(frame.code, frame.payload));
      }
      return;
    case FrameKind::kSegment: {
      MemRegion region;
      region.rkey = frame.f0;
      region.base = nullptr;  // one-sided access is serviced by the owner
      region.length = frame.f1;
      std::lock_guard lock(segments_mu_);
      remote_segments_[frame.src] = region;
      return;
    }
    case FrameKind::kBarrier:
      if (frame.f1 == 0) {
        ++barrier_arrivals_[frame.f0];
      } else {
        barrier_released_.insert(frame.f0);
      }
      return;
    default:
      return;  // kHello (bootstrap only) and unknown kinds are ignored
  }
  // kSend, kAm, kPut: ack when the initiator stashed a completion.
  if (frame.cid == 0) return;
  Frame ack;
  ack.kind = FrameKind::kAck;
  ack.src = node;
  ack.cid = frame.cid;
  encode_ack_status(status, ack.code, ack.payload);
  reply(node, frame.src, std::move(ack));
}

// --- data plane ---------------------------------------------------------------

SocketTransport::Stats SocketTransport::stats() const {
  Stats s;
  for (const NodeLinks& links : links_) {
    s.frames_sent += links.frames_sent.load(std::memory_order_relaxed);
    s.frames_received += links.frames_received.load(std::memory_order_relaxed);
    s.bytes_sent += links.bytes_sent.load(std::memory_order_relaxed);
    s.bytes_received += links.bytes_received.load(std::memory_order_relaxed);
    s.writes += links.writes.load(std::memory_order_relaxed);
  }
  s.partial_writes = partial_writes_.load(std::memory_order_relaxed);
  s.backpressure_rejects =
      backpressure_rejects_.load(std::memory_order_relaxed);
  s.control_overflows = control_overflows_.load(std::memory_order_relaxed);
  s.disconnects = disconnects_.load(std::memory_order_relaxed);
  s.rx_partial_discards = rx_partial_discards_.load(std::memory_order_relaxed);
  return s;
}

void SocketTransport::post_frame(NodeId src, NodeId dst, Frame frame,
                                 ByteSpan payload) {
  if (src == dst) {
    // Loopback: no wire, the initiator's context is the target's context.
    frame.payload.assign(payload.begin(), payload.end());
    handle_frame(src, std::move(frame));
    return;
  }
  Status posted = send_frame(src, dst, encode(frame, payload),
                             /*control=*/false);
  if (posted.is_ok() || frame.cid == 0) return;
  if (frame.kind == FrameKind::kGet) {
    complete_get(src, frame.cid, std::move(posted));
  } else {
    complete(src, frame.cid, std::move(posted));
  }
}

void SocketTransport::post_send(NodeId src, NodeId dst, Bytes data,
                                std::size_t fragments,
                                CompletionFn on_complete) {
  if (!admit_post("post_send", src, dst, on_complete)) return;
  Frame frame;
  frame.kind = FrameKind::kSend;
  frame.src = src;
  frame.f0 = fragments;
  if (on_complete) {
    frame.cid = stash_completion(src, dst, std::move(on_complete));
  }
  post_frame(src, dst, std::move(frame), as_span(data));
}

void SocketTransport::post_am(NodeId src, NodeId dst, AmId id, ByteSpan payload,
                              CompletionFn on_complete) {
  if (!admit_post("post_am", src, dst, on_complete)) return;
  Frame frame;
  frame.kind = FrameKind::kAm;
  frame.src = src;
  frame.am_id = id;
  if (on_complete) {
    frame.cid = stash_completion(src, dst, std::move(on_complete));
  }
  post_frame(src, dst, std::move(frame), payload);
}

void SocketTransport::post_put(NodeId src, const RemoteAddr& dst, ByteSpan data,
                               CompletionFn on_complete) {
  if (!admit_post("post_put", src, dst.node, on_complete)) return;
  Frame frame;
  frame.kind = FrameKind::kPut;
  frame.src = src;
  frame.f0 = dst.rkey;
  frame.f1 = dst.offset;
  if (on_complete) {
    frame.cid = stash_completion(src, dst.node, std::move(on_complete));
  }
  post_frame(src, dst.node, std::move(frame), data);
}

void SocketTransport::post_get(NodeId src, const RemoteAddr& addr,
                               std::size_t length,
                               GetCompletionFn on_complete) {
  if (!admit_post("post_get", src, addr.node, on_complete)) return;
  Frame frame;
  frame.kind = FrameKind::kGet;
  frame.src = src;
  frame.f0 = addr.rkey;
  frame.f1 = addr.offset;
  frame.f2 = length;
  frame.cid = stash_get_completion(src, addr.node, std::move(on_complete));
  post_frame(src, addr.node, std::move(frame), {});
}

// --- exposed segments -----------------------------------------------------------

Status SocketTransport::expose_segment(NodeId node, void* base,
                                       std::size_t length) {
  TC_RETURN_IF_ERROR(WallClockTransport::expose_segment(node, base, length));
  if (self_ != kAllLocal) {
    broadcast_segment(node, *WallClockTransport::exposed_segment(node));
  }
  return Status::ok();
}

void SocketTransport::broadcast_segment(NodeId node, const MemRegion& region) {
  Frame advert;
  advert.kind = FrameKind::kSegment;
  advert.src = node;
  advert.f0 = region.rkey;
  advert.f1 = region.length;
  for (NodeId peer = 0; peer < node_count(); ++peer) {
    if (peer == node) continue;
    (void)send_frame(node, peer, encode(advert, {}), /*control=*/true);
  }
}

std::optional<MemRegion> SocketTransport::exposed_segment(NodeId node) const {
  if (is_local(node)) return WallClockTransport::exposed_segment(node);
  std::lock_guard lock(segments_mu_);
  auto it = remote_segments_.find(node);
  if (it == remote_segments_.end()) return std::nullopt;
  return it->second;
}

Status SocketTransport::wait_for_segment(NodeId node, NodeId owner) {
  return run_until(node, [this, owner] {
    return exposed_segment(owner).has_value();
  });
}

// --- progress -------------------------------------------------------------------

bool SocketTransport::progress(NodeId node) {
  if (!is_local(node)) return false;
  bool did_work = fire_due_timers(node);
  std::vector<Link>& links = links_[node].to;
  for (NodeId peer = 0; peer < links.size(); ++peer) {
    if (peer == node) continue;
    Link& link = links[peer];
    if (link.fd < 0 || !link.connected) continue;
    if (!link.tx.empty()) did_work |= flush_link(node, peer);
    did_work |= read_link(node, peer);
  }
  return did_work;
}

// --- process-mode coordination ------------------------------------------------

Status SocketTransport::barrier(NodeId node, std::uint64_t id) {
  if (self_ == kAllLocal || node != self_) {
    return failed_precondition("barrier: process mode only");
  }
  if (node_count() == 1) return Status::ok();
  Frame frame;
  frame.kind = FrameKind::kBarrier;
  frame.src = node;
  frame.f0 = id;
  if (node == 0) {
    // Coordinator: wait for everyone, then release everyone. Driving
    // progress here services peers' AMs/PUTs/GETs while they catch up.
    TC_RETURN_IF_ERROR(run_until(node, [this, id] {
      auto it = barrier_arrivals_.find(id);
      return it != barrier_arrivals_.end() && it->second == node_count() - 1;
    }));
    barrier_arrivals_.erase(id);
    frame.f1 = 1;  // release
    for (NodeId peer = 1; peer < node_count(); ++peer) {
      TC_RETURN_IF_ERROR(
          send_frame(node, peer, encode(frame, {}), /*control=*/true));
    }
    return Status::ok();
  }
  TC_RETURN_IF_ERROR(send_frame(node, 0, encode(frame, {}), /*control=*/true));
  TC_RETURN_IF_ERROR(run_until(
      node, [this, id] { return barrier_released_.count(id) != 0; }));
  barrier_released_.erase(id);
  return Status::ok();
}

Status SocketTransport::kill_connection(NodeId node, NodeId peer) {
  if (!is_local(node) || peer >= node_count() || peer == node) {
    return invalid_argument("kill_connection: no such link");
  }
  const int fd = links_[node].to[peer].fd;
  if (fd < 0) return invalid_argument("kill_connection: link never existed");
  // shutdown (not close) so the owning progress contexts observe EOF /
  // EPIPE on their next spin without any fd-reuse race; they then run the
  // regular disconnect path.
  if (::shutdown(fd, SHUT_RDWR) != 0 && errno != ENOTCONN) {
    return errno_status("shutdown");
  }
  return Status::ok();
}

}  // namespace tc::fabric
