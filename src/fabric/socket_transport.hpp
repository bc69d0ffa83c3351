// SocketTransport: the real-sockets backend — true address-space isolation.
//
// Where ShmTransport scales an RDMA fabric down to one process,
// SocketTransport runs it over actual stream sockets, in two deployment
// shapes sharing one wire protocol:
//
//  * threaded mode (create_threaded) — every node lives in this process and
//    each directed pair is joined by a socketpair(2). Same topology as shm,
//    but every verb is serialized through the length-prefixed wire codec
//    and the kernel's socket buffers, so partial writes, framing and flow
//    control are real. This is what hetsim::Backend::kSocket uses, letting
//    the whole in-tree test matrix drive the codec.
//  * process mode (create_process) — this process *is* one node; peers are
//    separate processes reached over Unix-domain or TCP sockets. Bootstrap
//    is ordered dialing: every node listens on its endpoint, connects to
//    all lower-id peers and accepts from all higher-id peers, identifying
//    each accepted connection with a kHello frame. Registered-segment rkeys
//    travel out-of-band as kSegment frames (the expose_segment contract);
//    PUT/GET are serviced by the target's progress context and routed back
//    by request id. tools/tc_launch forks such a cluster.
//
// When a frame leaves: a post made outside frame handling (the application
// thread, timers, barriers, bootstrap) is written at once. A frame posted
// while the node's progress context handles the frames of one read — an
// ack, a GET reply, or any send a handler makes (results, forwards, an
// initiator's next request) — is queued on its link, and as soon as that
// read's frames are handled every link of the node with queued bytes is
// flushed by one sendmsg(2) that gathers its frames, resuming mid-frame
// after a short write. Only what is already queued is batched; nothing
// waits for more. Per-link frame order is the post order either way.
//
// A progress pass reads each link with one recv(2) of at most 64 KiB, so a
// peer that writes as fast as the node reads cannot hold the node's
// progress context in one link, and a link's receive buffer never holds
// more than one partial frame plus one read.
//
// Flow control is honest: every link owns a bounded tx queue. When a slow
// consumer lets it fill, new data frames fail their completion with the
// shared fabric::backpressure_status() instead of blocking — the same
// Status the shm backend reports on a full ring, so the runtime's
// max_send_retries policy behaves identically on both. Control frames
// (acks, GET replies, segment adverts, barriers) bypass that budget:
// losing a completion to backpressure on the reverse path would turn flow
// control into a hang. They are still capped: a link that already queues
// more than kControlQueueFactor times the budget refuses the next control
// frame by disconnecting (Stats::control_overflows), so a peer that keeps
// asking and never reads cannot grow the queue without bound. A lone large
// reply on an empty queue still goes.
// Peer disconnect fails every in-flight completion toward that peer with
// kUnavailable and discards any partially received frame (counted in
// Stats::rx_partial_discards).
//
// A frame's sender is the link it arrived on: a header `src` naming any
// other node is a protocol error that disconnects the link, like a bad
// length, so a peer can neither index past the link table nor pose as
// another node (or as the receiver itself, to complete its pending ops).
//
// Threading contract: identical to the other backends — one progress
// context per node; post_* from the initiating node's context; callbacks
// fire on the owning node's context. Link state is only ever touched by
// the owning node's progress context, which is what makes the nonblocking
// read/flush loops lock-free. Node state, completion tables, timers,
// progress threads and run_until are WallClockTransport's; this class
// keeps the codec, the links and the process-mode coordination.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fabric/wall_clock_transport.hpp"

namespace tc::fabric {

struct SocketTransportOptions {
  /// Per-directed-link tx budget. A data frame posted while at least this
  /// many bytes are already queued fails with backpressure_status().
  std::size_t send_buffer_bytes = 4 * 1024 * 1024;
  /// Safety net for run_until: give up after this much wall time.
  std::int64_t run_until_timeout_ms = 30'000;
  /// Process mode: how long bootstrap keeps re-dialing a peer that has not
  /// bound its endpoint yet (and how long it waits for inbound hellos).
  std::int64_t connect_timeout_ms = 10'000;
};

class SocketTransport final : public WallClockTransport {
 public:
  /// Every node in this process, full socketpair mesh. The shape
  /// hetsim::Cluster's Backend::kSocket builds.
  static StatusOr<std::unique_ptr<SocketTransport>> create_threaded(
      std::size_t node_count, SocketTransportOptions options = {});
  /// This process is node `self` of `node_count`; `endpoints[i]` names
  /// node i's listening address as "unix:<path>" or "tcp:<ipv4>:<port>".
  /// Blocks until the full mesh is connected (or connect_timeout_ms).
  static StatusOr<std::unique_ptr<SocketTransport>> create_process(
      std::size_t node_count, NodeId self,
      const std::vector<std::string>& endpoints,
      SocketTransportOptions options = {});
  /// "unix:<dir>/n<i>.sock" for every node (keep `dir` short: sun_path
  /// caps at ~107 bytes).
  static std::vector<std::string> unix_endpoints(std::size_t node_count,
                                                 const std::string& dir);
  ~SocketTransport() override;

  /// kAllLocal in threaded mode, this process's node id in process mode.
  NodeId self_node() const { return self_; }

  /// Process mode: drives `node`'s progress until `owner`'s exposed-segment
  /// advert (kSegment) has arrived — the out-of-band rkey exchange real
  /// deployments run at setup.
  Status wait_for_segment(NodeId node, NodeId owner);
  /// Process mode: phase barrier over the mesh (node 0 coordinates).
  /// Doubles as the server's progress loop — AMs/PUTs/GETs arriving while
  /// blocked here are serviced.
  Status barrier(NodeId node, std::uint64_t id);
  /// Abruptly shuts down the connection between `node` and `peer` (both
  /// directions) — the mid-message-disconnect fault for tests. Safe to
  /// call from any thread.
  Status kill_connection(NodeId node, NodeId peer);

  // --- Transport ------------------------------------------------------------
  const char* name() const override { return "socket"; }

  /// Frames `data` into the link's wire buffer (the codec copies it).
  void post_send(NodeId src, NodeId dst, Bytes data, std::size_t fragments,
                 CompletionFn on_complete) override;
  using Transport::post_send;
  void post_am(NodeId src, NodeId dst, AmId id, ByteSpan payload,
               CompletionFn on_complete) override;
  void post_put(NodeId src, const RemoteAddr& dst, ByteSpan data,
                CompletionFn on_complete) override;
  void post_get(NodeId src, const RemoteAddr& addr, std::size_t length,
                GetCompletionFn on_complete) override;

  /// Local nodes: the core's. Process mode also adverts the segment to
  /// every peer (kSegment).
  Status expose_segment(NodeId node, void* base, std::size_t length) override;
  /// Local nodes: the core's. Remote nodes (process mode): the advert
  /// learned from their kSegment frame, if it has arrived.
  std::optional<MemRegion> exposed_segment(NodeId node) const override;

  bool progress(NodeId node) override;

  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t writes = 0;  ///< send/sendmsg calls that moved bytes
    std::uint64_t partial_writes = 0;   ///< short writes that left tx queued
    std::uint64_t backpressure_rejects = 0;
    /// Control frames refused past the cap; each disconnected its link.
    std::uint64_t control_overflows = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t rx_partial_discards = 0;  ///< mid-frame EOF
  };
  /// A snapshot; safe from any thread while progress contexts run. The
  /// per-frame and per-syscall counters are kept per node and summed here.
  Stats stats() const;

 private:
  /// Frame kinds on the wire. Wire layout (little-endian):
  ///   [u32 length] [u8 kind] [u8 code] [u16 am_id] [u32 src]
  ///   [u64 cid] [u64 f0] [u64 f1] [u64 f2] [payload...]
  /// where `length` counts everything after itself and the f-words are
  /// per-kind (see socket_transport.cpp).
  enum class FrameKind : std::uint8_t {
    kHello = 1,    ///< bootstrap: src identifies the dialing node
    kSend = 2,     ///< two-sided eager message; f0 = fragments
    kAm = 3,       ///< active message; am_id selects the handler
    kPut = 4,      ///< one-sided write; f0 = rkey, f1 = offset
    kGet = 5,      ///< one-sided read; f0 = rkey, f1 = offset, f2 = length
    kAck = 6,      ///< completion for kSend/kAm/kPut; code + message payload
    kGetAck = 7,   ///< completion + data for kGet
    kSegment = 8,  ///< exposed-segment advert; f0 = rkey, f1 = length
    kBarrier = 9,  ///< f0 = barrier id, f1 = 0 arrive / 1 release
  };
  struct Frame {
    FrameKind kind = FrameKind::kSend;
    std::uint8_t code = 0;  ///< ErrorCode for acks
    AmId am_id = 0;
    NodeId src = 0;
    std::uint64_t cid = 0;
    std::uint64_t f0 = 0, f1 = 0, f2 = 0;
    Bytes payload;
  };

  struct Link {
    int fd = -1;
    bool connected = false;
    Bytes rx;                ///< partially received bytes, parsed in place
    std::deque<Bytes> tx;    ///< encoded frames not yet fully written
    std::size_t tx_front_off = 0;  ///< bytes of tx.front() already written
    std::size_t tx_queued = 0;     ///< total unwritten bytes across tx
  };
  /// One local node's links, owned by its progress context (cache-line
  /// aligned: each node's context writes `handling` and the counters on
  /// every read or write, and no other context writes this line).
  struct alignas(64) NodeLinks {
    std::vector<Link> to;  ///< to[peer]; to[node] unused
    /// True while read_link handles a read's frames: send_frame queues
    /// instead of writing, and flush_queued writes once they are handled.
    bool handling = false;
    /// This node's share of Stats. Only the node's progress context writes
    /// them, with a relaxed load and store; stats() reads them from any
    /// thread.
    std::atomic<std::uint64_t> frames_sent{0};
    std::atomic<std::uint64_t> frames_received{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> bytes_received{0};
    std::atomic<std::uint64_t> writes{0};
  };

  SocketTransport(std::size_t node_count, NodeId self,
                  SocketTransportOptions options);

  /// Encodes `frame`'s header followed by `payload` (frame.payload is not
  /// read).
  static Bytes encode(const Frame& frame, ByteSpan payload);
  /// Posts a data frame from src to dst: loopback dispatches inline, and a
  /// frame the link refuses fails its stashed completion.
  void post_frame(NodeId src, NodeId dst, Frame frame, ByteSpan payload);
  /// Queues an encoded frame on node->peer and, outside frame handling,
  /// flushes what the kernel accepts. Control frames bypass the tx budget
  /// up to their own cap (see file comment).
  Status send_frame(NodeId node, NodeId peer, Bytes wire, bool control);
  /// Writes node->peer's queued frames, gathered into one sendmsg per
  /// kMaxGather frames, until the queue is empty or the kernel is full.
  bool flush_link(NodeId node, NodeId peer);
  /// flush_link on every link of `node` that has queued bytes.
  void flush_queued(NodeId node);
  bool read_link(NodeId node, NodeId peer);
  void parse_frames(NodeId node, NodeId peer, Link& link);
  void handle_frame(NodeId node, Frame frame);
  /// Routes a reply frame: local target dispatches inline (loopback),
  /// remote targets ride the wire as control frames.
  void reply(NodeId node, NodeId peer, Frame frame);
  void disconnect_link(NodeId node, NodeId peer, const char* reason);
  /// Sends a kSegment advert for `node`'s exposed segment to every peer
  /// (process mode).
  void broadcast_segment(NodeId node, const MemRegion& region);

  SocketTransportOptions options_;
  NodeId self_ = kAllLocal;
  /// links_[node].to[peer]; only local nodes have links. Sized once at
  /// construction (NodeLinks holds atomics, which do not move).
  std::vector<NodeLinks> links_;
  /// Process-mode barrier state (self_'s progress context only).
  std::unordered_map<std::uint64_t, std::size_t> barrier_arrivals_;
  std::unordered_set<std::uint64_t> barrier_released_;
  /// Process mode: rkey/length of remote nodes' exposed segments, learned
  /// from kSegment adverts (base is null — one-sided access is serviced on
  /// the owning process).
  mutable std::mutex segments_mu_;
  std::unordered_map<NodeId, MemRegion> remote_segments_;

  /// Process mode: listening socket + owned unix path (unlinked on exit).
  int listen_fd_ = -1;
  std::string listen_unix_path_;

  std::atomic<std::uint64_t> partial_writes_{0};
  std::atomic<std::uint64_t> backpressure_rejects_{0};
  std::atomic<std::uint64_t> control_overflows_{0};
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> rx_partial_discards_{0};
};

}  // namespace tc::fabric
