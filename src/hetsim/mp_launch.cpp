#include "hetsim/mp_launch.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>

#include "am/am_runtime.hpp"
#include "common/log.hpp"
#include "core/ifunc.hpp"
#include "core/runtime.hpp"
#include "fabric/socket_transport.hpp"
#include "xrdma/chaser.hpp"
#include "xrdma/pointer_table.hpp"

namespace tc::mp {
namespace {

// Failed checks log and make the node exit nonzero; launch() turns any
// nonzero child into a Status for the caller.
#define TC_MP_CHECK(cond, node, what)                                     \
  do {                                                                    \
    if (!(cond)) {                                                        \
      TC_LOG(kError, "mp") << "node " << (node) << ": CHECK failed: "     \
                           << (what);                                     \
      return 1;                                                           \
    }                                                                     \
  } while (0)

#define TC_MP_CHECK_OK(status_expr, node, what)                     \
  do {                                                              \
    const ::tc::Status _mp_st = (status_expr);                      \
    if (!_mp_st.is_ok()) {                                          \
      TC_LOG(kError, "mp") << "node " << (node) << ": " << (what)   \
                           << ": " << _mp_st.to_string();           \
      return 1;                                                     \
    }                                                               \
  } while (0)

void put_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_u64(ByteSpan in, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[off + i]) << (8 * i);
  }
  return v;
}

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- kSmoke -------------------------------------------------------------------
// Every node: one exposed window slot per peer; everyone sends, AMs and
// PUTs into everyone; then verifies it saw all of it.

int run_smoke(fabric::SocketTransport& tp, const MpOptions& options,
              fabric::NodeId self) {
  const std::size_t n = options.node_count;
  std::vector<std::uint64_t> slots(n, ~std::uint64_t{0});
  slots[self] = self;
  TC_MP_CHECK_OK(
      tp.expose_segment(self, slots.data(), slots.size() * sizeof(slots[0])),
      self, "expose_segment");
  std::atomic<int> hellos{0};
  TC_MP_CHECK_OK(tp.register_am_handler(
                     self, 5,
                     [&](ByteSpan, fabric::NodeId) {
                       hellos.fetch_add(1, std::memory_order_relaxed);
                     }),
                 self, "register_am_handler");
  TC_MP_CHECK_OK(tp.barrier(self, 1), self, "barrier(setup)");

  int acked = 0;
  const int expected_acks = static_cast<int>(3 * (n - 1));  // send+am+put each
  auto on_ack = [&](Status s) {
    if (s.is_ok()) ++acked;
  };
  Bytes hello{static_cast<std::uint8_t>(self)};
  for (fabric::NodeId peer = 0; peer < n; ++peer) {
    if (peer == self) continue;
    TC_MP_CHECK_OK(tp.wait_for_segment(self, peer), self, "wait_for_segment");
    auto seg = tp.exposed_segment(peer);
    TC_MP_CHECK(seg.has_value(), self, "peer segment advert missing");
    tp.post_send(self, peer, as_span(hello), 1, on_ack);
    tp.post_am(self, peer, 5, as_span(hello), on_ack);
    Bytes id_bytes;
    put_u64(id_bytes, self);
    tp.post_put(self, seg->remote_addr(peer, self * sizeof(std::uint64_t)),
                as_span(id_bytes), on_ack);
  }
  int received = 0;
  TC_MP_CHECK_OK(tp.run_until(self,
                              [&] {
                                while (tp.try_recv(self).has_value()) {
                                  ++received;
                                }
                                return acked == expected_acks &&
                                       received ==
                                           static_cast<int>(n - 1) &&
                                       hellos.load(
                                           std::memory_order_relaxed) ==
                                           static_cast<int>(n - 1);
                              }),
                 self, "run_until(traffic)");
  // Everyone's PUTs are acked only after the target wrote them, and the
  // barrier orders our verification after every peer's acks.
  TC_MP_CHECK_OK(tp.barrier(self, 2), self, "barrier(traffic)");
  for (fabric::NodeId peer = 0; peer < n; ++peer) {
    TC_MP_CHECK(slots[peer] == peer, self, "window slot holds wrong id");
  }
  if (options.verbose) {
    TC_LOG(kInfo, "mp") << "node " << self << ": smoke ok (" << received
                        << " msgs, " << hellos.load() << " ams)";
  }
  TC_MP_CHECK_OK(tp.barrier(self, 3), self, "barrier(done)");
  return 0;
}

// --- kConformance -------------------------------------------------------------
// The transport conformance contract re-checked across process boundaries.
// Node 0 initiates, node 1 responds; any extra nodes just hold the mesh up
// (their barriers service nothing but keep phase numbering global).

int run_conformance(fabric::SocketTransport& tp, const MpOptions& options,
                    fabric::NodeId self) {
  const fabric::NodeId kInitiator = 0;
  const fabric::NodeId kResponder = 1;
  TC_MP_CHECK(options.node_count >= 2, self, "conformance needs >= 2 nodes");

  // Setup: the responder's echo handler and one-sided window.
  std::vector<std::uint8_t> window(64, 0);
  if (self == kResponder) {
    TC_MP_CHECK_OK(tp.register_am_handler(
                       self, 7,
                       [&tp, self](ByteSpan payload, fabric::NodeId source) {
                         tp.post_am(self, source, 8, payload, {});
                       }),
                   self, "register echo handler");
    TC_MP_CHECK_OK(tp.expose_segment(self, window.data(), window.size()),
                   self, "expose_segment");
  }
  std::atomic<int> echoes{0};
  if (self == kInitiator) {
    TC_MP_CHECK_OK(tp.register_am_handler(
                       self, 8,
                       [&](ByteSpan, fabric::NodeId) {
                         echoes.fetch_add(1, std::memory_order_relaxed);
                       }),
                   self, "register echo-reply handler");
  }
  TC_MP_CHECK_OK(tp.barrier(self, 1), self, "barrier(setup)");

  // Phase 1 — per-link FIFO of two-sided sends.
  constexpr int kMessages = 32;
  if (self == kInitiator) {
    for (int i = 0; i < kMessages; ++i) {
      Bytes msg{static_cast<std::uint8_t>(i)};
      tp.post_send(self, kResponder, as_span(msg), 1, {});
    }
  } else if (self == kResponder) {
    int received = 0;
    bool ordered = true;
    TC_MP_CHECK_OK(
        tp.run_until(self,
                     [&] {
                       while (auto msg = tp.try_recv(self)) {
                         ordered = ordered && msg->data.size() == 1 &&
                                   msg->data[0] == received &&
                                   msg->source == kInitiator;
                         ++received;
                       }
                       return received == kMessages;
                     }),
        self, "run_until(fifo)");
    TC_MP_CHECK(ordered, self, "out-of-order or corrupt delivery");
  }
  TC_MP_CHECK_OK(tp.barrier(self, 2), self, "barrier(fifo)");

  // Phase 2 — AM dispatch and miss reporting.
  if (self == kInitiator) {
    Bytes payload{9, 8, 7};
    tp.post_am(self, kResponder, 7, as_span(payload), {});
    TC_MP_CHECK_OK(
        tp.run_until(
            self,
            [&] { return echoes.load(std::memory_order_relaxed) == 1; }),
        self, "run_until(echo)");
    bool miss_done = false;
    Status miss = Status::ok();
    tp.post_am(self, kResponder, 99, as_span(payload), [&](Status s) {
      miss = std::move(s);
      miss_done = true;
    });
    TC_MP_CHECK_OK(tp.run_until(self, [&] { return miss_done; }), self,
                   "run_until(miss)");
    TC_MP_CHECK(miss.code() == ErrorCode::kNotFound, self,
                "unregistered AM should report kNotFound, got " +
                    miss.to_string());
  }
  TC_MP_CHECK_OK(tp.barrier(self, 3), self, "barrier(am)");

  // Phase 3 — one-sided PUT/GET through the advertised segment, including
  // the bounds fault.
  if (self == kInitiator) {
    TC_MP_CHECK_OK(tp.wait_for_segment(self, kResponder), self,
                   "wait_for_segment");
    auto seg = tp.exposed_segment(kResponder);
    TC_MP_CHECK(seg.has_value(), self, "responder segment missing");
    Bytes data{0xAA, 0xBB, 0xCC, 0xDD};
    bool put_done = false;
    Status put_status = Status::ok();
    tp.post_put(self, seg->remote_addr(kResponder, 8), as_span(data),
                [&](Status s) {
                  put_status = std::move(s);
                  put_done = true;
                });
    TC_MP_CHECK_OK(tp.run_until(self, [&] { return put_done; }), self,
                   "run_until(put)");
    TC_MP_CHECK_OK(put_status, self, "put completion");
    bool get_done = false;
    StatusOr<Bytes> got = internal_error("pending");
    tp.post_get(self, seg->remote_addr(kResponder, 8), data.size(),
                [&](StatusOr<Bytes> r) {
                  got = std::move(r);
                  get_done = true;
                });
    TC_MP_CHECK_OK(tp.run_until(self, [&] { return get_done; }), self,
                   "run_until(get)");
    TC_MP_CHECK(got.is_ok() && *got == data, self,
                "GET must read back the PUT bytes");
    bool oob_done = false;
    StatusOr<Bytes> oob = Status::ok();
    tp.post_get(self, seg->remote_addr(kResponder, window.size() - 4), 8,
                [&](StatusOr<Bytes> r) {
                  oob = std::move(r);
                  oob_done = true;
                });
    TC_MP_CHECK_OK(tp.run_until(self, [&] { return oob_done; }), self,
                   "run_until(oob)");
    TC_MP_CHECK(!oob.is_ok() && oob.status().code() == ErrorCode::kOutOfRange,
                self, "out-of-bounds GET should fault with kOutOfRange");
  }
  // The barrier's run_until is also the responder's progress loop while
  // the initiator drives the one-sided phase above.
  TC_MP_CHECK_OK(tp.barrier(self, 4), self, "barrier(one-sided)");

  // Phase 4 — ifunc NACK recovery across address spaces. Runtimes attach
  // last: they consume their node's two-sided rx queue, which the FIFO
  // phase needed raw.
  std::uint64_t counter = 0;
  std::unique_ptr<core::Runtime> runtime;
  if (self == kInitiator || self == kResponder) {
    auto rt = core::Runtime::create(tp, self);
    TC_MP_CHECK_OK(rt.status(), self, "Runtime::create");
    runtime = std::move(*rt);
    if (self == kResponder) runtime->set_target_ptr(&counter);
  }
  TC_MP_CHECK_OK(tp.barrier(self, 5), self, "barrier(runtimes)");
  if (self == kInitiator) {
    auto lib = core::IfuncLibrary::from_portable_kernel(
        ir::KernelKind::kTargetSideIncrement);
    TC_MP_CHECK_OK(lib.status(), self, "portable kernel");
    auto id = runtime->register_ifunc(std::move(*lib));
    TC_MP_CHECK_OK(id.status(), self, "register_ifunc");
    // A truncated frame for code the responder has never seen: must come
    // back as a NACK, then redeliver full and execute exactly once.
    auto frame = runtime->create_message(*id, as_span(Bytes{0}));
    TC_MP_CHECK_OK(frame.status(), self, "create_message");
    tp.post_send(self, kResponder, frame->truncated_view(), 1, {});
    TC_MP_CHECK_OK(
        tp.run_until(self,
                     [&] { return runtime->stats().nacks_received >= 1; }),
        self, "run_until(nack)");
    for (int i = 0; i < 2; ++i) {
      TC_MP_CHECK_OK(runtime->send_ifunc(kResponder, *id, as_span(Bytes{0})),
                     self, "send_ifunc");
    }
    TC_MP_CHECK(runtime->stats().nacks_received == 1, self,
                "exactly one NACK expected");
  } else if (self == kResponder) {
    TC_MP_CHECK_OK(tp.run_until(self, [&] { return counter == 3; }), self,
                   "run_until(ifunc execution)");
    TC_MP_CHECK(runtime->stats().nacks_sent == 1, self, "one NACK sent");
    TC_MP_CHECK(runtime->stats().frames_executed == 3, self,
                "three ifunc frames executed");
    TC_MP_CHECK(runtime->stats().protocol_errors == 0, self,
                "no protocol errors");
  }
  TC_MP_CHECK_OK(tp.barrier(self, 6), self, "barrier(nack)");
  if (options.verbose && self == kInitiator) {
    TC_LOG(kInfo, "mp") << "conformance ok across " << options.node_count
                        << " processes";
  }
  return 0;
}

// --- kDapc --------------------------------------------------------------------
// Node 0 chases pointers through shards owned by server processes 1..n-1,
// in two modes, both verified against the reference walk:
//  * traveling AM — the chaser's predeployed AM handler
//    (xrdma::make_chase_am_handler, the chaser's KIR definition) walks the
//    local shard, forwards the tagged request to the owning server and
//    replies [value][tag] to node 0 (paper §IV-C);
//  * client GET — the GBPC lower bound, one GET per dereference.

int run_dapc(fabric::SocketTransport& tp, const MpOptions& options,
             fabric::NodeId self) {
  TC_MP_CHECK(options.node_count >= 2, self, "dapc needs >= 2 nodes");
  const std::uint64_t servers = options.node_count - 1;
  xrdma::PointerTableConfig table_config;
  table_config.entries_per_shard = options.entries_per_shard;
  table_config.shard_count = servers;
  table_config.seed = options.seed;
  // The permutation is seeded, so every process derives the identical
  // table — the out-of-band dataset distribution of a real deployment.
  auto table_or = xrdma::DistributedPointerTable::build(table_config);
  TC_MP_CHECK_OK(table_or.status(), self, "table build");
  xrdma::DistributedPointerTable& table = *table_or;
  const std::uint64_t shard_size = table.shard_size();
  const std::uint64_t total = table.total_entries();
  auto owner_node = [&](std::uint64_t addr) -> fabric::NodeId {
    return static_cast<fabric::NodeId>(1 + table.owner_of(addr));
  };

  // Predeployment: every process registers the chase handler first, so its
  // index is the same everywhere.
  auto am_or = am::AmRuntime::create(tp, self);
  TC_MP_CHECK_OK(am_or.status(), self, "AmRuntime::create");
  am::AmRuntime& am = **am_or;
  auto handler = xrdma::make_chase_am_handler();
  TC_MP_CHECK_OK(handler.status(), self, "chase handler");
  auto chase_index = am.register_handler(std::move(*handler));
  TC_MP_CHECK_OK(chase_index.status(), self, "register chase handler");

  if (self != 0) {
    // Server: host this shard, serve GETs from its exposed window and
    // chase hops through the handler. Peer i is the owner of shard i.
    std::vector<std::uint64_t> shard = table.shard(self - 1);
    TC_MP_CHECK_OK(
        tp.expose_segment(self, shard.data(),
                          shard.size() * sizeof(shard[0])),
        self, "expose_segment(shard)");
    am.set_shard(shard.data(), shard.size());
    std::vector<fabric::NodeId> peers;
    for (fabric::NodeId node = 1; node < options.node_count; ++node) {
      peers.push_back(node);
    }
    am.set_peers(std::move(peers));
    TC_MP_CHECK_OK(tp.barrier(self, 1), self, "barrier(setup)");
    // Both measurement phases run while we sit in these barriers — their
    // run_until loop *is* this server's progress loop.
    TC_MP_CHECK_OK(tp.barrier(self, 2), self, "barrier(am phase)");
    TC_MP_CHECK_OK(tp.barrier(self, 3), self, "barrier(get phase)");
    return 0;
  }

  // Client (node 0).
  std::vector<std::uint64_t> start(options.chases);
  std::vector<std::uint64_t> expected(options.chases);
  for (std::uint64_t i = 0; i < options.chases; ++i) {
    start[i] = (options.seed + i * 7919) % total;
    expected[i] = table.chase_expected(start[i], options.depth);
  }
  std::vector<std::uint64_t> values(options.chases, ~std::uint64_t{0});
  std::uint64_t replies = 0;
  am.set_result_handler([&](ByteSpan data, fabric::NodeId) {
    ++replies;
    auto reply = xrdma::decode_chase_reply(data);
    if (reply.is_ok() && reply->tagged && reply->tag < options.chases) {
      values[reply->tag] = reply->value;
    }
  });
  TC_MP_CHECK_OK(tp.barrier(self, 1), self, "barrier(setup)");
  for (std::uint64_t s = 1; s < options.node_count; ++s) {
    TC_MP_CHECK_OK(tp.wait_for_segment(self, static_cast<fabric::NodeId>(s)),
                   self, "wait_for_segment");
  }

  // Phase A — traveling AM, every chase in flight at once (tagged).
  const std::int64_t am_begin = wall_ns();
  for (std::uint64_t i = 0; i < options.chases; ++i) {
    const Bytes request = xrdma::encode_tagged_chase_payload(
        {start[i], options.depth}, i);
    TC_MP_CHECK_OK(
        am.send(owner_node(start[i]), *chase_index, as_span(request)), self,
        "send chase");
  }
  TC_MP_CHECK_OK(
      tp.run_until(self, [&] { return replies == options.chases; }), self,
      "run_until(am replies)");
  const std::int64_t am_ns = wall_ns() - am_begin;
  std::uint64_t am_correct = 0;
  for (std::uint64_t i = 0; i < options.chases; ++i) {
    am_correct += values[i] == expected[i] ? 1 : 0;
  }
  TC_MP_CHECK(am_correct == options.chases, self,
              "traveling-AM chase returned wrong values");
  TC_MP_CHECK_OK(tp.barrier(self, 2), self, "barrier(am phase)");

  // Phase B — client-driven GETs (GBPC).
  const std::int64_t get_begin = wall_ns();
  std::uint64_t get_correct = 0;
  for (std::uint64_t i = 0; i < options.chases; ++i) {
    std::uint64_t cur = start[i];
    for (std::uint64_t step = 0; step < options.depth; ++step) {
      const fabric::NodeId owner = owner_node(cur);
      auto seg = tp.exposed_segment(owner);
      TC_MP_CHECK(seg.has_value(), self, "server segment missing");
      bool done = false;
      StatusOr<Bytes> got = internal_error("pending");
      tp.post_get(self,
                  seg->remote_addr(owner,
                                   (cur % shard_size) * sizeof(std::uint64_t)),
                  sizeof(std::uint64_t),
                  [&](StatusOr<Bytes> r) {
                    got = std::move(r);
                    done = true;
                  });
      TC_MP_CHECK_OK(tp.run_until(self, [&] { return done; }), self,
                     "run_until(get)");
      TC_MP_CHECK_OK(got.status(), self, "get completion");
      cur = get_u64(as_span(*got), 0);
    }
    get_correct += cur == expected[i] ? 1 : 0;
  }
  const std::int64_t get_ns = wall_ns() - get_begin;
  TC_MP_CHECK(get_correct == options.chases, self,
              "GET chase returned wrong values");
  TC_MP_CHECK_OK(tp.barrier(self, 3), self, "barrier(get phase)");

  auto rate = [](std::uint64_t chases, std::int64_t ns) {
    return ns > 0 ? 1e9 * static_cast<double>(chases) /
                        static_cast<double>(ns)
                  : 0.0;
  };
  std::printf(
      "[tc_launch] dapc nodes=%zu depth=%llu chases=%llu entries/shard=%llu\n"
      "[tc_launch]   traveling-am: correct=%llu/%llu wall_ms=%.3f "
      "chases/s=%.0f\n"
      "[tc_launch]   client-get:   correct=%llu/%llu wall_ms=%.3f "
      "chases/s=%.0f\n",
      options.node_count,
      static_cast<unsigned long long>(options.depth),
      static_cast<unsigned long long>(options.chases),
      static_cast<unsigned long long>(options.entries_per_shard),
      static_cast<unsigned long long>(am_correct),
      static_cast<unsigned long long>(options.chases), am_ns / 1e6,
      rate(options.chases, am_ns),
      static_cast<unsigned long long>(get_correct),
      static_cast<unsigned long long>(options.chases), get_ns / 1e6,
      rate(options.chases, get_ns));
  std::fflush(stdout);
  return 0;
}

}  // namespace

const char* role_name(Role role) {
  switch (role) {
    case Role::kSmoke: return "smoke";
    case Role::kConformance: return "conformance";
    case Role::kDapc: return "dapc";
  }
  return "unknown";
}

StatusOr<Role> role_from_name(const std::string& name) {
  if (name == "smoke") return Role::kSmoke;
  if (name == "conformance") return Role::kConformance;
  if (name == "dapc") return Role::kDapc;
  return invalid_argument("unknown role: " + name +
                          " (want smoke|conformance|dapc)");
}

int run_node(const MpOptions& options, fabric::NodeId self) {
  fabric::SocketTransportOptions tp_options;
  tp_options.connect_timeout_ms = options.connect_timeout_ms;
  tp_options.run_until_timeout_ms = options.run_until_timeout_ms;
  auto tp_or = fabric::SocketTransport::create_process(
      options.node_count, self, options.endpoints, tp_options);
  if (!tp_or.is_ok()) {
    TC_LOG(kError, "mp") << "node " << self << ": bootstrap failed: "
                         << tp_or.status().to_string();
    return 2;
  }
  fabric::SocketTransport& tp = **tp_or;
  switch (options.role) {
    case Role::kSmoke: return run_smoke(tp, options, self);
    case Role::kConformance: return run_conformance(tp, options, self);
    case Role::kDapc: return run_dapc(tp, options, self);
  }
  return 2;
}

Status launch(MpOptions options) {
  if (options.node_count < 2) {
    return invalid_argument("launch: need at least 2 nodes");
  }
  std::string owned_dir;
  if (options.endpoints.empty()) {
    char tmpl[] = "/tmp/tc_mp_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      return internal_error("mkdtemp failed: " +
                            std::string(std::strerror(errno)));
    }
    owned_dir = tmpl;
    options.endpoints =
        fabric::SocketTransport::unix_endpoints(options.node_count, owned_dir);
  }
  if (options.endpoints.size() != options.node_count) {
    return invalid_argument("launch: need one endpoint per node");
  }

  std::vector<pid_t> children;
  children.reserve(options.node_count);
  for (fabric::NodeId node = 0; node < options.node_count; ++node) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (pid_t child : children) ::kill(child, SIGKILL);
      return internal_error("fork failed: " +
                            std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      // Child: run the node and leave without unwinding the parent's
      // state (no atexit handlers, no static destructors).
      std::_Exit(run_node(options, node));
    }
    children.push_back(pid);
  }

  Status result = Status::ok();
  for (fabric::NodeId node = 0; node < children.size(); ++node) {
    int wstatus = 0;
    if (::waitpid(children[node], &wstatus, 0) < 0) {
      if (result.is_ok()) {
        result = internal_error("waitpid failed: " +
                                std::string(std::strerror(errno)));
      }
      continue;
    }
    if (WIFSIGNALED(wstatus)) {
      result = internal_error("node " + std::to_string(node) +
                              " died on signal " +
                              std::to_string(WTERMSIG(wstatus)));
    } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0 &&
               result.is_ok()) {
      result = internal_error("node " + std::to_string(node) +
                              " exited with code " +
                              std::to_string(WEXITSTATUS(wstatus)));
    }
  }

  if (!owned_dir.empty()) {
    for (const std::string& ep : options.endpoints) {
      if (ep.rfind("unix:", 0) == 0) ::unlink(ep.substr(5).c_str());
    }
    ::rmdir(owned_dir.c_str());
  }
  return result;
}

}  // namespace tc::mp
