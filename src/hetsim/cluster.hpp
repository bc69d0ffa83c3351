// Cluster: a virtual heterogeneous testbed — M client (initiator) nodes
// plus N server nodes (hosts or DPUs, per the platform profile) with
// Three-Chains and Active-Message runtimes attached.
//
// Three interchangeable fabric backends (see fabric/transport.hpp); every
// runtime attaches to the chosen one through fabric::Transport:
//
//  * Backend::kSim (default) — the deterministic discrete-event fabric with
//    the profile's calibrated wire/compute timings. This is the substitute
//    for the paper's physical Ookami and Thor clusters: the topology,
//    runtimes and protocols are real; only the timings come from profiles.
//    Bit-for-bit reproducible.
//  * Backend::kShm — the real-threads shared-memory transport: every server
//    node gets a dedicated progress thread, initiator nodes are driven as
//    Cluster::drive_initiators states, and measurements are wall-clock.
//    The profile's virtual-time constants are ignored (real work takes real
//    time); everything else — protocols, JIT tiers, caching — is identical.
//  * Backend::kSocket — the real-sockets transport in threaded (socketpair)
//    mode: same topology and threading model as kShm, but every verb is
//    serialized through the length-prefixed wire codec and the kernel's
//    socket buffers. The in-tree stand-in for the true multi-process
//    deployment (fabric::SocketTransport::create_process / tools/tc_launch).
//
// Both wall-clock backends are held as their shared core,
// fabric::WallClockTransport, so the cluster starts and stops their
// progress threads in one place. Every node gets a core::Runtime and an
// am::AmRuntime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "am/am_runtime.hpp"
#include "core/runtime.hpp"
#include "fabric/fabric.hpp"
#include "fabric/faulty_transport.hpp"
#include "fabric/shm_transport.hpp"
#include "fabric/socket_transport.hpp"
#include "hetsim/profiles.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tc::hetsim {

enum class Backend { kSim, kShm, kSocket };

const char* backend_name(Backend backend);

struct ClusterConfig {
  Platform platform = Platform::kThorXeon;
  Backend backend = Backend::kSim;
  std::size_t server_count = 2;
  /// Initiator nodes. Node ids: clients [0, client_count), servers
  /// [client_count, client_count + server_count).
  std::size_t client_count = 1;
  /// Optional observability sinks, shared by every runtime in the cluster.
  /// Null (the default) compiles all tracing out of the hot paths and keeps
  /// the wire protocol byte-for-byte identical to an untraced build.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Fault injection (chaos testing): when faults.enabled(), the backend
  /// transport is wrapped in a fabric::FaultyTransport and every runtime
  /// attaches through the shim instead. Disabled by default: nothing is
  /// wrapped and the wire behaviour is byte-identical to earlier builds.
  fabric::FaultConfig faults;
  /// Wire-send retry budget forwarded to every runtime (see
  /// core::RuntimeOptions::max_send_retries); chaos configurations set
  /// this so recovery outlasts the injected fault schedule. 0 = off.
  std::size_t max_send_retries = 0;
  /// Wall-clock (shm/socket) watchdog: run_until gives up after this much
  /// wall time (<0 keeps the backend default). Chaos tests shorten it so a
  /// lost-completion bug fails fast with a state dump instead of hanging
  /// ctest.
  std::int64_t shm_run_until_timeout_ms = -1;
};

class Cluster {
 public:
  static StatusOr<std::unique_ptr<Cluster>> create(const ClusterConfig& config);
  ~Cluster();

  Backend backend() const { return backend_; }
  /// The backend-neutral fabric surface every layer above should prefer.
  fabric::Transport& transport() { return *transport_; }
  /// The simulated fabric. Sim backend only.
  fabric::Fabric& fabric();
  const HwProfile& profile() const { return *profile_; }
  std::size_t node_count() const { return transport_->node_count(); }

  fabric::NodeId client_node() const { return clients_.front(); }
  const std::vector<fabric::NodeId>& client_nodes() const { return clients_; }
  const std::vector<fabric::NodeId>& server_nodes() const { return servers_; }

  /// Runtimes indexed by fabric node id (clients first, then servers).
  core::Runtime& runtime(fabric::NodeId node) { return *runtimes_.at(node); }
  am::AmRuntime& am_runtime(fabric::NodeId node) {
    return *am_runtimes_.at(node);
  }
  core::Runtime& client_runtime() { return runtime(client_node()); }

  /// The observability sinks from ClusterConfig (null when not attached).
  obs::Tracer* tracer() { return tracer_; }
  obs::MetricsRegistry* metrics() { return metrics_; }

  /// The fault-injection shim (null when ClusterConfig::faults is
  /// disabled). Injection log and shim stats for chaos assertions.
  fabric::FaultyTransport* fault_shim() { return faulty_.get(); }

  // --- backend-neutral completion hooks --------------------------------------
  /// Drives the backend from `node`'s progress context until `pred()`
  /// holds. On the simulated backend this is the global event loop (every
  /// node advances in one virtual timeline); on shm the calling thread
  /// becomes `node`'s progress context and spins it, so predicates over
  /// state fed by that node's completions/results fire on this thread.
  Status drive_until(fabric::NodeId node, const std::function<bool()>& pred);
  /// Drives initiators 0..M-1, on client nodes `nodes`, to completion. This
  /// is the one place the initiator threading rule lives:
  ///
  ///  * On the simulated backend, or with one initiator on any backend, the
  ///    calling thread runs start(0) .. start(M-1) in index order (a failed
  ///    start returns at once), then one drive_until(nodes[0]) that stops
  ///    when every initiator is done or any has failed. So sim initiators
  ///    interleave deterministically in one virtual timeline, and a lone
  ///    wall-clock initiator costs no thread.
  ///  * On shm or socket with M > 1, initiator i gets its own OS thread,
  ///    which runs start(i) and then drive_until(nodes[i]) until initiator
  ///    i is done or has failed. Every thread is joined before the first
  ///    error, by initiator index, is returned.
  ///
  /// start(i) issues initiator i's first requests. start, done and failed
  /// for initiator i run only on its progress context, so the state they
  /// touch needs no lock. Does not settle().
  Status drive_initiators(std::span<const fabric::NodeId> nodes,
                          const std::function<Status(std::size_t)>& start,
                          const std::function<bool(std::size_t)>& done,
                          const std::function<bool(std::size_t)>& failed);
  /// Drains trailing simulated events (busy/no-op tails) so now_ns() reads
  /// the completion horizon rather than the predicate-flip instant. No-op
  /// on wall-clock backends — real time has already passed.
  void settle();

  /// Frames sent so far by every runtime in the cluster: `full` shipped
  /// their code, `truncated` rode the receiver's cache. Drivers report a
  /// run's traffic as the difference across it.
  struct FramesSent {
    std::uint64_t full = 0;
    std::uint64_t truncated = 0;
  };
  FramesSent frames_sent() const;

 private:
  Cluster() = default;
  /// Watchdog: when drive_until/settle cannot finish, log every runtime's
  /// Stats, NACK backlog and the shim's injection tail before returning —
  /// a lost-completion bug reads as a dump, not a silent ctest hang.
  void dump_stuck_state(fabric::NodeId node, const Status& status);

  Backend backend_ = Backend::kSim;
  // Transports are declared before the runtimes so they are destroyed
  // after them; the wall-clock progress threads are stopped explicitly in
  // the destructor before any runtime goes away.
  fabric::Fabric fabric_;
  /// The shm or socket backend (null on kSim).
  std::unique_ptr<fabric::WallClockTransport> wall_clock_;
  std::unique_ptr<fabric::FaultyTransport> faulty_;
  fabric::Transport* transport_ = nullptr;
  const HwProfile* profile_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::vector<fabric::NodeId> clients_;
  std::vector<fabric::NodeId> servers_;
  std::vector<std::unique_ptr<core::Runtime>> runtimes_;
  std::vector<std::unique_ptr<am::AmRuntime>> am_runtimes_;
};

/// RuntimeOptions with the profile's calibrated virtual-time constants.
core::RuntimeOptions runtime_options_for(const HwProfile& profile);
am::AmRuntime::Options am_options_for(const HwProfile& profile);

}  // namespace tc::hetsim
