// The simulated interconnect: a deterministic, single-threaded discrete-event
// engine carrying the traffic of a virtual heterogeneous cluster. It is the
// simulated fabric::Transport backend: runtimes attach to it directly, like
// any other backend, and every message in flight is an event it owns.
//
// Design notes:
//  * Determinism first. Events fire in (time, sequence) order; equal
//    timestamps resolve by insertion order, so every test and benchmark is
//    exactly reproducible.
//  * Per-node compute serialization. Each node tracks `busy_until`; handler
//    events arriving while the node is busy are re-queued at that horizon,
//    modeling a single progress thread per PE (the paper's daemon thread).
//  * Real code inside virtual time. JIT compilation and ifunc execution run
//    for real; their *modeled* cost is charged to the virtual clock by the
//    caller (hetsim profiles decide the scaling).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "fabric/link_model.hpp"
#include "fabric/memory.hpp"
#include "fabric/transport.hpp"
#include "fabric/worker.hpp"

namespace tc::fabric {

/// One processing element of the virtual cluster (host CPU, DPU core, ...).
struct Node {
  NodeId id = 0;
  std::string name;
  /// Multiplier applied to modeled compute costs (>1 = slower PE, e.g. the
  /// BlueField-2's Cortex-A72 cores vs a Xeon host).
  double compute_scale = 1.0;
  VirtTime busy_until = 0;
  MemoryDomain memory;
  Worker worker;
  /// The node's published one-sided-access window, if any — the simulated
  /// equivalent of an rkey exchanged out of band at job setup (see
  /// core::Runtime::expose_segment).
  std::optional<MemRegion> exposed_segment;
};

class Fabric final : public Transport {
 public:
  static constexpr std::size_t kDefaultMaxEvents = 100'000'000;

  // --- topology -------------------------------------------------------------
  NodeId add_node(std::string name, double compute_scale = 1.0);
  std::size_t node_count() const override { return nodes_.size(); }
  Node& node(NodeId id);
  const Node& node(NodeId id) const;

  void set_default_link(const LinkModel& model) { default_link_ = model; }
  /// Sets the model for both directions of the (a, b) pair.
  void set_link(NodeId a, NodeId b, const LinkModel& model);
  const LinkModel& link(NodeId src, NodeId dst) const;

  // --- virtual time ----------------------------------------------------------
  VirtTime now() const { return now_; }
  std::int64_t now_ns() const override { return now_; }

  void schedule_at(VirtTime t, std::function<void()> fn);
  void schedule_after(std::int64_t delay_ns, std::function<void()> fn) {
    schedule_at(now_ + delay_ns, std::move(fn));
  }
  /// The event queue is global: `node` does not matter.
  void schedule_after(NodeId /*node*/, std::int64_t delay_ns,
                      std::function<void()> fn) override {
    schedule_after(delay_ns, std::move(fn));
  }

  /// Runs `fn` on `node` as soon as the node is free, charging compute to
  /// it first. With scale_cost the charge is `cost_ns * compute_scale`
  /// (host-measured durations retargeted to the modeled PE); without it the
  /// charge is raw (calibrated per-platform constants).
  void execute_on(NodeId node, std::int64_t cost_ns, std::function<void()> fn,
                  bool scale_cost = true) override;

  /// Charges compute time to `node` from *inside* a currently running
  /// handler (e.g. after measuring how long a JIT compile really took).
  /// scale_cost as in execute_on.
  void consume_compute(NodeId node, std::int64_t cost_ns,
                       bool scale_cost = true) override;

  /// execute_on's re-queue step: runs `fn` once the node goes idle,
  /// rescheduling itself at busy_until while it is not.
  void execute_when_idle(NodeId node, std::int64_t cost_ns, bool scale_cost,
                         std::function<void()> fn);

  /// Reserves the src→dst injection channel for one message of `bytes` and
  /// returns the virtual time at which it enters the wire. Back-to-back
  /// sends serialize here, which is what makes large (uncached) frames
  /// bandwidth-bound in the message-rate experiments.
  VirtTime reserve_injection(NodeId src, NodeId dst, std::size_t bytes,
                             OpClass cls = OpClass::kSend);

  /// reserve_injection for a coalesced message of `fragments` logical
  /// frames: the channel is held for one per-message gap plus the link's
  /// per-item batch cost for each extra fragment (LinkModel::
  /// batch_occupancy_ns). fragments == 1 degenerates to reserve_injection.
  VirtTime reserve_injection_batch(NodeId src, NodeId dst, std::size_t bytes,
                                   std::size_t fragments,
                                   OpClass cls = OpClass::kSend);

  /// Schedules an idle event at the end of `node`'s charged compute.
  void sync_to_compute_horizon(NodeId node) override;

  // --- Transport identity ---------------------------------------------------
  const char* name() const override { return "sim"; }
  bool deterministic() const override { return true; }

  // --- data plane -----------------------------------------------------------
  // Each verb takes or copies its bytes (post_send moves the buffer it is
  // handed into the delivery event), reserves the src→dst injection
  // channel and schedules delivery at the modeled arrival time. The
  // delivery events capture only this Fabric, so a sender may go away
  // while its messages are still on the wire. Completions fire at arrival.
  // A src or dst that names no node fails the completion at once with
  // no_such_node() and posts nothing.

  /// Two-sided send into `dst`'s receive queue. `fragments` > 1 charges
  /// the injection channel for a coalesced message (one per-message gap
  /// plus the link's per-item batch cost per extra fragment).
  void post_send(NodeId src, NodeId dst, Bytes data, std::size_t fragments,
                 CompletionFn on_complete) override;
  using Transport::post_send;
  /// Active message; the handler runs on `dst` once it is free.
  void post_am(NodeId src, NodeId dst, AmId id, ByteSpan payload,
               CompletionFn on_complete) override;
  /// One-sided write into the registered memory `dst` names.
  void post_put(NodeId src, const RemoteAddr& dst, ByteSpan data,
                CompletionFn on_complete) override;
  /// One-sided read; completes after a full round trip.
  void post_get(NodeId src, const RemoteAddr& addr, std::size_t length,
                GetCompletionFn on_complete) override;

  // --- registered memory, receive queues, AM tables (per Node) --------------
  StatusOr<MemRegion> register_window(NodeId node, void* base,
                                      std::size_t length) override;
  Status expose_segment(NodeId node, void* base, std::size_t length) override;
  std::optional<MemRegion> exposed_segment(NodeId node) const override;
  Status register_am_handler(NodeId node, AmId id, AmHandler handler) override;
  Status unregister_am_handler(NodeId node, AmId id) override;
  std::optional<ReceivedMessage> try_recv(NodeId node) override;
  void set_delivery_notifier(NodeId node,
                             std::function<void()> notify) override;

  // --- progress ---------------------------------------------------------------
  /// Processes the next event. Returns false when the queue is empty.
  bool step();
  /// Runs until no events remain; returns the number processed.
  std::size_t run_until_idle(std::size_t max_events = kDefaultMaxEvents);
  /// Runs until `pred()` is true. Fails with kResourceExhausted if the event
  /// budget is spent and kFailedPrecondition if the fabric idles first.
  Status run_until(const std::function<bool()>& pred,
                   std::size_t max_events = kDefaultMaxEvents);
  /// One event queue drives every node: `node` does not matter.
  bool progress(NodeId /*node*/) override { return step(); }
  Status run_until(NodeId /*node*/,
                   const std::function<bool()>& pred) override {
    return run_until(pred);
  }

  struct Stats {
    std::uint64_t events = 0;
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t ams = 0;
    std::uint64_t sends = 0;
    std::uint64_t bytes_on_wire = 0;
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  struct Event {
    VirtTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  /// The endpoint check every post_* runs first (see the data plane).
  template <typename Fn>
  bool admit_post(const char* verb, NodeId src, NodeId dst, Fn& on_complete) {
    if (src < nodes_.size() && dst < nodes_.size()) [[likely]] return true;
    const NodeId bad = src < nodes_.size() ? dst : src;
    if (on_complete) on_complete(no_such_node(verb, bad, nodes_.size()));
    return false;
  }

  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;  // min-heap: earlier seq first
    }
  };

  std::vector<std::unique_ptr<Node>> nodes_;
  LinkModel default_link_;
  // Directional link overrides keyed by (src << 32 | dst).
  std::unordered_map<std::uint64_t, LinkModel> links_;
  // Injection-channel availability, same key scheme.
  std::unordered_map<std::uint64_t, VirtTime> link_busy_;
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  VirtTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace tc::fabric
