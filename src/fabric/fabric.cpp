#include "fabric/fabric.hpp"

#include <cassert>
#include <cstring>
#include <string>
#include <utility>

#include "common/log.hpp"

namespace tc::fabric {

namespace {
std::uint64_t link_key(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}
}  // namespace

NodeId Fabric::add_node(std::string name, double compute_scale) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  auto node = std::make_unique<Node>();
  node->id = id;
  node->name = std::move(name);
  node->compute_scale = compute_scale;
  nodes_.push_back(std::move(node));
  return id;
}

Node& Fabric::node(NodeId id) {
  assert(id < nodes_.size() && "invalid NodeId");
  return *nodes_[id];
}

const Node& Fabric::node(NodeId id) const {
  assert(id < nodes_.size() && "invalid NodeId");
  return *nodes_[id];
}

void Fabric::set_link(NodeId a, NodeId b, const LinkModel& model) {
  links_[link_key(a, b)] = model;
  links_[link_key(b, a)] = model;
}

const LinkModel& Fabric::link(NodeId src, NodeId dst) const {
  auto it = links_.find(link_key(src, dst));
  return it == links_.end() ? default_link_ : it->second;
}

void Fabric::schedule_at(VirtTime t, std::function<void()> fn) {
  assert(t >= now_ && "cannot schedule into the past");
  queue_.push(Event{t, next_seq_++, std::move(fn)});
}

void Fabric::execute_on(NodeId node_id, std::int64_t cost_ns,
                        std::function<void()> fn, bool scale_cost) {
  // Re-queue until the node is idle, charge the cost, then run the body at
  // the *end* of the charged interval so its visible effects (sends,
  // stores) occur after the modeled work completes. The re-queue recurses
  // through a named member rather than a closure that captures a
  // shared_ptr to itself — the self-capture formed a reference cycle that
  // leaked every attempt closure (and whatever `fn` held) per call.
  schedule_at(now_, [this, node_id, cost_ns, scale_cost,
                     fn = std::move(fn)]() mutable {
    execute_when_idle(node_id, cost_ns, scale_cost, std::move(fn));
  });
}

void Fabric::execute_when_idle(NodeId node_id, std::int64_t cost_ns,
                               bool scale_cost, std::function<void()> fn) {
  Node& n = node(node_id);
  if (n.busy_until > now_) {
    schedule_at(n.busy_until, [this, node_id, cost_ns, scale_cost,
                               fn = std::move(fn)]() mutable {
      execute_when_idle(node_id, cost_ns, scale_cost, std::move(fn));
    });
    return;
  }
  consume_compute(node_id, cost_ns, scale_cost);
  if (n.busy_until > now_) {
    schedule_at(n.busy_until, std::move(fn));
  } else {
    fn();
  }
}

void Fabric::consume_compute(NodeId node_id, std::int64_t cost_ns,
                             bool scale_cost) {
  Node& n = node(node_id);
  const auto charged =
      scale_cost ? static_cast<std::int64_t>(static_cast<double>(cost_ns) *
                                             n.compute_scale)
                 : cost_ns;
  const VirtTime start = n.busy_until > now_ ? n.busy_until : now_;
  n.busy_until = start + charged;
}

VirtTime Fabric::reserve_injection(NodeId src, NodeId dst, std::size_t bytes,
                                   OpClass cls) {
  return reserve_injection_batch(src, dst, bytes, /*fragments=*/1, cls);
}

VirtTime Fabric::reserve_injection_batch(NodeId src, NodeId dst,
                                         std::size_t bytes,
                                         std::size_t fragments, OpClass cls) {
  const LinkModel& model = link(src, dst);
  VirtTime& busy = link_busy_[link_key(src, dst)];
  const VirtTime start = busy > now_ ? busy : now_;
  busy = start + model.batch_occupancy_ns(bytes, fragments, cls);
  return start;
}

void Fabric::sync_to_compute_horizon(NodeId node_id) {
  const VirtTime busy = node(node_id).busy_until;
  if (busy > now_) schedule_at(busy, [] {});
}

void Fabric::post_send(NodeId src, NodeId dst, Bytes data,
                       std::size_t fragments, CompletionFn on_complete) {
  if (!admit_post("post_send", src, dst, on_complete)) return;
  ++stats_.sends;
  stats_.bytes_on_wire += data.size();

  const VirtTime start =
      reserve_injection_batch(src, dst, data.size(), fragments);
  const VirtTime arrival = start + link(src, dst).transmit_ns(data.size());
  schedule_at(arrival, [this, src, dst, data = std::move(data),
                        cb = std::move(on_complete)]() mutable {
    node(dst).worker.deliver_message(std::move(data), src);
    if (cb) cb(Status::ok());
  });
}

void Fabric::post_am(NodeId src, NodeId dst, AmId id, ByteSpan payload,
                     CompletionFn on_complete) {
  if (!admit_post("post_am", src, dst, on_complete)) return;
  ++stats_.ams;
  stats_.bytes_on_wire += payload.size();

  Bytes copy(payload.begin(), payload.end());
  const VirtTime start =
      reserve_injection(src, dst, payload.size(), OpClass::kAm);
  const VirtTime arrival = start + link(src, dst).transmit_ns(copy.size());
  schedule_at(arrival, [this, id, src, dst, copy = std::move(copy),
                        cb = std::move(on_complete)]() mutable {
    // Handler execution serializes with other compute on the target node.
    execute_on(dst, /*cost_ns=*/0,
               [this, id, src, dst, copy = std::move(copy),
                cb = std::move(cb)]() mutable {
                 Status st = node(dst).worker.deliver_am(id, std::move(copy),
                                                         src);
                 if (cb) cb(st);
               });
  });
}

void Fabric::post_put(NodeId src, const RemoteAddr& dst, ByteSpan data,
                      CompletionFn on_complete) {
  if (!admit_post("post_put", src, dst.node, on_complete)) return;
  ++stats_.puts;
  stats_.bytes_on_wire += data.size();

  Bytes copy(data.begin(), data.end());
  const VirtTime start = reserve_injection(src, dst.node, data.size());
  const VirtTime arrival =
      start + link(src, dst.node).transmit_ns(copy.size());
  schedule_at(arrival, [this, dst, copy = std::move(copy),
                        cb = std::move(on_complete)]() mutable {
    auto target =
        node(dst.node).memory.translate(dst.rkey, dst.offset, copy.size());
    if (!target.is_ok()) {
      if (cb) cb(target.status());
      return;
    }
    std::memcpy(*target, copy.data(), copy.size());
    if (cb) cb(Status::ok());
  });
}

void Fabric::post_get(NodeId src, const RemoteAddr& addr, std::size_t length,
                      GetCompletionFn on_complete) {
  if (!admit_post("post_get", src, addr.node, on_complete)) return;
  ++stats_.gets;
  stats_.bytes_on_wire += length;

  const VirtTime start = reserve_injection(src, addr.node, 0);
  const VirtTime delay = link(src, addr.node).round_trip_ns(length);
  schedule_at(start + delay, [this, addr, length,
                              cb = std::move(on_complete)]() mutable {
    auto source = node(addr.node).memory.translate(addr.rkey, addr.offset,
                                                   length);
    if (!source.is_ok()) {
      if (cb) cb(source.status());
      return;
    }
    Bytes out(*source, *source + length);
    if (cb) cb(std::move(out));
  });
}

StatusOr<MemRegion> Fabric::register_window(NodeId node_id, void* base,
                                            std::size_t length) {
  return node(node_id).memory.register_memory(base, length);
}

Status Fabric::expose_segment(NodeId node_id, void* base, std::size_t length) {
  Node& n = node(node_id);
  if (n.exposed_segment.has_value()) {
    return already_exists("node " + std::to_string(node_id) +
                          " already exposes a segment");
  }
  TC_ASSIGN_OR_RETURN(MemRegion region, n.memory.register_memory(base, length));
  n.exposed_segment = region;
  return Status::ok();
}

std::optional<MemRegion> Fabric::exposed_segment(NodeId node_id) const {
  return node(node_id).exposed_segment;
}

Status Fabric::register_am_handler(NodeId node_id, AmId id,
                                   AmHandler handler) {
  return node(node_id).worker.register_am(id, std::move(handler));
}

Status Fabric::unregister_am_handler(NodeId node_id, AmId id) {
  return node(node_id).worker.unregister_am(id);
}

std::optional<ReceivedMessage> Fabric::try_recv(NodeId node_id) {
  return node(node_id).worker.try_recv();
}

void Fabric::set_delivery_notifier(NodeId node_id,
                                   std::function<void()> notify) {
  node(node_id).worker.set_delivery_notifier(std::move(notify));
}

bool Fabric::step() {
  if (queue_.empty()) return false;
  // priority_queue::top returns const&; the event is moved out via const_cast
  // which is safe because we pop immediately and never re-inspect it.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  assert(ev.time >= now_);
  now_ = ev.time;
  ++stats_.events;
  ev.fn();
  return true;
}

std::size_t Fabric::run_until_idle(std::size_t max_events) {
  std::size_t processed = 0;
  while (processed < max_events && step()) ++processed;
  if (processed == max_events) {
    TC_LOG(kWarn, "fabric") << "run_until_idle hit event budget "
                            << max_events;
  }
  return processed;
}

Status Fabric::run_until(const std::function<bool()>& pred,
                         std::size_t max_events) {
  std::size_t processed = 0;
  while (!pred()) {
    if (processed >= max_events) {
      return resource_exhausted("run_until: event budget exhausted");
    }
    if (!step()) {
      return failed_precondition(
          "run_until: fabric idle before predicate satisfied");
    }
    ++processed;
  }
  return Status::ok();
}

}  // namespace tc::fabric
