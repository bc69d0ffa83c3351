#include "fabric/wall_clock_transport.hpp"

#include <chrono>
#include <string>
#include <utility>

namespace tc::fabric {

WallClockTransport::WallClockTransport(std::size_t node_count,
                                       NodeId only_local,
                                       std::int64_t run_until_timeout_ms)
    : run_until_timeout_ms_(run_until_timeout_ms) {
  nodes_.resize(node_count);
  for (NodeId node = 0; node < node_count; ++node) {
    if (only_local == kAllLocal || node == only_local) {
      nodes_[node] = std::make_unique<NodeState>();
    }
  }
}

Status WallClockTransport::not_local(const char* verb, NodeId node) const {
  if (node >= nodes_.size()) return no_such_node(verb, node, nodes_.size());
  return invalid_argument(std::string(verb) + ": node " +
                          std::to_string(node) + " is not local");
}

Status WallClockTransport::post_refusal(const char* verb, NodeId src,
                                        NodeId dst) const {
  if (!is_local(src)) return not_local(verb, src);
  return no_such_node(verb, dst, nodes_.size());
}

std::int64_t WallClockTransport::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Worker::Stats WallClockTransport::worker_stats(NodeId node) const {
  const NodeState* state = local_state(node);
  return state != nullptr ? state->worker.stats() : Worker::Stats{};
}

StatusOr<MemRegion> WallClockTransport::allocate_window(NodeId node,
                                                        std::size_t length) {
  if (length == 0) return invalid_argument("allocate_window: empty window");
  std::uint8_t* base = nullptr;
  {
    std::lock_guard lock(arena_mu_);
    arena_.emplace_back(length);
    base = arena_.back().data();
  }
  return register_window(node, base, length);
}

void WallClockTransport::start_progress_threads(
    const std::vector<NodeId>& nodes) {
  for (NodeId node : nodes) {
    threads_.emplace_back([this, node] {
      int idle_spins = 0;
      while (!stop_.load(std::memory_order_relaxed)) {
        if (progress(node)) {
          idle_spins = 0;
          continue;
        }
        // Back off gradually: stay hot right after traffic, then yield,
        // then nap so an idle 8-node transport is not 8 spinning cores.
        if (++idle_spins < 64) continue;
        if (idle_spins < 1024) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
    });
  }
}

void WallClockTransport::stop_progress_threads() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  stop_.store(false, std::memory_order_relaxed);
}

// --- completion table ---------------------------------------------------------

std::uint64_t WallClockTransport::stash_completion(NodeId node, NodeId dst,
                                                   CompletionFn cb) {
  NodeState& state = node_state(node);
  std::lock_guard lock(state.completions_mu);
  const std::uint64_t cid = state.next_cid++;
  state.completions.emplace(cid, Pending<CompletionFn>{std::move(cb), dst});
  return cid;
}

std::uint64_t WallClockTransport::stash_get_completion(NodeId node,
                                                       NodeId dst,
                                                       GetCompletionFn cb) {
  NodeState& state = node_state(node);
  std::lock_guard lock(state.completions_mu);
  const std::uint64_t cid = state.next_cid++;
  state.get_completions.emplace(cid,
                                Pending<GetCompletionFn>{std::move(cb), dst});
  return cid;
}

void WallClockTransport::complete(NodeId node, std::uint64_t cid,
                                  Status status) {
  NodeState& state = node_state(node);
  CompletionFn cb;
  {
    std::lock_guard lock(state.completions_mu);
    auto it = state.completions.find(cid);
    if (it == state.completions.end()) return;
    cb = std::move(it->second.fn);
    state.completions.erase(it);
  }
  if (cb) cb(std::move(status));
}

void WallClockTransport::complete_get(NodeId node, std::uint64_t cid,
                                      StatusOr<Bytes> result) {
  NodeState& state = node_state(node);
  GetCompletionFn cb;
  {
    std::lock_guard lock(state.completions_mu);
    auto it = state.get_completions.find(cid);
    if (it == state.get_completions.end()) return;
    cb = std::move(it->second.fn);
    state.get_completions.erase(it);
  }
  if (cb) cb(std::move(result));
}

void WallClockTransport::fail_completions_to(NodeId node, NodeId peer,
                                             const Status& status) {
  NodeState& state = node_state(node);
  std::vector<CompletionFn> cbs;
  std::vector<GetCompletionFn> get_cbs;
  {
    std::lock_guard lock(state.completions_mu);
    std::erase_if(state.completions, [&](auto& entry) {
      if (entry.second.dst != peer) return false;
      cbs.push_back(std::move(entry.second.fn));
      return true;
    });
    std::erase_if(state.get_completions, [&](auto& entry) {
      if (entry.second.dst != peer) return false;
      get_cbs.push_back(std::move(entry.second.fn));
      return true;
    });
  }
  for (auto& cb : cbs) {
    if (cb) cb(status);
  }
  for (auto& cb : get_cbs) {
    if (cb) cb(status);
  }
}

// --- node-local verbs ---------------------------------------------------------

StatusOr<MemRegion> WallClockTransport::register_window(NodeId node,
                                                        void* base,
                                                        std::size_t length) {
  NodeState* state = local_state(node);
  if (state == nullptr) return not_local("register_window", node);
  std::lock_guard lock(state->mem_mu);
  return state->memory.register_memory(base, length);
}

Status WallClockTransport::expose_segment(NodeId node, void* base,
                                          std::size_t length) {
  NodeState* state = local_state(node);
  if (state == nullptr) return not_local("expose_segment", node);
  std::lock_guard lock(state->mem_mu);
  if (state->exposed.has_value()) {
    return already_exists("node " + std::to_string(node) +
                          " already exposes a segment");
  }
  auto region = state->memory.register_memory(base, length);
  if (!region.is_ok()) return region.status();
  state->exposed = *region;
  return Status::ok();
}

std::optional<MemRegion> WallClockTransport::exposed_segment(
    NodeId node) const {
  const NodeState* state = local_state(node);
  if (state == nullptr) return std::nullopt;
  std::lock_guard lock(state->mem_mu);
  return state->exposed;
}

Status WallClockTransport::register_am_handler(NodeId node, AmId id,
                                               AmHandler handler) {
  NodeState* state = local_state(node);
  if (state == nullptr) return not_local("register_am_handler", node);
  return state->worker.register_am(id, std::move(handler));
}

Status WallClockTransport::unregister_am_handler(NodeId node, AmId id) {
  NodeState* state = local_state(node);
  if (state == nullptr) return not_local("unregister_am_handler", node);
  return state->worker.unregister_am(id);
}

std::optional<ReceivedMessage> WallClockTransport::try_recv(NodeId node) {
  NodeState* state = local_state(node);
  if (state == nullptr) return std::nullopt;
  return state->worker.try_recv();
}

void WallClockTransport::set_delivery_notifier(NodeId node,
                                               std::function<void()> notify) {
  NodeState* state = local_state(node);
  if (state == nullptr) return;
  state->worker.set_delivery_notifier(std::move(notify));
}

// --- timers & progress --------------------------------------------------------

void WallClockTransport::execute_on(NodeId, std::int64_t,
                                    std::function<void()> fn, bool) {
  fn();
}

void WallClockTransport::schedule_after(NodeId node, std::int64_t delay_ns,
                                        std::function<void()> fn) {
  NodeState* state = local_state(node);
  if (state == nullptr) return;
  std::lock_guard lock(state->timers_mu);
  state->timers.push_back(Timer{now_ns() + delay_ns, std::move(fn)});
}

bool WallClockTransport::fire_due_timers(NodeId node) {
  NodeState& state = node_state(node);
  std::vector<std::function<void()>> due;
  {
    std::lock_guard lock(state.timers_mu);
    if (state.timers.empty()) return false;
    const std::int64_t now = now_ns();
    for (std::size_t i = 0; i < state.timers.size();) {
      if (state.timers[i].deadline_ns <= now) {
        due.push_back(std::move(state.timers[i].fn));
        state.timers[i] = std::move(state.timers.back());
        state.timers.pop_back();
      } else {
        ++i;
      }
    }
  }
  for (auto& fn : due) fn();
  return !due.empty();
}

Status WallClockTransport::run_until(NodeId node,
                                     const std::function<bool()>& pred) {
  if (!is_local(node)) return not_local("run_until", node);
  const std::int64_t deadline = now_ns() + run_until_timeout_ms_ * 1'000'000;
  const auto timeout = [this] {
    return resource_exhausted(std::string(name()) +
                              " run_until: timeout after " +
                              std::to_string(run_until_timeout_ms_) + " ms");
  };
  int idle_spins = 0;
  std::uint32_t iterations = 0;
  while (!pred()) {
    // The budget must fire even while traffic keeps flowing (a
    // self-sustaining forward loop keeps progress() busy forever), so the
    // deadline is polled periodically regardless of progress, not only
    // when idle.
    if ((++iterations & 0xFF) == 0 && now_ns() > deadline) return timeout();
    if (progress(node)) {
      idle_spins = 0;
      continue;
    }
    if (now_ns() > deadline) return timeout();
    if (++idle_spins >= 64) std::this_thread::yield();
  }
  return Status::ok();
}

}  // namespace tc::fabric
