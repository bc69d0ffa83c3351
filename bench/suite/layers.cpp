// Per-layer measurements from outside the program: a standalone transport
// of the workload's backend, the frame codec on the workload's kernel, and
// the traced run folded into the cost of each layer along every op's
// critical path.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <unordered_map>

#include "bench.hpp"
#include "core/frame.hpp"
#include "core/ifunc.hpp"
#include "fabric/shm_transport.hpp"
#include "fabric/socket_transport.hpp"
#include "obs/export.hpp"
#include "xrdma/chaser.hpp"

namespace tc::suite {

namespace {

constexpr fabric::AmId kEcho = 0x7a01;
constexpr fabric::AmId kEchoBack = 0x7a02;
constexpr std::size_t kWarmSamples = 1'000;
constexpr std::size_t kSamples = 10'000;

/// Times `op` kSamples times (after kWarmSamples untimed) and returns the
/// per-call durations in ns.
template <typename Op>
StatusOr<std::vector<double>> sample_ns(Op op) {
  std::vector<double> samples;
  samples.reserve(kSamples);
  for (std::size_t i = 0; i < kWarmSamples + kSamples; ++i) {
    TC_ASSIGN_OR_RETURN(double ns, op());
    if (i >= kWarmSamples) samples.push_back(ns);
  }
  return samples;
}

StatusOr<core::IfuncLibrary> workload_library(const WorkloadSpec& spec) {
  switch (spec.kind) {
    case Kind::kProbe:
#if TC_WITH_LLVM
      return core::IfuncLibrary::from_kernel(ir::KernelKind::kHashProbe);
#else
      return core::IfuncLibrary::from_portable_kernel(
          ir::KernelKind::kHashProbe);
#endif
    case Kind::kProbePortable:
      return core::IfuncLibrary::from_portable_kernel(
          ir::KernelKind::kHashProbe);
    case Kind::kChaseGet:
#if TC_WITH_LLVM
      return xrdma::build_chaser_library(ir::CodeRepr::kBitcode);
#else
      return xrdma::build_chaser_library(ir::CodeRepr::kPortable);
#endif
  }
  return internal_error("unknown workload kind");
}

/// Median per-call ns of `op` over batches of `batch` calls.
template <typename Op>
double per_call_ns(std::size_t batch, Op op) {
  std::vector<double> batches;
  for (int b = 0; b < 9; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) op();
    batches.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(batch));
  }
  return median(batches);
}

Status measure_codec(const WorkloadSpec& spec, StandaloneLayers& out) {
  TC_ASSIGN_OR_RETURN(core::IfuncLibrary lib, workload_library(spec));
  const Bytes payload(32, 0x5a);
  TC_ASSIGN_OR_RETURN(
      core::Frame frame,
      core::Frame::build(lib.id(), lib.repr(),
                         as_span(lib.serialized_archive()), as_span(payload),
                         0));
  TC_ASSIGN_OR_RETURN(bool has_code, core::Frame::validate(frame.truncated_view()));
  if (has_code) return internal_error("truncated frame validated with code");
  // The sink keeps the calls observable so none is optimized away.
  volatile std::size_t sink = 0;
  out.frame_build_ns = per_call_ns(2'000, [&] {
    auto built = core::Frame::build(lib.id(), lib.repr(),
                                    as_span(lib.serialized_archive()),
                                    as_span(payload), 0);
    sink = sink + (built.is_ok() ? built->full_size() : 0);
  });
  out.frame_validate_ns = per_call_ns(20'000, [&] {
    auto valid = core::Frame::validate(frame.truncated_view());
    sink = sink + (valid.is_ok() ? 1 : 0);
  });
  return Status::ok();
}

}  // namespace

StatusOr<StandaloneLayers> measure_standalone(const WorkloadSpec& spec) {
  StandaloneLayers out;
  TC_RETURN_IF_ERROR(measure_codec(spec, out));

  // Declared before the transports: the handlers below reference them and
  // the transports join their progress threads on destruction.
  std::atomic<std::uint64_t> echoed{0};
  std::atomic<std::uint64_t> received{0};
  std::unique_ptr<fabric::ShmTransport> shm;
  std::unique_ptr<fabric::SocketTransport> socket;
  fabric::Transport* t = nullptr;
  StatusOr<fabric::MemRegion> window = internal_error("no window");
  if (spec.backend == hetsim::Backend::kSocket) {
    TC_ASSIGN_OR_RETURN(socket, fabric::SocketTransport::create_threaded(2));
    window = socket->allocate_window(1, 64);
    t = socket.get();
  } else {
    shm = std::make_unique<fabric::ShmTransport>(2);
    window = shm->allocate_window(1, 64);
    t = shm.get();
  }
  if (!window.is_ok()) return window.status();
  TC_RETURN_IF_ERROR(t->register_am_handler(
      1, kEcho, [t](ByteSpan payload, fabric::NodeId src) {
        t->post_am(1, src, kEchoBack, payload, {});
      }));
  TC_RETURN_IF_ERROR(t->register_am_handler(
      0, kEchoBack,
      [&echoed](ByteSpan, fabric::NodeId) { echoed.fetch_add(1); }));
  t->set_delivery_notifier(1, [t, &received] {
    while (t->try_recv(1).has_value()) received.fetch_add(1);
  });
  if (socket != nullptr) {
    socket->start_progress_threads({1});
  } else {
    shm->start_progress_threads({1});
  }

  const Bytes payload(64, 0xa5);
  std::uint64_t n = 0;
  TC_ASSIGN_OR_RETURN(std::vector<double> rtt, sample_ns([&]() -> StatusOr<double> {
    const std::int64_t t0 = now_ns();
    t->post_am(0, 1, kEcho, as_span(payload), {});
    ++n;
    TC_RETURN_IF_ERROR(t->run_until(0, [&] { return echoed.load() == n; }));
    return static_cast<double>(now_ns() - t0);
  }));
  out.rtt_us = median(rtt) * 1e-3;

  const fabric::RemoteAddr remote = window->remote_addr(1, 0);
  TC_ASSIGN_OR_RETURN(std::vector<double> get, sample_ns([&]() -> StatusOr<double> {
    bool done = false;
    Status status;
    const std::int64_t t0 = now_ns();
    t->post_get(0, remote, 8, [&](StatusOr<Bytes> data) {
      if (!data.is_ok()) status = data.status();
      done = true;
    });
    TC_RETURN_IF_ERROR(t->run_until(0, [&] { return done; }));
    TC_RETURN_IF_ERROR(status);
    return static_cast<double>(now_ns() - t0);
  }));
  out.get_rtt_us = median(get) * 1e-3;

  // Fire-and-forget, as the runtime posts frames; each send is delivered
  // before the next so the call is timed against an idle link.
  n = 0;
  TC_ASSIGN_OR_RETURN(std::vector<double> post, sample_ns([&]() -> StatusOr<double> {
    const std::int64_t t0 = now_ns();
    t->post_send(0, 1, as_span(payload), 1, {});
    const std::int64_t t1 = now_ns();
    ++n;
    TC_RETURN_IF_ERROR(t->run_until(0, [&] { return received.load() == n; }));
    return static_cast<double>(t1 - t0);
  }));
  out.post_send_ns = median(post);
  out.post_send_p99_ns = quantile(post, 0.99);
  return out;
}

namespace {

/// One op's critical path, split by layer (ns).
struct PathCost {
  double wire_ns = 0, decode_ns = 0, dispatch_ns = 0, execute_ns = 0;
  double reply_ns = 0, hops = 0;
};

class TraceIndex {
 public:
  explicit TraceIndex(const std::vector<obs::TraceEvent>& events) {
    for (const obs::TraceEvent& e : events) {
      switch (e.kind) {
        case obs::SpanKind::kRootSend:
        case obs::SpanKind::kForwardSend:
        case obs::SpanKind::kReplySend:
        case obs::SpanKind::kExecute:
          by_id_[e.span_id] = &e;
          break;
        // Every span a frame's receiver records carries the span id of the
        // send that shipped the frame as its parent.
        case obs::SpanKind::kArrival:
          arrival_[e.parent_span] = &e;
          break;
        case obs::SpanKind::kDecode:
          decode_[e.parent_span] = &e;
          break;
        case obs::SpanKind::kResultArrival:
          results_.push_back(&e);
          break;
        default:
          break;
      }
    }
  }

  /// The result arrival stamped inside [from, to], if exactly one.
  const obs::TraceEvent* result_in(std::int64_t from, std::int64_t to) const {
    auto it = std::lower_bound(
        results_.begin(), results_.end(), from,
        [](const obs::TraceEvent* e, std::int64_t ts) { return e->ts_ns < ts; });
    if (it == results_.end() || (*it)->ts_ns > to) return nullptr;
    auto next = std::next(it);
    if (next != results_.end() && (*next)->ts_ns <= to) return nullptr;
    return *it;
  }

  /// Walks back from a result arrival: reply send -> the execute that sent
  /// it -> the send that delivered that execute's frame -> ... -> the root
  /// send. Each hop adds wire (send to arrival), decode, dispatch (decode
  /// end to execute start) and execute (start to the outgoing send), so
  /// the parts sum to result arrival minus root send. False on a missing
  /// span.
  bool walk(const obs::TraceEvent& result, PathCost& cost) const {
    const obs::TraceEvent* send = find(by_id_, result.parent_span);
    if (send == nullptr || send->kind != obs::SpanKind::kReplySend) {
      return false;
    }
    cost.reply_ns = static_cast<double>(result.ts_ns - send->ts_ns);
    while (send->kind != obs::SpanKind::kRootSend) {
      const obs::TraceEvent* exec = find(by_id_, send->parent_span);
      if (exec == nullptr || exec->kind != obs::SpanKind::kExecute) return false;
      const std::uint32_t delivered_by = exec->parent_span;
      const obs::TraceEvent* arrival = find(arrival_, delivered_by);
      const obs::TraceEvent* decode = find(decode_, delivered_by);
      const obs::TraceEvent* prev = find(by_id_, delivered_by);
      if (arrival == nullptr || decode == nullptr || prev == nullptr) {
        return false;
      }
      cost.execute_ns += static_cast<double>(send->ts_ns - exec->ts_ns);
      cost.dispatch_ns += static_cast<double>(
          exec->ts_ns - (decode->ts_ns + decode->dur_ns));
      cost.decode_ns += static_cast<double>(decode->dur_ns);
      cost.wire_ns += static_cast<double>(arrival->ts_ns - prev->ts_ns);
      cost.hops += 1;
      send = prev;
    }
    return true;
  }

 private:
  using Map = std::unordered_map<std::uint32_t, const obs::TraceEvent*>;
  static const obs::TraceEvent* find(const Map& map, std::uint32_t id) {
    auto it = map.find(id);
    return it == map.end() ? nullptr : it->second;
  }
  Map by_id_, arrival_, decode_;
  std::vector<const obs::TraceEvent*> results_;  // drain_all is ts-sorted
};

/// Ring capacity of the traced run: the run stops issuing ops once any
/// node's ring is half full, so nothing is overwritten.
constexpr std::size_t kTraceRing = std::size_t{1} << 18;
constexpr std::size_t kMaxTracedOps = 5'000;

/// Builds a cluster traced by `tracer` and the workload's subject on it
/// (chase_get takes the ifunc path: see make_subject), and runs `ops` on
/// the subject. On a failure the cluster is quiesced before the subject
/// frees the driver's data.
template <typename Ops>
Status on_fresh_cluster(const WorkloadSpec& spec, std::uint64_t seed,
                        obs::Tracer& tracer, Ops ops) {
  TC_ASSIGN_OR_RETURN(auto cluster,
                      hetsim::Cluster::create(cluster_config(spec, &tracer)));
  std::unique_ptr<Subject> subject;
  const Status status = [&]() -> Status {
    TC_ASSIGN_OR_RETURN(subject,
                        make_subject(*cluster, spec, seed,
                                     /*ifunc_path=*/spec.kind == Kind::kChaseGet));
    return ops(*subject);
  }();
  if (!status.is_ok()) quiesce(*cluster);
  return status;
}

}  // namespace

TraceBreakdown traced_breakdown(const WorkloadSpec& spec, std::uint64_t seed,
                                double budget_s, const std::string& trace_out,
                                Tally& tally) {
  obs::Tracer tracer(0, kTraceRing);
  struct Window {
    std::int64_t from, to;
    double latency_us;
  };
  std::vector<Window> windows;
  TraceBreakdown out;
  const Status run = on_fresh_cluster(
      spec, seed, tracer, [&](Subject& subject) -> Status {
    TC_ASSIGN_OR_RETURN(double cold, subject.one(0, tally));
    (void)cold;
    TC_ASSIGN_OR_RETURN(Subject::Done warmed, subject.many(1'000, tally));
    (void)warmed;
    const double deadline = now_s() + budget_s;
    auto rings_half_full = [&] {
      for (std::uint32_t node = 0; node < tracer.node_count(); ++node) {
        if (tracer.ring(node).size() * 2 >= kTraceRing) return true;
      }
      return false;
    };
    while (windows.size() < kMaxTracedOps && now_s() < deadline &&
           !rings_half_full()) {
      const std::int64_t from = now_ns();
      TC_ASSIGN_OR_RETURN(double us, subject.one(windows.size() + 1, tally));
      windows.push_back({from, now_ns(), us});
    }
    return Status::ok();
  });  // the cluster joins its progress threads: every ring is quiescent
  if (!run.is_ok()) out.error = run.to_string();

  out.dropped = tracer.total_dropped();
  const std::vector<obs::TraceEvent> events = tracer.drain_all();
  out.events = events.size();
  if (!trace_out.empty()) {
    std::ofstream file(trace_out, std::ios::binary | std::ios::trunc);
    file << obs::chrome_trace_json(events, std::string("tc_bench ") + spec.name);
    if (!file && out.error.empty()) out.error = "cannot write " + trace_out;
  }

  const TraceIndex index(events);
  std::vector<double> latency, wire, decode, dispatch, execute, reply, rest,
      hops;
  std::unordered_map<std::uint64_t, bool> measured_traces;
  for (const Window& w : windows) {
    const obs::TraceEvent* result = index.result_in(w.from, w.to);
    PathCost cost;
    if (result == nullptr || !index.walk(*result, cost)) {
      ++out.incomplete;
      continue;
    }
    measured_traces[result->trace_id] = true;
    latency.push_back(w.latency_us);
    wire.push_back(cost.wire_ns * 1e-3);
    decode.push_back(cost.decode_ns * 1e-3);
    dispatch.push_back(cost.dispatch_ns * 1e-3);
    execute.push_back(cost.execute_ns * 1e-3);
    reply.push_back(cost.reply_ns * 1e-3);
    rest.push_back(w.latency_us - (cost.wire_ns + cost.decode_ns +
                                   cost.dispatch_ns + cost.execute_ns +
                                   cost.reply_ns) * 1e-3);
    hops.push_back(cost.hops);
  }
  out.ops = latency.size();
  if (out.ops == 0) {
    if (out.error.empty()) {
      out.error = "traced run folded no complete op (" +
                  std::to_string(out.incomplete) + " incomplete)";
    }
    return out;
  }
  out.latency_p50_us = median(latency);
  out.wire_us = median(wire);
  out.decode_us = median(decode);
  out.dispatch_us = median(dispatch);
  out.execute_us = median(execute);
  out.reply_us = median(reply);
  out.unattributed_us = median(rest);
  out.path_hops = median(hops);
  std::vector<double> exec_ns;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::SpanKind::kExecute &&
        measured_traces.contains(e.trace_id)) {
      exec_ns.push_back(static_cast<double>(e.dur_ns));
    }
  }
  out.execute_ns = median(exec_ns);
  out.execute_p99_ns = quantile(exec_ns, 0.99);
  return out;
}

StatusOr<double> trace_overhead_pct(const WorkloadSpec& spec,
                                    std::uint64_t seed, Tally& tally) {
  // Overwriting a small ring costs what appending to a large one does.
  obs::Tracer tracer(0, std::size_t{1} << 12);
  tracer.set_enabled(false);
  std::vector<double> untraced, traced;
  TC_RETURN_IF_ERROR(on_fresh_cluster(
      spec, seed, tracer, [&](Subject& subject) -> Status {
    // One batch size throughout: a chase driver registers its kernel on
    // the cluster, so a second batch size would register it twice.
    const std::size_t count = std::max<std::size_t>(1, spec.throughput_ops / 2);
    TC_ASSIGN_OR_RETURN(Subject::Done warm, subject.many(count, tally));
    (void)warm;
    for (std::size_t rep = 0; rep < spec.reps; ++rep) {
      for (bool on : {false, true}) {
        tracer.set_enabled(on);
        TC_ASSIGN_OR_RETURN(Subject::Done done, subject.many(count, tally));
        (on ? traced : untraced)
            .push_back(static_cast<double>(done.units) /
                       static_cast<double>(std::max<std::int64_t>(done.ns, 1)));
      }
    }
    tracer.set_enabled(false);
    return Status::ok();
  }));
  return (1.0 - median(traced) / median(untraced)) * 100.0;
}

}  // namespace tc::suite
