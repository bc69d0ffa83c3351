#include "core/runtime.hpp"

#include <algorithm>
#include <chrono>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "core/context.hpp"
#include "ir/target_info.hpp"

namespace tc::core {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t sent_key(fabric::NodeId peer, std::uint64_t ifunc_id) {
  return hash_combine(peer, ifunc_id);
}

/// The sections a send of `lib` under the wire id `ifunc_id` encodes.
FrameParts library_parts(std::uint64_t ifunc_id, const IfuncLibrary& lib,
                         ByteSpan payload, std::uint32_t origin_node) {
  FrameParts parts;
  parts.ifunc_id = ifunc_id;
  parts.repr = lib.repr();
  parts.code_archive = as_span(lib.serialized_archive());
  parts.payload = payload;
  parts.origin_node = origin_node;
  return parts;
}

}  // namespace

StatusOr<std::unique_ptr<Runtime>> Runtime::create(
    fabric::Transport& transport, fabric::NodeId node,
    RuntimeOptions options) {
  if (node >= transport.node_count()) {
    return invalid_argument("Runtime::create: no node " +
                            std::to_string(node));
  }
  auto runtime = std::unique_ptr<Runtime>(
      new Runtime(transport, node, std::move(options)));
  runtime->attach_notifier();
  return runtime;
}

Runtime::Runtime(fabric::Transport& transport, fabric::NodeId node,
                 RuntimeOptions options)
    : transport_(&transport), node_(node), options_(std::move(options)) {
  alive_token_ = std::make_shared<Runtime*>(this);
  for (auto& [name, address] : runtime_hook_symbols()) {
    options_.engine.extra_symbols.emplace_back(std::move(name), address);
  }
}

void Runtime::attach_notifier() {
  if (!options_.auto_poll) return;
  transport_->set_delivery_notifier(node_, [this] {
    // Wake the progress engine: serialize one poll step with the node's
    // other modeled work (on the shm backend this runs inline on the
    // node's progress context).
    transport_->execute_on(node_, 0, [this] { poll(1); },
                           /*scale_cost=*/true);
  });
}

Runtime::~Runtime() {
#if TC_WITH_LLVM
  // Stop the background promotion worker first: it may still hold a compile
  // in flight, and everything it touches (engine, mailbox) must outlive it.
  {
    std::lock_guard lock(promote_mu_);
    promote_stop_ = true;
  }
  promote_cv_.notify_all();
  if (promote_thread_.joinable()) promote_thread_.join();
#endif
  // Like closing a socket with unsent buffers: frames still waiting in a
  // batch are cancelled, not silently lost — each queued completion hears
  // about it. (Shipping them here would post from whatever thread runs the
  // destructor, which need not be this node's progress context; see the
  // threading contract in fabric/transport.hpp.) Completions are extracted
  // under the lock and invoked outside it, like every flush path — a
  // callback may re-enter the coalescer.
  std::vector<fabric::CompletionFn> cancelled;
  {
    std::lock_guard lock(batches_mu_);
    for (auto& [dst, batch] : batches_) {
      (void)dst;
      for (fabric::CompletionFn& fn : batch.completions) {
        if (fn) cancelled.push_back(std::move(fn));
      }
      batch.frames.clear();
      batch.completions.clear();
    }
  }
  for (fabric::CompletionFn& fn : cancelled) {
    fn(unavailable("runtime destroyed with batched frames pending"));
  }
  if (options_.auto_poll) {
    transport_->set_delivery_notifier(node_, nullptr);
  }
}

Status Runtime::ensure_engine() {
#if TC_WITH_LLVM
  if (engine_) return Status::ok();
  TC_ASSIGN_OR_RETURN(engine_, jit::OrcEngine::create(options_.engine));
  return Status::ok();
#else
  return failed_precondition(
      "this runtime was built without LLVM (TC_WITH_LLVM=OFF); only the "
      "portable interpreter tier can execute ifuncs");
#endif
}

// --- registration -------------------------------------------------------------

StatusOr<std::uint64_t> Runtime::register_ifunc(IfuncLibrary library) {
  const std::uint64_t id = library.id();
  if (registry_.contains(id)) {
    return already_exists("ifunc '" + library.name() + "' already registered");
  }
  names_.emplace(library.name(), id);
  auto [it, inserted] =
      registry_.emplace(id, Registered{std::move(library), nullptr});
  (void)inserted;
  it->second.generation = ++registration_seq_;
  return id;
}

bool Runtime::is_registered(std::uint64_t ifunc_id) const {
  return registry_.contains(ifunc_id);
}

StatusOr<std::uint64_t> Runtime::ifunc_id_by_name(
    const std::string& name) const {
  auto it = names_.find(name);
  if (it == names_.end()) return not_found("no ifunc named '" + name + "'");
  return it->second;
}

Status Runtime::deregister_ifunc(std::uint64_t ifunc_id) {
  auto it = registry_.find(ifunc_id);
  if (it == registry_.end()) {
    return not_found("ifunc " + std::to_string(ifunc_id) + " not registered");
  }
  names_.erase(it->second.library.name());
  release_tier(it->second);
  registry_.erase(it);
  return Status::ok();
}

Status Runtime::expose_segment(void* base, std::size_t length) {
  return transport_->expose_segment(node_, base, length);
}

void Runtime::set_peers(std::vector<fabric::NodeId> peers) {
  peers_ = std::move(peers);
  self_peer_ = ~0ull;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i] == node_) self_peer_ = i;
  }
}

// --- sending ---------------------------------------------------------------------

StatusOr<Frame> Runtime::create_message(std::uint64_t ifunc_id,
                                        ByteSpan payload) const {
  auto it = registry_.find(ifunc_id);
  if (it == registry_.end()) {
    return failed_precondition("create_message: ifunc " +
                               std::to_string(ifunc_id) + " not registered");
  }
  const IfuncLibrary& lib = it->second.library;
  return Frame::build(lib.id(), lib.repr(), as_span(lib.serialized_archive()),
                      payload, node_);
}

void Runtime::record_span(obs::SpanKind kind, const obs::TraceContext& trace,
                          std::uint32_t span_id, std::int64_t ts_ns,
                          std::int64_t dur_ns, std::uint64_t ifunc_id,
                          std::uint32_t peer, std::uint8_t repr,
                          std::uint8_t tier) {
  obs::TraceEvent event;
  event.ts_ns = ts_ns;
  event.dur_ns = dur_ns;
  event.trace_id = trace.trace_id;
  event.ifunc_id = ifunc_id;
  event.node = static_cast<std::uint32_t>(node_);
  event.peer = peer;
  event.span_id = span_id;
  event.parent_span = trace.parent_span;
  event.hop = trace.hop;
  event.kind = kind;
  event.repr = repr;
  event.tier = tier;
  options_.tracer->ring(static_cast<std::uint32_t>(node_)).push(event);
}

void Runtime::record_batch_flush(std::int64_t first_queued_ns) {
  if (options_.metrics == nullptr || first_queued_ns == 0) return;
  const std::int64_t waited = transport_->now_ns() - first_queued_ns;
  options_.metrics->histogram("batch_wait_ns")
      .record(waited > 0 ? static_cast<std::uint64_t>(waited) : 0);
}

void Runtime::dispatch_frame_bytes(fabric::NodeId dst, Bytes bytes,
                                   fabric::CompletionFn on_complete) {
  if (options_.batch.max_frames > 1) {
    enqueue_batched_frame(dst, std::move(bytes), std::move(on_complete));
  } else {
    post_wire(dst, std::move(bytes), /*fragments=*/1, std::move(on_complete));
  }
}

void Runtime::post_wire(fabric::NodeId dst, Bytes bytes,
                        std::size_t fragments,
                        fabric::CompletionFn on_complete) {
  if (options_.max_send_retries == 0) {
    transport_->post_send(node_, dst, std::move(bytes), fragments,
                          std::move(on_complete));
    return;
  }
  // Retry needs the bytes to outlive the first attempt: they stay in one
  // shared buffer, and each attempt posts a copy of it (the span overload).
  auto buffer = std::make_shared<const Bytes>(std::move(bytes));
  post_wire_attempt(dst, std::move(buffer), fragments, std::move(on_complete),
                    options_.max_send_retries);
}

// Spacing between wire-send retry attempts (virtual ns on sim, wall on
// shm/socket). It must exceed a fault burst's footprint for bursts to be
// survivable.
constexpr std::int64_t kRetryBackoffNs = 2'000;

void Runtime::post_wire_attempt(fabric::NodeId dst,
                                std::shared_ptr<const Bytes> buffer,
                                std::size_t fragments,
                                fabric::CompletionFn on_complete,
                                std::size_t retries_left) {
  // A failed completion means the transport knows the frame did not land
  // (lossy-shim drop/truncate detection, a NIC timeout): re-shipping the
  // same bytes is at-least-once, never at-least-twice — successful frames
  // are not retried. Backoff rides schedule_after so a correlated fault
  // burst has passed by the next attempt; the weak token keeps a backoff
  // armed at destruction time from touching a freed runtime.
  ByteSpan view = as_span(*buffer);
  transport_->post_send(
      node_, dst, view, fragments,
      [this, alive = std::weak_ptr<Runtime*>(alive_token_), dst,
       buffer = std::move(buffer), fragments,
       on_complete = std::move(on_complete),
       retries_left](Status status) mutable {
        if (status.is_ok()) {
          if (on_complete) on_complete(status);
          return;
        }
        auto token = alive.lock();
        if (!token) {
          if (on_complete) on_complete(status);
          return;
        }
        if (retries_left == 0) {
          ++stats_.send_retries_exhausted;
          TC_LOG(kWarn, "runtime")
              << "node " << node_ << " send to node " << dst
              << " abandoned after retry budget: " << status.to_string();
          if (on_complete) on_complete(status);
          return;
        }
        ++stats_.send_retries;
        transport_->schedule_after(
            node_, kRetryBackoffNs,
            [this, alive, dst, buffer = std::move(buffer), fragments,
             on_complete = std::move(on_complete), retries_left]() mutable {
              if (alive.expired()) {
                if (on_complete) {
                  on_complete(unavailable("runtime destroyed mid-retry"));
                }
                return;
              }
              post_wire_attempt(dst, std::move(buffer), fragments,
                                std::move(on_complete), retries_left - 1);
            });
      });
}

Status Runtime::send_parts(fabric::NodeId dst, FrameParts parts,
                           fabric::CompletionFn on_complete) {
  if (dst == node_) {
    return invalid_argument("send: destination is the local node");
  }
  // Checked before the decision below, so a refused send marks no peer as
  // holding the code.
  TC_RETURN_IF_ERROR(Frame::check(parts));
  const std::uint64_t key = sent_key(dst, parts.ifunc_id);
  bool peer_has_code = false;
  {
    std::lock_guard lock(sent_code_mu_);
    peer_has_code = !options_.force_full_frames && sent_code_.contains(key);
    if (!peer_has_code) sent_code_.insert(key);
  }
  if (peer_has_code) {
    ++stats_.frames_sent_truncated;
    stats_.code_bytes_saved += parts.code_archive.size() + kMagicSize;
  } else {
    ++stats_.frames_sent_full;
    stats_.code_bytes_sent += parts.code_archive.size();
  }
  const bool root = tracing() && !parts.trace.traced();
  std::uint32_t root_span = 0;
  if (root) {
    // Root of a new request chain: mint a trace id and stamp hop 0.
    // Everything downstream — the arrival, the execute span, any forwards —
    // inherits this context. The frame carries the send span as parent, so
    // the receiving node's spans hang under it.
    parts.trace.trace_id = options_.tracer->next_trace_id();
    parts.trace.hop = 0;
    root_span = options_.tracer->next_span_id();
    parts.trace.parent_span = root_span;
  }
  TC_ASSIGN_OR_RETURN(Bytes wire,
                      Frame::encode(parts, /*include_code=*/!peer_has_code));
  if (root) {
    obs::TraceContext at_send = parts.trace;
    at_send.parent_span = 0;  // the root send has no parent
    record_span(obs::SpanKind::kRootSend, at_send, root_span,
                transport_->now_ns(), 0, parts.ifunc_id,
                static_cast<std::uint32_t>(dst),
                static_cast<std::uint8_t>(parts.repr), 0);
  }
  dispatch_frame_bytes(dst, std::move(wire), std::move(on_complete));
  return Status::ok();
}

Status Runtime::send_frame(fabric::NodeId dst, const Frame& frame,
                           fabric::CompletionFn on_complete) {
  return send_parts(dst, frame.parts(), std::move(on_complete));
}

void Runtime::set_batch_options(BatchOptions batch) {
  // Ship whatever is queued first: a direct send under the new
  // configuration must not overtake frames batched under the old one.
  std::vector<fabric::NodeId> dirty;
  {
    std::lock_guard lock(batches_mu_);
    for (auto& [dst, pending] : batches_) {
      if (!pending.frames.empty()) dirty.push_back(dst);
    }
  }
  for (fabric::NodeId dst : dirty) flush_batch(dst);
  options_.batch = batch;
}

void Runtime::enqueue_batched_frame(fabric::NodeId dst, Bytes frame_bytes,
                                    fabric::CompletionFn on_complete) {
  // The container's part count is a u16 on the wire; an absurd max_frames
  // must flush early rather than overflow the count.
  const std::size_t max_frames =
      std::min<std::size_t>(options_.batch.max_frames, 0xFFFF);
  std::vector<Bytes> full_frames;
  std::vector<fabric::CompletionFn> full_completions;
  bool arm_deadline = false;
  std::uint64_t armed_generation = 0;
  {
    std::lock_guard lock(batches_mu_);
    PendingBatch& batch = batches_[dst];
    if (batch.frames.empty() && options_.metrics != nullptr) {
      batch.first_queued_ns = transport_->now_ns();
    }
    batch.frames.push_back(std::move(frame_bytes));
    batch.completions.push_back(std::move(on_complete));
    if (batch.frames.size() >= max_frames) {
      ++stats_.batch_full_flushes;
      record_batch_flush(batch.first_queued_ns);
      full_frames = std::move(batch.frames);
      full_completions = std::move(batch.completions);
      batch.frames.clear();
      batch.completions.clear();
      ++batch.generation;
      batch.deadline_armed = false;
    } else if (!batch.deadline_armed) {
      batch.deadline_armed = true;
      arm_deadline = true;
      armed_generation = batch.generation;
    }
  }
  if (!full_frames.empty()) {
    ship_batch(dst, std::move(full_frames), std::move(full_completions));
    return;
  }
  if (arm_deadline) {
    // Arm the flush deadline for this batch generation. If the batch fills
    // and ships first, the generation moves on and the event is a no-op.
    // The weak token makes the event safe when it outlives the Runtime —
    // the fabric cannot cancel queued events.
    transport_->schedule_after(
        node_, options_.batch.flush_ns,
        [alive = std::weak_ptr<Runtime*>(alive_token_), dst,
         armed_generation] {
          auto token = alive.lock();
          if (!token) return;
          Runtime& self = **token;
          std::vector<Bytes> frames;
          std::vector<fabric::CompletionFn> completions;
          {
            std::lock_guard lock(self.batches_mu_);
            auto it = self.batches_.find(dst);
            if (it == self.batches_.end() ||
                it->second.generation != armed_generation ||
                it->second.frames.empty()) {
              return;
            }
            ++self.stats_.batch_deadline_flushes;
            self.record_batch_flush(it->second.first_queued_ns);
            frames = std::move(it->second.frames);
            completions = std::move(it->second.completions);
            it->second.frames.clear();
            it->second.completions.clear();
            ++it->second.generation;
            it->second.deadline_armed = false;
          }
          self.ship_batch(dst, std::move(frames), std::move(completions));
        });
  }
}

void Runtime::flush_batch(fabric::NodeId dst) {
  std::vector<Bytes> frames;
  std::vector<fabric::CompletionFn> completions;
  {
    std::lock_guard lock(batches_mu_);
    auto it = batches_.find(dst);
    if (it == batches_.end() || it->second.frames.empty()) return;
    PendingBatch& batch = it->second;
    record_batch_flush(batch.first_queued_ns);
    frames = std::move(batch.frames);
    completions = std::move(batch.completions);
    batch.frames.clear();
    batch.completions.clear();
    ++batch.generation;
    batch.deadline_armed = false;
  }
  ship_batch(dst, std::move(frames), std::move(completions));
}

void Runtime::ship_batch(fabric::NodeId dst, std::vector<Bytes> frames,
                         std::vector<fabric::CompletionFn> completions) {
  if (frames.empty()) return;
  if (frames.size() == 1) {
    // A lone frame ships bare: no container overhead, and the receive path
    // is identical to the unbatched protocol.
    post_wire(dst, std::move(frames.front()), /*fragments=*/1,
              std::move(completions.front()));
    return;
  }
  StatusOr<Bytes> container = encode_batch_frame(frames);
  if (!container.is_ok()) {
    // Unreachable with the enqueue-side u16 cap, but never drop frames on
    // a codec refusal — ship them individually instead.
    for (std::size_t i = 0; i < frames.size(); ++i) {
      post_wire(dst, std::move(frames[i]), /*fragments=*/1,
                std::move(completions[i]));
    }
    return;
  }
  ++stats_.batches_sent;
  stats_.frames_coalesced += frames.size();
  // Retried as one unit: a failed container was not delivered at all (the
  // shim discards mangled frames whole), so re-shipping repeats no part.
  post_wire(dst, std::move(*container), frames.size(),
            [completions = std::move(completions)](Status status) {
              for (const fabric::CompletionFn& fn : completions) {
                if (fn) fn(status);
              }
            });
}

Status Runtime::send_ifunc(fabric::NodeId dst, std::uint64_t ifunc_id,
                           ByteSpan payload,
                           fabric::CompletionFn on_complete) {
  auto it = registry_.find(ifunc_id);
  if (it == registry_.end()) {
    return failed_precondition("send_ifunc: ifunc " +
                               std::to_string(ifunc_id) + " not registered");
  }
  // The same identity create_message builds under.
  const IfuncLibrary& lib = it->second.library;
  return send_parts(dst, library_parts(lib.id(), lib, payload, node_),
                    std::move(on_complete));
}

void Runtime::send_deferred(fabric::NodeId dst, std::uint64_t ifunc_id,
                            std::uint32_t origin_node, ByteSpan payload,
                            const obs::TraceContext& trace, const char* what) {
  Status sent;
  if (auto it = registry_.find(ifunc_id); it == registry_.end()) {
    sent = not_found("ifunc " + std::to_string(ifunc_id) +
                     " is no longer registered");
  } else {
    FrameParts parts =
        library_parts(ifunc_id, it->second.library, payload, origin_node);
    parts.trace = trace;
    sent = send_parts(dst, parts, {});
  }
  if (sent.is_ok()) return;
  ++stats_.forward_send_failures;
  TC_LOG(kWarn, "runtime") << "node " << node_ << " deferred " << what
                           << " to node " << dst
                           << " failed: " << sent.to_string();
}

// --- receive path -------------------------------------------------------------

std::size_t Runtime::poll(std::size_t max_frames) {
  std::size_t processed = 0;
  while (processed < max_frames) {
    auto msg = transport_->try_recv(node_);
    if (!msg.has_value()) break;
    ++processed;
    Status status = process_message(*msg);
    if (!status.is_ok()) {
      ++stats_.protocol_errors;
      TC_LOG(kWarn, "runtime") << "node " << node_
                               << " dropped frame: " << status.to_string();
    }
  }
  return processed;
}

Status Runtime::process_message(const fabric::ReceivedMessage& msg) {
  ByteSpan data = as_span(msg.data);
  if (is_batch_frame(data)) {
    TC_ASSIGN_OR_RETURN(std::vector<ByteSpan> parts,
                        decode_batch_frame(data));
    ++stats_.batches_received;
    for (ByteSpan part : parts) {
      if (options_.batch_unpack_cost_ns > 0) {
        transport_->consume_compute(node_, options_.batch_unpack_cost_ns,
                                    /*scale_cost=*/false);
      }
      ++stats_.frames_received;
      // A bad sub-frame must not poison its batch-mates: each is counted
      // and dropped individually, the rest of the container still lands
      // (the partial-redelivery guarantee the NACK tests rely on).
      Status status = process_frame(part, msg.source);
      if (!status.is_ok()) {
        ++stats_.protocol_errors;
        TC_LOG(kWarn, "runtime")
            << "node " << node_
            << " dropped batched frame: " << status.to_string();
      }
    }
    return Status::ok();
  }
  ++stats_.frames_received;
  return process_frame(data, msg.source);
}

Status Runtime::process_frame(ByteSpan data, fabric::NodeId source) {
  if (is_result_frame(data)) {
    TC_ASSIGN_OR_RETURN(ResultFrame result, decode_result_frame(data));
    ++stats_.results_received;
    if (result.trace.traced() && tracing()) {
      record_span(obs::SpanKind::kResultArrival, result.trace,
                  options_.tracer->next_span_id(), transport_->now_ns(), 0,
                  0, static_cast<std::uint32_t>(source), 0, 0);
    }
    if (result_handler_) result_handler_(result.data, source);
    return Status::ok();
  }
  if (is_nack_frame(data)) {
    TC_ASSIGN_OR_RETURN(std::uint64_t ifunc_id, decode_nack_frame(data));
    ++stats_.nacks_received;
    auto it = registry_.find(ifunc_id);
    if (it == registry_.end()) {
      return not_found("NACK for ifunc " + std::to_string(ifunc_id) +
                       " we never registered");
    }
    // Re-ship the code in a payload-less frame and forget the cached-at-peer
    // assumption so future regular sends stay consistent.
    FrameParts parts = library_parts(ifunc_id, it->second.library, {}, node_);
    parts.code_only = true;
    TC_ASSIGN_OR_RETURN(Bytes frame,
                        Frame::encode(parts, /*include_code=*/true));
    post_wire(source, std::move(frame), /*fragments=*/1, {});
    ++stats_.frames_sent_full;
    stats_.code_bytes_sent += parts.code_archive.size();
    return Status::ok();
  }
  return process_ifunc_frame(data, source);
}

std::int64_t Runtime::charge(std::int64_t configured_ns,
                             std::int64_t measured_ns) {
  // Calibrated constants are already per-platform measurements and charge
  // raw; host-measured durations are retargeted by the node's scale.
  if (configured_ns >= 0) {
    transport_->consume_compute(node_, configured_ns, /*scale_cost=*/false);
    return configured_ns;
  }
  transport_->consume_compute(node_, measured_ns, /*scale_cost=*/true);
  return measured_ns;
}

Status Runtime::process_ifunc_frame(ByteSpan data, fabric::NodeId source) {
  const bool tracing_on = tracing();
  const std::int64_t t_arrive = tracing_on ? transport_->now_ns() : 0;
  TC_ASSIGN_OR_RETURN(const DecodedFrame decoded, Frame::decode(data));
  const FrameHeader& header = decoded.header;
  const bool has_code = decoded.has_code;

  if (header.traced() && tracing_on) {
    record_span(obs::SpanKind::kArrival, header.trace,
                options_.tracer->next_span_id(), t_arrive, 0, header.ifunc_id,
                static_cast<std::uint32_t>(source), header.repr, 0);
    // Decode covers the one header decode and its length/delimiter checks:
    // virtual time does not advance in sim (the span collapses to an
    // instant), wall time on shm.
    const std::int64_t decode_ns = transport_->now_ns() - t_arrive;
    record_span(obs::SpanKind::kDecode, header.trace,
                options_.tracer->next_span_id(), t_arrive, decode_ns,
                header.ifunc_id, static_cast<std::uint32_t>(source),
                header.repr, 0);
    // Cold-path materialization below (compile/link/load) parents under
    // this frame's context.
    active_trace_ = header.trace;
  }

  auto it = registry_.find(header.ifunc_id);
  if (it == registry_.end()) {
    if (!has_code) {
      // Cache-miss recovery: stash the payload and ask the sender to
      // re-ship the code (e.g. we restarted and lost the registry). A
      // batched window can carry several truncated frames for the same
      // missing ifunc; only the first stashed payload raises a NACK — one
      // code resend redelivers the whole window, without duplicates.
      ByteSpan payload = Frame::payload_view(data, header);
      bool first_pending = false;
      {
        std::lock_guard lock(pending_payloads_mu_);
        auto& pending = pending_payloads_[header.ifunc_id];
        first_pending = pending.empty();
        pending.push_back({Bytes(payload.begin(), payload.end()),
                           header.origin_node, header.trace});
      }
      if (first_pending) {
        post_wire(source, encode_nack_frame(header.ifunc_id),
                  /*fragments=*/1, {});
        ++stats_.nacks_sent;
      }
      return Status::ok();
    }
    // First sighting: auto-register from the shipped archive (paper §III-D).
    TC_ASSIGN_OR_RETURN(
        ir::FatBitcode archive,
        ir::FatBitcode::deserialize(Frame::code_view(data, header)));
    char name_buf[32];
    std::snprintf(name_buf, sizeof(name_buf), "ifunc_%016llx",
                  static_cast<unsigned long long>(header.ifunc_id));
    TC_ASSIGN_OR_RETURN(
        IfuncLibrary lib,
        IfuncLibrary::from_archive(name_buf, std::move(archive)));
    // The registry is keyed by the *wire* identity, which is authoritative:
    // the synthetic local name hashes differently, but forwarded frames must
    // carry the original id so caching stays consistent across hops.
    ++stats_.auto_registered;
    auto [reg_it, inserted] = registry_.emplace(
        header.ifunc_id, Registered{std::move(lib), nullptr});
    (void)inserted;
    reg_it->second.generation = ++registration_seq_;
    it = reg_it;
  }

  Registered& reg = it->second;
  if (reg.materialized()) {
    reg.last_used = ++lru_tick_;
    ++stats_.cache_hits;
  } else {
    TC_RETURN_IF_ERROR(materialize(reg));
  }

  // Drain any payloads that were waiting for this code (NACK recovery).
  std::vector<PendingPayload> drained;
  {
    std::lock_guard lock(pending_payloads_mu_);
    if (auto pending = pending_payloads_.find(header.ifunc_id);
        pending != pending_payloads_.end()) {
      drained = std::move(pending->second);
      pending_payloads_.erase(pending);
    }
  }
  for (PendingPayload& stashed : drained) {
    execute_ifunc(reg, header.ifunc_id, std::move(stashed.payload),
                  stashed.origin, stashed.trace);
  }
  if (header.code_only) return Status::ok();

  // Copy the payload: ifuncs mutate it in place (e.g. the chaser refreshes
  // addr/depth before forwarding itself).
  ByteSpan payload = Frame::payload_view(data, header);
  execute_ifunc(reg, header.ifunc_id, Bytes(payload.begin(), payload.end()),
                header.origin_node, header.trace);
  return Status::ok();
}

Status Runtime::compile_registered(Registered& reg) {
#if TC_WITH_LLVM
  // The background promotion worker shares the ORC engine; serialize all
  // engine traffic (creation, add, remove) behind one mutex.
  std::lock_guard<std::mutex> engine_lock(engine_mu_);
  TC_RETURN_IF_ERROR(ensure_engine());
  const IfuncLibrary& lib = reg.library;
  TC_ASSIGN_OR_RETURN(const ir::ArchiveEntry* entry,
                      lib.archive().select(engine_->triple()));
  jit::CompileStats compile_stats;
  const std::int64_t t0 =
      tracing() && active_trace_.traced() ? transport_->now_ns() : 0;
  if (lib.repr() == ir::CodeRepr::kObject) {
    TC_ASSIGN_OR_RETURN(
        reg.entry,
        engine_->add_ifunc_object(lib.name(), as_span(entry->code),
                                  lib.archive().dependencies(),
                                  &compile_stats));
    reg.tier = jit::Tier::kLinked;
    ++stats_.object_links;
    stats_.real_jit_ns_total += compile_stats.compile_ns;
    const std::int64_t charged =
        charge(options_.link_cost_ns, compile_stats.compile_ns);
    if (tracing() && active_trace_.traced()) {
      record_span(obs::SpanKind::kLink, active_trace_,
                  options_.tracer->next_span_id(), t0, charged, lib.id(),
                  static_cast<std::uint32_t>(node_),
                  static_cast<std::uint8_t>(lib.repr()),
                  static_cast<std::uint8_t>(reg.tier));
    }
  } else {
    // kBitcode archives, and the bitcode entries riding in a kPortable
    // archive (tier promotion).
    TC_ASSIGN_OR_RETURN(
        reg.entry,
        engine_->add_ifunc_bitcode(lib.name(), as_span(entry->code),
                                   lib.archive().dependencies(),
                                   &compile_stats));
    reg.tier = jit::Tier::kJit;
    ++stats_.jit_compiles;
    const std::int64_t measured = compile_stats.parse_ns +
                                  compile_stats.optimize_ns +
                                  compile_stats.compile_ns;
    stats_.real_jit_ns_total += measured;
    const std::int64_t charged = charge(options_.jit_cost_ns, measured);
    if (tracing() && active_trace_.traced()) {
      record_span(obs::SpanKind::kCompile, active_trace_,
                  options_.tracer->next_span_id(), t0, charged, lib.id(),
                  static_cast<std::uint32_t>(node_),
                  static_cast<std::uint8_t>(lib.repr()),
                  static_cast<std::uint8_t>(reg.tier));
    }
  }
  reg.engine_lib = lib.name();
  last_compile_stats_ = compile_stats;
  return Status::ok();
#else
  (void)reg;
  return ensure_engine();  // reports the without-LLVM precondition failure
#endif
}

Status Runtime::load_portable(Registered& reg) {
  const IfuncLibrary& lib = reg.library;
  TC_ASSIGN_OR_RETURN(const ir::ArchiveEntry* entry,
                      lib.archive().select_portable());
  const std::int64_t t_virt =
      tracing() && active_trace_.traced() ? transport_->now_ns() : 0;
  const std::int64_t t0 = now_ns();
  TC_ASSIGN_OR_RETURN(reg.program,
                      vm::Program::deserialize(as_span(entry->code)));
  const std::int64_t measured = now_ns() - t0;
  reg.has_program = true;
  reg.tier = jit::Tier::kInterpreted;
  ++stats_.portable_loads;
  // The decode is the entire cold-path cost of this tier — microseconds
  // where the JIT tier pays milliseconds.
  const std::int64_t charged = charge(options_.portable_load_cost_ns, measured);
  if (tracing() && active_trace_.traced()) {
    record_span(obs::SpanKind::kPortableLoad, active_trace_,
                options_.tracer->next_span_id(), t_virt, charged, lib.id(),
                static_cast<std::uint32_t>(node_),
                static_cast<std::uint8_t>(lib.repr()),
                static_cast<std::uint8_t>(reg.tier));
  }
  jit::CompileStats compile_stats;
  compile_stats.code_bytes = entry->code.size();
  compile_stats.parse_ns = measured;
  last_compile_stats_ = compile_stats;
  return Status::ok();
}

Status Runtime::materialize(Registered& reg) {
  TC_RETURN_IF_ERROR(reg.library.repr() == ir::CodeRepr::kPortable
                         ? load_portable(reg)
                         : compile_registered(reg));
  reg.last_used = ++lru_tick_;
  stats_.cache_compile_ns += last_compile_stats_.parse_ns +
                             last_compile_stats_.optimize_ns +
                             last_compile_stats_.compile_ns;
  if (options_.cache_capacity == 0) return Status::ok();
  std::size_t resident = 0;
  Registered* victim = nullptr;
  for (auto& [id, other] : registry_) {
    (void)id;
    if (!other.materialized()) continue;
    ++resident;
    if (&other != &reg &&
        (victim == nullptr || other.last_used < victim->last_used)) {
      victim = &other;
    }
  }
  if (resident > options_.cache_capacity && victim != nullptr) {
    // The archive stays registered, so a later frame re-materializes
    // without a NACK round trip.
    ++stats_.cache_evictions;
    release_tier(*victim);
  }
  return Status::ok();
}

void Runtime::release_tier(Registered& reg) {
#if TC_WITH_LLVM
  if (reg.entry != nullptr && !reg.engine_lib.empty()) {
    std::lock_guard<std::mutex> engine_lock(engine_mu_);
    if (engine_ != nullptr) (void)engine_->remove_library(reg.engine_lib);
  }
#endif
  reg.engine_lib.clear();
  // A promotion compile may still be in flight; the cleared flag makes its
  // result read as stale and get discarded.
  reg.promote_pending = false;
  reg.entry = nullptr;
  reg.has_program = false;
  reg.program = vm::Program();
  reg.promotable = true;
}

void Runtime::maybe_promote(Registered& reg, std::uint64_t ifunc_id) {
  if (reg.tier != jit::Tier::kInterpreted || !reg.promotable ||
      reg.invocations < options_.promote_after) {
    return;
  }
#if TC_WITH_LLVM
  if (reg.promote_pending) return;  // compile already in flight
  // Promotion needs a bitcode entry for this host riding in the portable
  // archive; probe once and remember a miss.
  auto entry = reg.library.archive().select(ir::host_triple());
  if (!entry.is_ok()) {
    reg.promotable = false;
    return;
  }
  // Snapshot everything the compile needs: the registration can be evicted
  // or deregistered while the job is in flight, so the worker never touches
  // `reg`. The engine library name is uniquified so a stale result can be
  // discarded without colliding with a later retry or eviction.
  PromoteJob job;
  job.ifunc_id = ifunc_id;
  job.generation = reg.generation;
  job.kernel = reg.library.name();
  job.engine_name =
      reg.library.name() + "#promo" + std::to_string(++promote_seq_);
  job.bitcode = (*entry)->code;
  job.deps = reg.library.archive().dependencies();
  reg.promote_pending = true;
  {
    std::lock_guard<std::mutex> lock(promote_mu_);
    if (!promote_thread_started_) {
      promote_thread_ = std::thread([this] { promotion_worker(); });
      promote_thread_started_ = true;
    }
    promote_queue_.push_back(std::move(job));
  }
  promote_cv_.notify_all();
#else
  (void)ifunc_id;
  reg.promotable = false;  // no JIT tier to promote to
#endif
}

#if TC_WITH_LLVM
// Background compile thread. Jobs are self-contained snapshots; the only
// shared state the worker touches is the ORC engine (under engine_mu_) and
// the completion mailbox (under promote_mu_). Results are applied on the
// progress context by apply_ready_promotions() — the worker never mutates a
// registration or a stat the progress thread reads without synchronization.
void Runtime::promotion_worker() {
  std::unique_lock<std::mutex> lock(promote_mu_);
  for (;;) {
    promote_cv_.wait(
        lock, [this] { return promote_stop_ || !promote_queue_.empty(); });
    if (promote_stop_) return;
    PromoteJob job = std::move(promote_queue_.front());
    promote_queue_.pop_front();
    ++promote_inflight_;
    lock.unlock();

    if (options_.promote_compile_hook) options_.promote_compile_hook();
    PromoteDone done;
    done.ifunc_id = job.ifunc_id;
    done.generation = job.generation;
    done.kernel = std::move(job.kernel);
    done.engine_name = std::move(job.engine_name);
    const std::int64_t t0 = now_ns();
    {
      std::lock_guard<std::mutex> engine_lock(engine_mu_);
      Status ready = ensure_engine();
      if (!ready.is_ok()) {
        done.status = ready;
      } else {
        auto compiled =
            engine_->add_ifunc_bitcode(done.engine_name, as_span(job.bitcode),
                                       job.deps, &done.compile_stats);
        if (compiled.is_ok()) {
          done.entry = *compiled;
        } else {
          done.status = compiled.status();
        }
      }
    }
    const std::int64_t measured = now_ns() - t0;
    if (options_.metrics != nullptr) {
      // Histogram::record is a relaxed atomic; the registry lookup takes
      // its own mutex. Both are safe off the progress thread.
      options_.metrics->histogram("promote_compile_ns/" + done.kernel)
          .record(measured > 0 ? static_cast<std::uint64_t>(measured) : 0);
    }

    lock.lock();
    promote_done_.push_back(std::move(done));
    promote_ready_.store(true, std::memory_order_release);
    --promote_inflight_;
    promote_cv_.notify_all();
  }
}

// Progress-context half of background promotion: drain the mailbox and swap
// compiled entries into their registrations. Runs at the top of every
// invocation, so the tier flip is atomic with respect to execution — an
// invocation either sees the interpreter or the compiled entry, never a torn
// intermediate.
void Runtime::apply_ready_promotions() {
  std::vector<PromoteDone> ready;
  {
    std::lock_guard<std::mutex> lock(promote_mu_);
    ready.swap(promote_done_);
    promote_ready_.store(false, std::memory_order_relaxed);
  }
  for (PromoteDone& done : ready) {
    auto it = registry_.find(done.ifunc_id);
    Registered* reg = it != registry_.end() ? &it->second : nullptr;
    // The generation check is what catches a dereg/re-register of the same
    // id while the compile was in flight: the new registration can look
    // promotion-ready in every other respect (pending, interpreted, no
    // entry), but this result was compiled from the *old* registration's
    // bitcode and must not be swapped in for the new one.
    const bool stale = reg == nullptr || reg->generation != done.generation;
    if (stale || !reg->promote_pending || reg->entry != nullptr ||
        !reg->has_program || reg->tier != jit::Tier::kInterpreted) {
      // The registration was evicted, deregistered, re-registered, or
      // re-tiered while the compile was in flight. Drop the orphaned
      // library.
      if (done.entry != nullptr) {
        std::lock_guard<std::mutex> engine_lock(engine_mu_);
        if (engine_ != nullptr) (void)engine_->remove_library(done.engine_name);
      }
      // Only the registration this result belongs to may have its pending
      // flag cleared — a successor generation's own compile may still be
      // in flight.
      if (reg != nullptr && !stale) reg->promote_pending = false;
      continue;
    }
    reg->promote_pending = false;
    if (!done.status.is_ok()) {
      ++stats_.promotions_failed;
      TC_LOG(kWarn, "runtime")
          << "node " << node_ << " promotion of '" << done.kernel
          << "' failed: " << done.status.to_string();
      reg->promotable = false;  // logged once; no retry this materialization
      continue;
    }
    reg->entry = done.entry;
    reg->tier = jit::Tier::kJit;
    reg->engine_lib = done.engine_name;
    ++stats_.tier_promotions;
    ++stats_.jit_compiles;
    stats_.real_jit_ns_total += done.compile_stats.parse_ns +
                                done.compile_stats.optimize_ns +
                                done.compile_stats.compile_ns;
    last_compile_stats_ = done.compile_stats;
  }
}
#endif  // TC_WITH_LLVM

void Runtime::wait_for_promotions() {
#if TC_WITH_LLVM
  std::unique_lock<std::mutex> lock(promote_mu_);
  promote_cv_.wait(lock, [this] {
    return promote_queue_.empty() && promote_inflight_ == 0;
  });
#endif
}

void Runtime::execute_ifunc(Registered& reg, std::uint64_t ifunc_id,
                            Bytes payload, fabric::NodeId origin_node,
                            obs::TraceContext trace) {
  // The lookup+exec charge lands before the ifunc's visible effects: the
  // invocation is scheduled behind the charged interval. `reg` is stable:
  // unordered_map never moves nodes, and deregistration is not reachable
  // from inside the event this lambda runs in.
  Registered* regp = &reg;
  const std::int64_t configured = options_.lookup_exec_cost_ns;
  auto invoke = [this, regp, ifunc_id, origin_node, trace,
                 payload = std::move(payload)]() mutable {
#if TC_WITH_LLVM
    // Swap in any finished background promotions before the tier probe, so
    // this invocation (and the hop_service_ns it records) runs on the new
    // tier — the compile itself never stalled the progress thread.
    if (promote_ready_.load(std::memory_order_acquire)) {
      apply_ready_promotions();
    }
#endif
    const bool traced = trace.traced() && tracing();
    ExecContext ctx;
    ctx.runtime = this;
    ctx.node = node_;
    ctx.ifunc_id = ifunc_id;
    ctx.origin_node = origin_node;
    ctx.target_ptr = target_ptr_;
    ctx.shard_base = shard_base_;
    ctx.shard_size = shard_size_;
    ctx.peers = &peers_;
    ctx.self_peer = self_peer_;
    if (traced) {
      ctx.trace = trace;
      // Lazy re-materialization below parents its compile/link spans under
      // this hop (the execute span id is allocated after the tier probe so
      // the drained timeline reads lookup-then-execute).
      active_trace_ = trace;
    }
    const std::int64_t t_start = traced ? transport_->now_ns() : 0;

    if (!regp->materialized()) {
      // A bounded cache can evict this ifunc between frame processing and
      // this scheduled invocation; re-materialize from the retained
      // archive rather than calling through a released tier.
      Status status = materialize(*regp);
      if (!status.is_ok()) {
        ++stats_.protocol_errors;
        TC_LOG(kWarn, "runtime")
            << "node " << node_ << " re-materialization of '"
            << regp->library.name() << "' failed: " << status.to_string();
        return;
      }
    }
    const bool interpreted = regp->entry == nullptr && regp->has_program;
    if (traced) {
      // The tier probe is where the invocation reads which tier of the
      // registration backs it.
      record_span(obs::SpanKind::kTierLookup, trace,
                  options_.tracer->next_span_id(), t_start, 0, ifunc_id,
                  static_cast<std::uint32_t>(origin_node),
                  static_cast<std::uint8_t>(regp->library.repr()),
                  static_cast<std::uint8_t>(regp->tier));
      ctx.span_id = options_.tracer->next_span_id();
    }
    const std::int64_t t0 = now_ns();
    std::uint64_t interp_instrs = 0;
    if (interpreted) {
      vm::HookTable hooks = runtime_vm_hooks(ctx);
      auto result =
          vm::execute(regp->program, hooks, payload.data(), payload.size());
      if (!result.is_ok()) {
        ++stats_.protocol_errors;
        TC_LOG(kWarn, "runtime")
            << "node " << node_ << " interpreter fault in '"
            << regp->library.name() << "': " << result.status().to_string();
        return;
      }
      interp_instrs = result->instrs;
      ++stats_.interp_executions;
      stats_.interp_instrs += interp_instrs;
    } else {
      regp->entry(&ctx, payload.data(), payload.size());
    }
    const std::int64_t measured = now_ns() - t0;
    if (interpreted && options_.interp_op_ns >= 0) {
      // Calibrated interpreter tax: every executed instruction pays it.
      transport_->consume_compute(
          node_,
          options_.interp_op_ns * static_cast<std::int64_t>(interp_instrs),
          /*scale_cost=*/false);
    } else if (options_.lookup_exec_cost_ns < 0) {
      transport_->consume_compute(node_, measured, /*scale_cost=*/true);
    }
    ++stats_.frames_executed;
    ++regp->invocations;
    stats_.forwards += ctx.forwards_issued;
    stats_.injects += ctx.injects_issued;
    stats_.replies_sent += ctx.replies_issued;
    maybe_promote(*regp, ifunc_id);
    // Advance virtual time to the end of the charged work (guard costs,
    // measured execution) so callers observing fabric.now() after idling
    // see the completion time, not the invocation time.
    transport_->sync_to_compute_horizon(node_);
    if (traced) {
      // Service time of this hop: charged virtual ns on sim (the horizon
      // was just synced), wall-clock ns on shm.
      const std::int64_t service_ns = transport_->now_ns() - t_start;
      record_span(obs::SpanKind::kExecute, trace, ctx.span_id, t_start,
                  service_ns, ifunc_id,
                  static_cast<std::uint32_t>(origin_node),
                  static_cast<std::uint8_t>(regp->library.repr()),
                  static_cast<std::uint8_t>(regp->tier));
      active_trace_ = obs::TraceContext{};
    }
    if (options_.metrics != nullptr) {
      const std::int64_t hop_ns =
          traced ? transport_->now_ns() - t_start : measured;
      // Per-tier histogram pointers are cached on the registration — the
      // registry lookup (mutex + name build) is far too heavy per hop.
      obs::Histogram*& hist =
          regp->hop_hist[static_cast<std::size_t>(regp->tier)];
      if (hist == nullptr) {
        hist = &options_.metrics->histogram(
            "hop_service_ns/" + regp->library.name() + "/" +
            ir::code_repr_name(regp->library.repr()) + "/" +
            jit::tier_name(regp->tier));
      }
      hist->record(hop_ns > 0 ? static_cast<std::uint64_t>(hop_ns) : 0);
    }
  };
  transport_->execute_on(node_, configured >= 0 ? configured : 0,
                         std::move(invoke), /*scale_cost=*/false);
}

// --- ExecContext services ---------------------------------------------------------

Status Runtime::ctx_forward(ExecContext& ctx, std::uint64_t peer,
                            ByteSpan payload) {
  if (peers_.empty() || peer >= peers_.size()) {
    return out_of_range("forward: peer index " + std::to_string(peer) +
                        " out of range (peers=" +
                        std::to_string(peers_.size()) + ")");
  }
  auto it = registry_.find(ctx.ifunc_id);
  if (it == registry_.end()) {
    return internal_error("forward: executing ifunc not in registry");
  }
  const IfuncLibrary& lib = it->second.library;
  obs::TraceContext child;
  if (ctx.trace.traced() && tracing()) {
    // The forwarded frame is the next hop of this chain, parented under
    // the send span so the tree reads root → execute → forward → execute.
    const std::uint32_t send_span = options_.tracer->next_span_id();
    child.trace_id = ctx.trace.trace_id;
    child.hop = ctx.trace.hop + 1;
    child.parent_span = send_span;
    obs::TraceContext at_send = child;
    at_send.parent_span = ctx.span_id;
    record_span(obs::SpanKind::kForwardSend, at_send, send_span,
                transport_->now_ns(), 0, ctx.ifunc_id,
                static_cast<std::uint32_t>(peers_[peer]),
                static_cast<std::uint8_t>(lib.repr()), 0);
  }
  ++ctx.forwards_issued;
  // Depart after the compute this invocation has charged so far (e.g. HLL
  // guard costs for the loop iterations that preceded the forward). The
  // send decides full or truncated, and encodes, only then.
  transport_->execute_on(
      node_, 0,
      [this, dst = peers_[peer], id = ctx.ifunc_id, origin = ctx.origin_node,
       child, bytes = Bytes(payload.begin(), payload.end())] {
        send_deferred(dst, id, origin, as_span(bytes), child, "forward");
      },
      /*scale_cost=*/true);
  return Status::ok();
}

Status Runtime::ctx_inject(ExecContext& ctx, std::uint64_t peer,
                           const char* ifunc_name, ByteSpan payload) {
  if (ifunc_name == nullptr) return invalid_argument("inject: null name");
  if (peers_.empty() || peer >= peers_.size()) {
    return out_of_range("inject: peer index out of range");
  }
  TC_ASSIGN_OR_RETURN(std::uint64_t id, ifunc_id_by_name(ifunc_name));
  const IfuncLibrary& lib = registry_.at(id).library;
  obs::TraceContext child;
  if (ctx.trace.traced() && tracing()) {
    // Injected work stays on the parent chain (same trace id, next hop) —
    // it is caused by this invocation even though a different ifunc runs.
    const std::uint32_t send_span = options_.tracer->next_span_id();
    child.trace_id = ctx.trace.trace_id;
    child.hop = ctx.trace.hop + 1;
    child.parent_span = send_span;
    obs::TraceContext at_send = child;
    at_send.parent_span = ctx.span_id;
    record_span(obs::SpanKind::kForwardSend, at_send, send_span,
                transport_->now_ns(), 0, id,
                static_cast<std::uint32_t>(peers_[peer]),
                static_cast<std::uint8_t>(lib.repr()), 0);
  }
  ++ctx.injects_issued;
  // Keep the chain origin: results of injected work route to the request's
  // originator, not to this intermediate node.
  transport_->execute_on(
      node_, 0,
      [this, dst = peers_[peer], id, origin = ctx.origin_node, child,
       bytes = Bytes(payload.begin(), payload.end())] {
        send_deferred(dst, id, origin, as_span(bytes), child, "inject");
      },
      /*scale_cost=*/true);
  return Status::ok();
}

Status Runtime::ctx_reply(ExecContext& ctx, ByteSpan data) {
  obs::TraceContext reply_ctx;
  const obs::TraceContext* reply_ptr = nullptr;
  if (ctx.trace.traced() && tracing()) {
    const std::uint32_t send_span = options_.tracer->next_span_id();
    reply_ctx.trace_id = ctx.trace.trace_id;
    reply_ctx.hop = ctx.trace.hop + 1;
    reply_ctx.parent_span = send_span;
    reply_ptr = &reply_ctx;
    obs::TraceContext at_send = reply_ctx;
    at_send.parent_span = ctx.span_id;
    record_span(obs::SpanKind::kReplySend, at_send, send_span,
                transport_->now_ns(), 0, ctx.ifunc_id,
                static_cast<std::uint32_t>(ctx.origin_node), 0, 0);
  }
  Bytes result = encode_result_frame(node_, data, reply_ptr);
  ++ctx.replies_issued;
  transport_->execute_on(
      node_, 0,
      [this, origin = ctx.origin_node,
       result = std::move(result)]() mutable {
        post_wire(origin, std::move(result), /*fragments=*/1, {});
      },
      /*scale_cost=*/true);
  return Status::ok();
}

Status Runtime::ctx_remote_write(ExecContext& ctx, std::uint64_t peer,
                                 std::uint64_t offset, ByteSpan data) {
  if (peers_.empty() || peer >= peers_.size()) {
    return out_of_range("remote_write: peer index out of range");
  }
  const fabric::NodeId dst = peers_[peer];
  const auto segment = transport_->exposed_segment(dst);
  if (!segment.has_value()) {
    return failed_precondition("remote_write: node " + std::to_string(dst) +
                               " exposes no segment");
  }
  if (offset > segment->length || data.size() > segment->length - offset) {
    return out_of_range("remote_write: exceeds exposed segment");
  }
  (void)ctx;
  const fabric::RemoteAddr addr = segment->remote_addr(dst, offset);
  ++stats_.remote_writes;
  Bytes copy(data.begin(), data.end());
  transport_->execute_on(
      node_, 0,
      [this, addr, copy = std::move(copy)] {
        transport_->post_put(node_, addr, as_span(copy), {});
      },
      /*scale_cost=*/true);
  return Status::ok();
}

void Runtime::ctx_hll_guard(ExecContext& ctx) {
  ++ctx.hll_guard_calls;
  if (options_.hll_guard_cost_ns > 0) {
    transport_->consume_compute(node_, options_.hll_guard_cost_ns,
                                /*scale_cost=*/false);
  }
}

}  // namespace tc::core
