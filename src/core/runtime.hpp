// Runtime: the per-node Three-Chains instance.
//
// One Runtime binds to one fabric node and provides the paper's workflow
// (§III-A): register an ifunc library, create/send ifunc messages to peers,
// and poll for incoming messages, which are auto-registered, JIT-compiled
// (bitcode) or linked (binary objects), cached, and executed. Executing
// ifuncs may recursively forward themselves, inject other ifuncs, or reply
// to the chain's origin through the ExecContext hooks.
//
// Cost model: real JIT/link/exec work runs for real; the *virtual* time it
// charges to the simulated node is either the measured wall time (default)
// or a calibrated constant from a hardware profile (hetsim/profiles.hpp) —
// this is how the paper's testbed timings are reproduced on one machine.
//
// Tiered execution: frames carrying the portable representation ('TCFP')
// are decoded and *interpreted* immediately on first arrival — no compile
// stall at all — and, when the archive also ships bitcode and LLVM is
// compiled in, promoted to the ORC-JIT tier once their invocation count
// crosses `promote_after`. TC_WITH_LLVM=OFF builds run the interpreter
// tier only.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "core/frame.hpp"
#include "core/ifunc.hpp"
#include "fabric/fabric.hpp"
#include "fabric/transport.hpp"
#include "ir/abi.hpp"
#include "jit/jit_types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vm/bytecode.hpp"

#if TC_WITH_LLVM
#include "jit/engine.hpp"
#endif

namespace tc::core {

struct ExecContext;

/// Sender-side frame coalescing (protocol v2 batch containers). With
/// max_frames > 1, send_frame() queues outgoing ifunc frames per
/// destination and ships them as one batched wire message when either the
/// batch fills or the flush deadline (armed when the first frame of a batch
/// is queued) expires — amortizing the per-message injection gap across the
/// window, at the cost of up to flush_ns added latency for a lone frame.
struct BatchOptions {
  /// Frames coalesced into one wire message; <= 1 disables batching
  /// entirely (the send path is then byte-for-byte the classic protocol).
  std::size_t max_frames = 1;
  /// Flush deadline: how long the first queued frame of a batch may wait
  /// for companions before the batch is shipped regardless.
  std::int64_t flush_ns = 300;
};

struct RuntimeOptions {
  jit::EngineOptions engine;  ///< hook symbols are appended automatically

  // Virtual-time charges. Negative = charge the measured real duration
  // (scaled by the node's compute_scale); non-negative = charge the given
  // constant, which is how hardware profiles pin the paper's numbers.
  std::int64_t jit_cost_ns = -1;          ///< bitcode parse+optimize+compile
  std::int64_t link_cost_ns = -1;         ///< object link (binary repr)
  std::int64_t lookup_exec_cost_ns = -1;  ///< per-invocation lookup+execute
  std::int64_t hll_guard_cost_ns = 0;     ///< per tc_hll_guard call
  /// Per-instruction cost of the interpreter tier (hetsim profiles pin a
  /// calibrated per-platform value; <0 charges the measured wall time).
  /// Every executed bytecode instruction pays this.
  std::int64_t interp_op_ns = -1;
  /// One-time decode+validate of a portable program on first arrival —
  /// the (tiny) cold-path cost that replaces the JIT stall.
  std::int64_t portable_load_cost_ns = -1;

  /// Invocation count at which an interpreted ifunc whose archive also
  /// carries host bitcode is promoted to the JIT tier. The compile runs on
  /// a background thread; the interpreted entry keeps serving until the
  /// compiled entry is swapped in on the progress context. UINT64_MAX pins
  /// the interpreter tier.
  std::uint64_t promote_after = 8;

  /// Test seam: when set, the background promotion worker calls this right
  /// before compiling a job. Blocking inside it holds the promotion in
  /// flight while invocations keep interpreting (the no-compile-on-the-
  /// progress-thread race tests).
  std::function<void()> promote_compile_hook;

  /// Process incoming frames automatically as fabric events (the polling
  /// daemon thread of the paper). Disable for manual-poll unit tests.
  bool auto_poll = true;

  /// Disable sender-side truncation: every frame ships the full code
  /// section. Used by benchmarks to measure the *uncached* rows of the
  /// paper's tables in steady state.
  bool force_full_frames = false;

  /// Bound on materialized tiers (JIT'd, linked or decoded programs) in
  /// the registry; 0 = unbounded. Materializing one more releases the tier
  /// of the least recently used other registration; its archive stays
  /// registered, so a later frame re-materializes it without a NACK.
  std::size_t cache_capacity = 0;

  /// Wire-send retry budget (fault tolerance). 0 — the default — disables
  /// retry entirely: the send path is byte-for-byte the classic protocol
  /// (no buffer copies, failures reported straight to the caller's
  /// completion). > 0 makes every runtime wire send — ifunc frames, batch
  /// containers, NACKs, code resends, result replies — re-ship the same
  /// bytes when its completion reports failure, up to this many retries,
  /// spaced a fixed backoff apart (see runtime.cpp). Retries give
  /// at-least-once delivery; a de-duplicating transport
  /// (fabric::FaultyTransport, or a real reliable NIC) turns that into
  /// exactly-once.
  std::size_t max_send_retries = 0;

  /// Sender-side frame coalescing; defaults to disabled (max_frames = 1),
  /// which preserves the paper's one-frame-per-message wire behaviour
  /// exactly. Also adjustable after creation via set_batch_options().
  BatchOptions batch;

  /// Per-sub-frame decode charge when a batch container is unpacked on
  /// receive (header walk + dispatch); hetsim profiles pin a calibrated
  /// per-platform value. Applies only to batched traffic.
  std::int64_t batch_unpack_cost_ns = 0;

  /// Distributed tracing (obs/trace.hpp). Null — the default — disables
  /// tracing entirely: no trace extension on the wire, no span recording,
  /// and the send/receive paths are byte-for-byte the untraced protocol.
  /// The tracer must outlive the runtime and have a ring for this node.
  obs::Tracer* tracer = nullptr;
  /// Latency histograms (hop service time per kernel × repr × tier, batch
  /// flush latency). Null — the default — records nothing.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Handler for X-RDMA results returning to this node:
/// (result bytes, node that sent the reply).
using ResultHandler = std::function<void(ByteSpan, fabric::NodeId)>;

class Runtime {
 public:
  /// Attaches to a node of any Transport backend (the simulated
  /// fabric::Fabric, shm or socket). The transport must outlive the
  /// runtime.
  static StatusOr<std::unique_ptr<Runtime>> create(
      fabric::Transport& transport, fabric::NodeId node,
      RuntimeOptions options = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  fabric::NodeId node_id() const { return node_; }
  fabric::Transport& transport() { return *transport_; }

  // --- registration ---------------------------------------------------------
  /// Registers an ifunc library for sending and/or local execution.
  StatusOr<std::uint64_t> register_ifunc(IfuncLibrary library);
  bool is_registered(std::uint64_t ifunc_id) const;
  StatusOr<std::uint64_t> ifunc_id_by_name(const std::string& name) const;
  Status deregister_ifunc(std::uint64_t ifunc_id);

  // --- sending ---------------------------------------------------------------
  /// Builds a reusable message frame for a registered ifunc.
  StatusOr<Frame> create_message(std::uint64_t ifunc_id,
                                 ByteSpan payload) const;

  /// Sends a frame, applying the code-caching protocol: the first frame to
  /// a peer travels in full, subsequent ones truncated (paper §III-D). The
  /// wire bytes are re-encoded from the frame's sections (Frame::encode),
  /// so a truncated send writes only the prefix through MAGIC1.
  Status send_frame(fabric::NodeId dst, const Frame& frame,
                    fabric::CompletionFn on_complete = {});

  /// Sends create_message(ifunc_id, payload) without building the full
  /// frame: only the bytes that ship are encoded.
  Status send_ifunc(fabric::NodeId dst, std::uint64_t ifunc_id,
                    ByteSpan payload, fabric::CompletionFn on_complete = {});

  /// Reconfigures sender-side coalescing (see BatchOptions). Frames
  /// already queued are flushed first, so per-destination FIFO order is
  /// preserved across the reconfiguration.
  void set_batch_options(BatchOptions batch);
  const BatchOptions& batch_options() const { return options_.batch; }

  // --- target-side configuration ----------------------------------------------
  void set_target_ptr(void* target) { target_ptr_ = target; }
  void set_shard(std::uint64_t* base, std::uint64_t size) {
    shard_base_ = base;
    shard_size_ = size;
  }
  /// Declares the peer table used by ifunc forward()/inject(); this node's
  /// own index is derived from the list (~0 if absent).
  void set_peers(std::vector<fabric::NodeId> peers);

  /// Exposes [base, base+length) for one-sided access by remote ifuncs
  /// (tc_ctx_remote_write). The registration is published to the fabric's
  /// segment directory — modeling the out-of-band rkey exchange real RDMA
  /// deployments perform at setup time.
  Status expose_segment(void* base, std::size_t length);
  void set_result_handler(ResultHandler handler) {
    result_handler_ = std::move(handler);
  }

  // --- progress ---------------------------------------------------------------
  /// Processes up to `max_frames` received messages. With auto_poll this is
  /// driven by delivery events; call manually when auto_poll is off.
  std::size_t poll(std::size_t max_frames = SIZE_MAX);

  // --- ExecContext services (called from the extern "C" hooks) ---------------
  Status ctx_forward(ExecContext& ctx, std::uint64_t peer, ByteSpan payload);
  Status ctx_inject(ExecContext& ctx, std::uint64_t peer,
                    const char* ifunc_name, ByteSpan payload);
  Status ctx_reply(ExecContext& ctx, ByteSpan data);
  Status ctx_remote_write(ExecContext& ctx, std::uint64_t peer,
                          std::uint64_t offset, ByteSpan data);
  void ctx_hll_guard(ExecContext& ctx);

  // --- introspection -----------------------------------------------------------
  /// Counters are atomic: on the shm backend they are bumped from server
  /// progress threads while collective/bench drivers aggregate them from
  /// initiator threads, so plain words would race (TSan-visibly).
  struct Stats {
    std::atomic<std::uint64_t> frames_sent_full{0};
    std::atomic<std::uint64_t> frames_sent_truncated{0};
    std::atomic<std::uint64_t> code_bytes_sent{0};
    std::atomic<std::uint64_t> code_bytes_saved{0};  ///< by truncation
    std::atomic<std::uint64_t> frames_received{0};
    std::atomic<std::uint64_t> frames_executed{0};
    std::atomic<std::uint64_t> auto_registered{0};
    std::atomic<std::uint64_t> jit_compiles{0};
    std::atomic<std::uint64_t> object_links{0};
    std::atomic<std::uint64_t> forwards{0};
    std::atomic<std::uint64_t> injects{0};
    std::atomic<std::uint64_t> replies_sent{0};
    std::atomic<std::uint64_t> results_received{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> remote_writes{0};
    std::atomic<std::uint64_t> nacks_sent{0};
    std::atomic<std::uint64_t> nacks_received{0};
    std::atomic<std::uint64_t> batches_sent{0};  ///< coalesced messages out
    std::atomic<std::uint64_t> frames_coalesced{0};  ///< frames inside them
    std::atomic<std::uint64_t> batch_full_flushes{0};  ///< hit max_frames
    std::atomic<std::uint64_t> batch_deadline_flushes{0};  ///< flush_ns hit
    std::atomic<std::uint64_t> batches_received{0};  ///< containers unpacked
    std::atomic<std::uint64_t> cache_evictions{0};
    /// Frames that found their ifunc's tier already materialized.
    std::atomic<std::uint64_t> cache_hits{0};
    /// Parse+optimize+compile, link or portable-decode time of every
    /// materialization (the work cache hits skip).
    std::atomic<std::int64_t> cache_compile_ns{0};
    std::atomic<std::uint64_t> portable_loads{0};  ///< programs decoded
    std::atomic<std::uint64_t> interp_executions{0};  ///< interpreted runs
    /// Bytecode instructions the interpreter executed.
    std::atomic<std::uint64_t> interp_instrs{0};
    std::atomic<std::uint64_t> tier_promotions{0};  ///< interp -> JIT
    /// Background promotion compiles that failed (logged once per kernel;
    /// the ifunc keeps interpreting).
    std::atomic<std::uint64_t> promotions_failed{0};
    /// Deferred ctx_forward and ctx_inject sends that failed after the
    /// ifunc returned (the send was already charged; the frame never left
    /// the node).
    std::atomic<std::uint64_t> forward_send_failures{0};
    /// Wire sends re-shipped after a failed completion (max_send_retries).
    std::atomic<std::uint64_t> send_retries{0};
    /// Sends abandoned with the retry budget spent — the failure the
    /// chaos harness asserts never happens under its configured rates.
    std::atomic<std::uint64_t> send_retries_exhausted{0};
    std::atomic<std::int64_t> real_jit_ns_total{0};  ///< measured, not virtual
  };
  const Stats& stats() const { return stats_; }
  /// Payloads stashed awaiting a NACK code resend — nonzero after a run
  /// quiesces means a recovery round-trip was lost (watchdog dumps this).
  std::size_t pending_payload_count() const {
    std::lock_guard lock(pending_payloads_mu_);
    std::size_t total = 0;
    for (const auto& [id, backlog] : pending_payloads_) {
      (void)id;
      total += backlog.size();
    }
    return total;
  }

  /// Last measured compile stats (for the overhead-breakdown benches).
  const jit::CompileStats& last_compile_stats() const {
    return last_compile_stats_;
  }

  /// Blocks until every queued background promotion compile has finished.
  /// The tier swap itself is applied by the next invocation on the node's
  /// progress context, never from here (transport threading contract).
  /// Test/deterministic-bench seam; no-op without LLVM.
  void wait_for_promotions();

 private:
  struct Registered {
    IfuncLibrary library;
    abi::EntryFn entry = nullptr;  ///< compiled lazily on first execution
    /// Decoded portable program (interpreter tier), when the archive ships
    /// the portable representation.
    vm::Program program;
    bool has_program = false;
    jit::Tier tier = jit::Tier::kJit;
    std::uint64_t invocations = 0;
    /// Cleared when promotion is impossible (no host bitcode entry), so
    /// the archive is probed once, not per invocation.
    bool promotable = true;
    /// A background promotion compile is queued or in flight; cleared when
    /// its result is applied or discarded on the progress context.
    bool promote_pending = false;
    /// Name the engine knows this ifunc's current library under (promotion
    /// jobs use uniquified names so a stale in-flight compile can never
    /// collide with a re-promotion after eviction).
    std::string engine_lib;
    /// Identity of this *registration*, not just the ifunc id: assigned
    /// fresh every time the id enters the registry. A promotion result is
    /// applied only if the generation it was compiled for is still the one
    /// registered — a dereg/re-register of the same id with different
    /// bitcode while a compile is in flight must not get the stale entry
    /// swapped in, and id+flags alone cannot tell the two apart.
    std::uint64_t generation = 0;
    /// Runtime::lru_tick_ when the tier was last materialized or found
    /// materialized by an arriving frame; a bounded cache releases the
    /// oldest first.
    std::uint64_t last_used = 0;
    /// Lazily resolved "hop_service_ns/<kernel>/<repr>/<tier>" histograms,
    /// indexed by jit::Tier — the registry lookup takes a mutex and builds
    /// a name string, far too heavy for the per-hop record path.
    std::array<obs::Histogram*, 3> hop_hist{};

    bool materialized() const { return entry != nullptr || has_program; }
  };

  Runtime(fabric::Transport& transport, fabric::NodeId node,
          RuntimeOptions options);
  void attach_notifier();

  Status ensure_engine();
  StatusOr<Registered*> find_registered(std::uint64_t ifunc_id);
  Status compile_registered(Registered& reg);
  Status load_portable(Registered& reg);
  /// Materializes whatever tier the library's representation calls for
  /// (portable -> interpreter, bitcode/object -> engine) and stamps it most
  /// recently used. With cache_capacity > 0, one tier over the bound
  /// releases the least recently used other registration's. Also the
  /// recovery path when an invocation finds its tier released.
  Status materialize(Registered& reg);
  /// Drops a registration's engine library, program and entry, and clears
  /// promote_pending so an in-flight promotion result is discarded. The
  /// one release path: eviction and deregistration both come here.
  void release_tier(Registered& reg);
  void maybe_promote(Registered& reg, std::uint64_t ifunc_id);
#if TC_WITH_LLVM
  /// Background compile worker: drains promote_queue_, compiles under
  /// engine_mu_, and posts results to the promote_done_ mailbox. Never
  /// touches the transport or the registry.
  void promotion_worker();
  /// Applies (or discards) finished background compiles. Progress-context
  /// only — called at the top of each scheduled invocation, which is the
  /// only place a promoted tier may be written into the registry.
  void apply_ready_promotions();
#endif
  Status process_message(const fabric::ReceivedMessage& msg);
  /// One logical (non-batch) frame: result / NACK / ifunc dispatch.
  Status process_frame(ByteSpan data, fabric::NodeId source);
  Status process_ifunc_frame(ByteSpan data, fabric::NodeId source);
  /// The one ifunc send path (paper §III-D). Decides full or truncated for
  /// (dst, ifunc) — the sent-code check-and-insert and the frames_sent_* /
  /// code_bytes_* counters — and mints a root trace when tracing is on and
  /// `parts` carries none. Only then does it encode, so a warm send never
  /// copies the code archive.
  Status send_parts(fabric::NodeId dst, FrameParts parts,
                    fabric::CompletionFn on_complete);
  /// Runs on the progress context after a ctx_forward/ctx_inject returned:
  /// looks the ifunc up by id and sends it through send_parts, counting a
  /// failure in Stats::forward_send_failures. `what` names the hook in the
  /// warning.
  void send_deferred(fabric::NodeId dst, std::uint64_t ifunc_id,
                     std::uint32_t origin_node, ByteSpan payload,
                     const obs::TraceContext& trace, const char* what);
  /// Hands an encoded frame to the batcher or straight to the transport;
  /// either way the buffer moves on, uncopied.
  void dispatch_frame_bytes(fabric::NodeId dst, Bytes bytes,
                            fabric::CompletionFn on_complete);
  /// The single wire-send chokepoint every runtime send funnels through.
  /// With max_send_retries == 0 this is exactly transport().post_send,
  /// which takes the buffer; otherwise the bytes are kept in one shared
  /// buffer and each attempt (failed completions re-ship with backoff)
  /// posts a copy.
  void post_wire(fabric::NodeId dst, Bytes bytes, std::size_t fragments,
                 fabric::CompletionFn on_complete);
  void post_wire_attempt(fabric::NodeId dst,
                         std::shared_ptr<const Bytes> buffer,
                         std::size_t fragments,
                         fabric::CompletionFn on_complete,
                         std::size_t retries_left);
  /// Queues an encoded frame for coalescing toward `dst` (batching on).
  void enqueue_batched_frame(fabric::NodeId dst, Bytes frame_bytes,
                             fabric::CompletionFn on_complete);
  /// Ships everything queued for `dst` as one wire message.
  void flush_batch(fabric::NodeId dst);
  /// Ships one extracted batch (already detached from batches_).
  void ship_batch(fabric::NodeId dst, std::vector<Bytes> frames,
                  std::vector<fabric::CompletionFn> completions);
  void execute_ifunc(Registered& reg, std::uint64_t ifunc_id, Bytes payload,
                     fabric::NodeId origin_node,
                     obs::TraceContext trace = {});
  std::int64_t charge(std::int64_t configured_ns, std::int64_t measured_ns);

  // --- tracing (no-ops when options_.tracer is null or disabled) -------------
  bool tracing() const {
    return options_.tracer != nullptr && options_.tracer->enabled();
  }
  /// Stamps node + ids and pushes into this node's ring.
  void record_span(obs::SpanKind kind, const obs::TraceContext& trace,
                   std::uint32_t span_id, std::int64_t ts_ns,
                   std::int64_t dur_ns, std::uint64_t ifunc_id,
                   std::uint32_t peer, std::uint8_t repr, std::uint8_t tier);
  /// Records into "batch_wait_ns" how long a batch's first frame waited
  /// for its flush (no-op without a metrics registry).
  void record_batch_flush(std::int64_t first_queued_ns);

  fabric::Transport* transport_;
  fabric::NodeId node_;
  RuntimeOptions options_;

#if TC_WITH_LLVM
  std::unique_ptr<jit::OrcEngine> engine_;
  /// Serializes OrcEngine access between the progress context's synchronous
  /// compile paths and the background promotion worker (the engine's
  /// library bookkeeping is not itself thread-safe).
  std::mutex engine_mu_;

  /// One queued background promotion. Everything the compile needs is
  /// snapshotted at enqueue time, so a deregistration or eviction racing
  /// the worker can never dangle a reference into the registry.
  struct PromoteJob {
    std::uint64_t ifunc_id = 0;
    std::uint64_t generation = 0;  ///< Registered::generation at enqueue
    std::string kernel;       ///< library name (logs, metrics)
    std::string engine_name;  ///< uniquified engine library name
    Bytes bitcode;
    std::vector<std::string> deps;
  };
  /// A finished background compile, waiting in the mailbox for the
  /// progress context to swap the tier (or discard it). Carries the
  /// generation the bitcode was snapshotted from; apply_ready_promotions
  /// discards it if the id has since been re-registered.
  struct PromoteDone {
    std::uint64_t ifunc_id = 0;
    std::uint64_t generation = 0;
    std::string kernel;
    std::string engine_name;
    abi::EntryFn entry = nullptr;
    Status status;
    jit::CompileStats compile_stats;
  };
  std::mutex promote_mu_;
  std::condition_variable promote_cv_;
  std::deque<PromoteJob> promote_queue_;
  std::vector<PromoteDone> promote_done_;
  std::size_t promote_inflight_ = 0;
  bool promote_stop_ = false;
  bool promote_thread_started_ = false;
  std::thread promote_thread_;
  /// Cheap has-mail flag so the hot invoke path pays one relaxed load, not
  /// a mutex, when no promotion is pending (the common case).
  std::atomic<bool> promote_ready_{false};
  /// Uniquifies promotion engine-library names; progress-context only.
  std::uint64_t promote_seq_ = 0;
#endif
  jit::CompileStats last_compile_stats_;

  /// What this node has registered and materialized, keyed by wire ifunc
  /// id: the target-side code cache of the paper (§III-D).
  std::unordered_map<std::uint64_t, Registered> registry_;
  std::unordered_map<std::string, std::uint64_t> names_;
  /// Source of Registered::generation values; bumped at every insertion
  /// (explicit registration and auto-registration alike). Progress-context
  /// only, like the registry itself.
  std::uint64_t registration_seq_ = 0;
  /// Source of Registered::last_used stamps. Progress-context only.
  std::uint64_t lru_tick_ = 0;
  /// Payloads of truncated frames waiting for code (NACK recovery).
  /// Mutex-guarded: the receive path fills and drains it on the progress
  /// context while a watchdog's state dump counts it from the driver
  /// thread (pending_payload_count).
  struct PendingPayload {
    Bytes payload;
    fabric::NodeId origin = 0;
    obs::TraceContext trace;  ///< carried across the NACK round trip
  };
  mutable std::mutex pending_payloads_mu_;
  std::unordered_map<std::uint64_t, std::vector<PendingPayload>>
      pending_payloads_;
  /// Trace context of the frame currently in the receive/execute path, so
  /// cold-path compile/link/load spans parent correctly. Touched only from
  /// this node's single progress context (the same invariant the batching
  /// deadline events rely on).
  obs::TraceContext active_trace_;
  /// sent_key(peer, ifunc id) of every (peer, ifunc) that already received
  /// code. Written by the send path only.
  std::mutex sent_code_mu_;
  std::unordered_set<std::uint64_t> sent_code_;
  /// Keeps armed flush-deadline events from touching a destroyed Runtime:
  /// they capture a weak_ptr to this token and no-op once it expires. The
  /// fabric has no event cancellation, so a stale (generation-bumped)
  /// deadline can outlive the Runtime inside the event queue.
  std::shared_ptr<Runtime*> alive_token_;
  /// Outgoing frames awaiting coalescing, per destination (batching on).
  struct PendingBatch {
    std::vector<Bytes> frames;
    std::vector<fabric::CompletionFn> completions;
    /// When the oldest queued frame entered the batch (metrics: flush
    /// latency histogram).
    std::int64_t first_queued_ns = 0;
    /// Incremented on every flush; an armed deadline event only fires a
    /// flush if the generation it captured is still current (i.e. the
    /// batch it was armed for has not already shipped full).
    std::uint64_t generation = 0;
    bool deadline_armed = false;
  };
  /// Batches are extracted under batches_mu_ and shipped outside it (send
  /// paths may re-enter the coalescer, and completions may too).
  std::mutex batches_mu_;
  std::unordered_map<fabric::NodeId, PendingBatch> batches_;

  void* target_ptr_ = nullptr;
  std::uint64_t* shard_base_ = nullptr;
  std::uint64_t shard_size_ = 0;
  std::vector<fabric::NodeId> peers_;
  std::uint64_t self_peer_ = ~0ull;
  ResultHandler result_handler_;

  Stats stats_;
};

}  // namespace tc::core
