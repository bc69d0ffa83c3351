#include "fabric/faulty_transport.hpp"

#include <cstdio>

#include "common/log.hpp"

namespace tc::fabric {

namespace {

// Shim wire header, prepended to every post_send payload when faults are
// enabled (shim-to-shim only; stripped before the frame reaches try_recv
// callers): u16 magic | u16 reserved | u32 seq | u32 payload length.
constexpr std::uint16_t kShimMagic = 0x7C46;  // "F|"
constexpr std::size_t kShimHeaderSize = 12;

void store16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
void store32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
std::uint16_t load16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t load32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kTruncate: return "truncate";
  }
  return "unknown";
}

std::string format_injection_log(const std::vector<InjectionEvent>& log) {
  std::string out;
  out.reserve(log.size() * 64);
  char line[128];
  for (const InjectionEvent& event : log) {
    std::snprintf(line, sizeof(line),
                  "%-9s src=%u dst=%u seq=%u size=%u at_ns=%lld\n",
                  fault_kind_name(event.kind), event.src, event.dst, event.seq,
                  event.size, static_cast<long long>(event.at_ns));
    out += line;
  }
  return out;
}

FaultyTransport::FaultyTransport(Transport& inner, FaultConfig config,
                                 obs::Tracer* tracer,
                                 obs::MetricsRegistry* metrics)
    : inner_(&inner),
      config_(std::move(config)),
      name_(std::string("faulty+") + inner.name()),
      tracer_(tracer) {
  if (metrics != nullptr) {
    m_drops_ = &metrics->counter("fault.drops");
    m_duplicates_ = &metrics->counter("fault.duplicates");
    m_delays_ = &metrics->counter("fault.delays");
    m_truncates_ = &metrics->counter("fault.truncates");
    m_discards_ = &metrics->counter("fault.rx_discards");
  }
}

FaultyTransport::StatsSnapshot FaultyTransport::stats() const {
  StatsSnapshot s;
  s.frames_intercepted = stats_.frames_intercepted.load();
  s.drops = stats_.drops.load();
  s.duplicates = stats_.duplicates.load();
  s.delays = stats_.delays.load();
  s.truncates = stats_.truncates.load();
  s.dup_discards = stats_.dup_discards.load();
  s.truncate_discards = stats_.truncate_discards.load();
  return s;
}

std::vector<InjectionEvent> FaultyTransport::injection_log() const {
  std::lock_guard lock(log_mu_);
  return log_;
}

FaultyTransport::TxLink& FaultyTransport::tx_link(NodeId src, NodeId dst) {
  const std::uint64_t key = fault_link_key(src, dst);
  std::lock_guard lock(links_mu_);
  auto& slot = tx_links_[key];
  if (slot == nullptr) slot = std::make_unique<TxLink>();
  if (!slot->initialized) {
    // Seed per directed link: the fault schedule of a link depends only on
    // that link's own frame order, which SPSC delivery keeps stable even
    // when cross-link interleaving (shm threads) does not.
    slot->rng = Xoshiro256(config_.seed ^ (key * 0x9e3779b97f4a7c15ull));
    slot->initialized = true;
  }
  return *slot;
}

FaultyTransport::RxLink& FaultyTransport::rx_link(NodeId src, NodeId dst) {
  const std::uint64_t key = fault_link_key(src, dst);
  std::lock_guard lock(links_mu_);
  auto& slot = rx_links_[key];
  if (slot == nullptr) slot = std::make_unique<RxLink>();
  return *slot;
}

bool FaultyTransport::decide_fault(TxLink& link, const FaultRates& rates,
                                   FaultKind* kind) {
  if (link.burst_remaining > 0) {
    --link.burst_remaining;
    *kind = link.burst_kind;
    return true;
  }
  const double total = rates.total();
  if (total <= 0.0) return false;
  // One draw against the cumulative distribution: at most one fault per
  // frame, and a frame consumes exactly one RNG step whatever happens —
  // which keeps per-link schedules stable when rates are tuned.
  constexpr std::uint64_t kScale = 1'000'000'000ull;
  const std::uint64_t draw = link.rng.below(kScale);
  std::uint64_t bound = static_cast<std::uint64_t>(rates.drop * kScale);
  if (draw < bound) {
    *kind = FaultKind::kDrop;
  } else if (draw < (bound += static_cast<std::uint64_t>(rates.duplicate *
                                                         kScale))) {
    *kind = FaultKind::kDuplicate;
  } else if (draw <
             (bound += static_cast<std::uint64_t>(rates.delay * kScale))) {
    *kind = FaultKind::kDelay;
  } else if (draw <
             (bound += static_cast<std::uint64_t>(rates.truncate * kScale))) {
    *kind = FaultKind::kTruncate;
  } else {
    return false;
  }
  if (config_.burst_len > 1) {
    link.burst_remaining = config_.burst_len - 1;
    link.burst_kind = *kind;
  }
  return true;
}

void FaultyTransport::record_injection(NodeId src, NodeId dst,
                                       std::uint32_t seq, FaultKind kind,
                                       std::size_t size) {
  InjectionEvent event;
  event.src = src;
  event.dst = dst;
  event.seq = seq;
  event.kind = kind;
  event.size = static_cast<std::uint32_t>(size);
  event.at_ns = inner_->now_ns();
  {
    std::lock_guard lock(log_mu_);
    log_.push_back(event);
  }
  switch (kind) {
    case FaultKind::kDrop:
      ++stats_.drops;
      if (m_drops_ != nullptr) m_drops_->increment();
      break;
    case FaultKind::kDuplicate:
      ++stats_.duplicates;
      if (m_duplicates_ != nullptr) m_duplicates_->increment();
      break;
    case FaultKind::kDelay:
      ++stats_.delays;
      if (m_delays_ != nullptr) m_delays_->increment();
      break;
    case FaultKind::kTruncate:
      ++stats_.truncates;
      if (m_truncates_ != nullptr) m_truncates_->increment();
      break;
  }
  if (tracer_ != nullptr && tracer_->enabled() &&
      src < tracer_->node_count()) {
    obs::TraceEvent span;
    span.ts_ns = event.at_ns;
    span.trace_id = 0;  // faults are link events, not tied to one chain
    span.ifunc_id = seq;
    span.node = static_cast<std::uint32_t>(src);
    span.peer = static_cast<std::uint32_t>(dst);
    span.span_id = tracer_->next_span_id();
    span.kind = obs::SpanKind::kFaultInject;
    span.repr = static_cast<std::uint8_t>(kind);
    tracer_->ring(static_cast<std::uint32_t>(src)).push(span);
  }
}

Bytes FaultyTransport::shim_frame(std::uint32_t seq, ByteSpan data) const {
  Bytes framed(kShimHeaderSize + data.size());
  store16(framed.data(), kShimMagic);
  store16(framed.data() + 2, 0);
  store32(framed.data() + 4, seq);
  store32(framed.data() + 8, static_cast<std::uint32_t>(data.size()));
  std::copy(data.begin(), data.end(), framed.begin() + kShimHeaderSize);
  return framed;
}

void FaultyTransport::post_send(NodeId src, NodeId dst, Bytes data,
                                std::size_t fragments,
                                CompletionFn on_complete) {
  if (!config_.enabled()) {
    inner_->post_send(src, dst, std::move(data), fragments,
                      std::move(on_complete));
    return;
  }
  ++stats_.frames_intercepted;
  TxLink& link = tx_link(src, dst);
  const std::uint32_t seq = link.next_seq++;
  FaultKind kind;
  const bool faulted = decide_fault(link, config_.rates_for(src, dst), &kind);
  // Truncating a frame to nothing but the shim header is indistinguishable
  // from losing it; treat it as the loss it is.
  if (faulted && kind == FaultKind::kTruncate && data.size() < 2) {
    kind = FaultKind::kDrop;
  }
  Bytes framed = shim_frame(seq, as_span(data));

  if (!faulted) {
    inner_->post_send(src, dst, std::move(framed), fragments,
                      std::move(on_complete));
    return;
  }
  record_injection(src, dst, seq, kind, data.size());

  switch (kind) {
    case FaultKind::kDrop: {
      // The frame vanishes; the sender learns after the modeled detection
      // delay, on its own progress context (like a delivery timeout).
      inner_->schedule_after(
          src, config_.drop_detect_ns,
          [cb = std::move(on_complete)] {
            if (cb) cb(unavailable("fault injection: frame dropped"));
          });
      return;
    }
    case FaultKind::kDuplicate: {
      Bytes copy = framed;
      inner_->post_send(src, dst, std::move(framed), fragments,
                        std::move(on_complete));
      // The duplicate trails the original; the receiving shim discards it
      // by sequence number, so the runtime above sees the frame once.
      inner_->schedule_after(
          src, config_.dup_delay_ns,
          [this, src, dst, fragments, copy = std::move(copy)]() mutable {
            inner_->post_send(src, dst, std::move(copy), fragments, {});
          });
      return;
    }
    case FaultKind::kDelay: {
      // Held back before entering the wire: later sends on this link (and
      // their completions) overtake this frame — the reordering case.
      inner_->schedule_after(
          src, config_.delay_ns,
          [this, src, dst, fragments, framed = std::move(framed),
           cb = std::move(on_complete)]() mutable {
            inner_->post_send(src, dst, std::move(framed), fragments,
                              std::move(cb));
          });
      return;
    }
    case FaultKind::kTruncate: {
      // Ship a prefix (shim header intact, payload cut); the receiving shim
      // sees the length mismatch and discards, and the sender's completion
      // reports the loss. The mangled bytes must never surface upward: a
      // prefix cut exactly at the frame's truncated size would be *valid*
      // and execute — and then be retried, a double execution.
      const std::size_t keep = kShimHeaderSize + data.size() / 2;
      framed.resize(keep);
      inner_->post_send(
          src, dst, std::move(framed), fragments,
          [cb = std::move(on_complete)](Status status) {
            if (!cb) return;
            if (status.is_ok()) {
              cb(unavailable("fault injection: frame truncated in flight"));
            } else {
              cb(status);
            }
          });
      return;
    }
  }
}

std::optional<ReceivedMessage> FaultyTransport::try_recv(NodeId node) {
  if (!config_.enabled()) return inner_->try_recv(node);
  while (true) {
    std::optional<ReceivedMessage> msg = inner_->try_recv(node);
    if (!msg.has_value()) return std::nullopt;
    Bytes& data = msg->data;
    if (data.size() < kShimHeaderSize ||
        load16(data.data()) != kShimMagic) {
      // Not shim-framed (posted straight at the inner transport, e.g. by a
      // test): surface verbatim.
      return msg;
    }
    const std::uint32_t seq = load32(data.data() + 4);
    const std::uint32_t length = load32(data.data() + 8);
    if (data.size() - kShimHeaderSize != length) {
      // Mangled in flight (the truncate fault): drop here, exactly as a
      // CRC-checking NIC would, so no partial frame reaches the runtime.
      ++stats_.truncate_discards;
      if (m_discards_ != nullptr) m_discards_->increment();
      continue;
    }
    RxLink& link = rx_link(msg->source, node);
    if (!link.seen.insert(seq).second) {
      // Duplicate copy; the original already went upward.
      ++stats_.dup_discards;
      if (m_discards_ != nullptr) m_discards_->increment();
      continue;
    }
    data.erase(data.begin(), data.begin() + kShimHeaderSize);
    return msg;
  }
}

}  // namespace tc::fabric
