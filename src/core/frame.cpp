#include "core/frame.hpp"

#include <limits>

#include "common/hash.hpp"

namespace tc::core {

namespace {

/// 16-bit check over the first 24 header bytes (FNV folded).
std::uint16_t header_check(ByteSpan first24) {
  const std::uint64_t h = fnv1a64(first24);
  return static_cast<std::uint16_t>(h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48));
}

void encode_header(ByteWriter& w, const FrameHeader& h) {
  w.u16(kFrameMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(h.repr |
                                 (h.code_only ? kReprCodeOnlyFlag : 0) |
                                 (h.traced() ? kReprTracedFlag : 0)));
  w.u64(h.ifunc_id);
  w.u32(h.origin_node);
  w.u32(h.payload_size);
  w.u32(h.code_size);
  w.u16(header_check(ByteSpan(w.bytes().data() + w.size() - 24, 24)));
  if (h.traced()) {
    w.u64(h.trace.trace_id);
    w.u32(h.trace.hop);
    w.u32(h.trace.parent_span);
  }
}

}  // namespace

StatusOr<Frame> Frame::build(std::uint64_t ifunc_id, ir::CodeRepr repr,
                             ByteSpan code_archive, ByteSpan payload,
                             std::uint32_t origin_node, bool code_only,
                             const obs::TraceContext* trace) {
  if (code_archive.empty()) {
    return invalid_argument("Frame::build: empty code archive");
  }
  if (code_only && !payload.empty()) {
    return invalid_argument("Frame::build: code-only frame with payload");
  }
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  if (payload.size() > kMax || code_archive.size() > kMax) {
    return invalid_argument("Frame::build: section exceeds u32");
  }

  Frame frame;
  frame.header_.repr = static_cast<std::uint8_t>(repr);
  frame.header_.code_only = code_only;
  frame.header_.ifunc_id = ifunc_id;
  frame.header_.origin_node = origin_node;
  frame.header_.payload_size = static_cast<std::uint32_t>(payload.size());
  frame.header_.code_size = static_cast<std::uint32_t>(code_archive.size());
  if (trace != nullptr && trace->traced()) frame.header_.trace = *trace;

  ByteWriter w;
  encode_header(w, frame.header_);
  w.raw(payload);
  w.u32(kMagicPayloadEnd);
  w.raw(code_archive);
  w.u32(kMagicCodeEnd);
  frame.bytes_ = std::move(w).take();
  return frame;
}

StatusOr<Frame> Frame::with_trace(const Frame& frame,
                                  const obs::TraceContext& trace) {
  const FrameHeader& h = frame.header();
  ByteSpan data = frame.full_view();
  return build(h.ifunc_id, static_cast<ir::CodeRepr>(h.repr),
               code_view(data, h), payload_view(data, h), h.origin_node,
               h.code_only, &trace);
}

Bytes Frame::traced_wire(const Frame& frame, const obs::TraceContext& trace,
                         bool include_code) {
  FrameHeader h = frame.header();
  h.trace = trace;
  const ByteSpan data = frame.full_view();
  ByteWriter w;
  encode_header(w, h);
  w.raw(payload_view(data, frame.header()));
  w.u32(kMagicPayloadEnd);
  if (include_code) {
    w.raw(code_view(data, frame.header()));
    w.u32(kMagicCodeEnd);
  }
  return std::move(w).take();
}

StatusOr<FrameHeader> Frame::peek_header(ByteSpan data) {
  if (data.size() < kHeaderSize) {
    return data_loss("frame shorter than header (" +
                     std::to_string(data.size()) + " bytes)");
  }
  ByteReader r(data);
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  FrameHeader h;
  std::uint16_t check = 0;
  bool traced = false;
  TC_RETURN_IF_ERROR(r.u16(magic));
  TC_RETURN_IF_ERROR(r.u8(version));
  TC_RETURN_IF_ERROR(r.u8(h.repr));
  h.code_only = (h.repr & kReprCodeOnlyFlag) != 0;
  traced = (h.repr & kReprTracedFlag) != 0;
  h.repr &= static_cast<std::uint8_t>(~(kReprCodeOnlyFlag | kReprTracedFlag));
  TC_RETURN_IF_ERROR(r.u64(h.ifunc_id));
  TC_RETURN_IF_ERROR(r.u32(h.origin_node));
  TC_RETURN_IF_ERROR(r.u32(h.payload_size));
  TC_RETURN_IF_ERROR(r.u32(h.code_size));
  TC_RETURN_IF_ERROR(r.u16(check));

  if (magic != kFrameMagic) {
    return data_loss("bad frame magic 0x" +
                     hex(ByteSpan(data.data(), 2)));
  }
  if (version != kProtocolVersion) {
    return data_loss("unsupported protocol version " +
                     std::to_string(version));
  }
  if (check != header_check(data.subspan(0, 24))) {
    return data_loss("header check mismatch");
  }
  if (h.repr > static_cast<std::uint8_t>(ir::CodeRepr::kPortable)) {
    return data_loss("unknown code representation " + std::to_string(h.repr));
  }
  if (traced) {
    if (data.size() < kHeaderSize + kTraceExtSize) {
      return data_loss("frame shorter than its trace extension");
    }
    TC_RETURN_IF_ERROR(r.u64(h.trace.trace_id));
    TC_RETURN_IF_ERROR(r.u32(h.trace.hop));
    TC_RETURN_IF_ERROR(r.u32(h.trace.parent_span));
    if (!h.trace.traced()) {
      return data_loss("traced frame with zero trace id");
    }
  }
  return h;
}

namespace {
Status check_magic(ByteSpan data, std::size_t offset,
                   std::uint32_t expected, const char* which) {
  ByteReader r(data.subspan(offset));
  std::uint32_t value = 0;
  TC_RETURN_IF_ERROR(r.u32(value));
  if (value != expected) {
    return data_loss(std::string("missing ") + which + " delimiter at " +
                     std::to_string(offset));
  }
  return Status::ok();
}
}  // namespace

StatusOr<bool> Frame::validate(ByteSpan data) {
  TC_ASSIGN_OR_RETURN(FrameHeader h, peek_header(data));
  const std::size_t truncated =
      h.prefix_size() + h.payload_size + kMagicSize;
  const std::size_t full = truncated + h.code_size + kMagicSize;
  if (data.size() != truncated && data.size() != full) {
    return data_loss("frame length " + std::to_string(data.size()) +
                     " is neither truncated (" + std::to_string(truncated) +
                     ") nor full (" + std::to_string(full) + ")");
  }
  TC_RETURN_IF_ERROR(check_magic(data, h.prefix_size() + h.payload_size,
                                 kMagicPayloadEnd, "payload-end"));
  const bool has_code = data.size() == full;
  if (has_code) {
    TC_RETURN_IF_ERROR(
        check_magic(data, full - kMagicSize, kMagicCodeEnd, "code-end"));
  }
  return has_code;
}

ByteSpan Frame::payload_view(ByteSpan data, const FrameHeader& header) {
  return data.subspan(header.prefix_size(), header.payload_size);
}

ByteSpan Frame::code_view(ByteSpan data, const FrameHeader& header) {
  return data.subspan(header.prefix_size() + header.payload_size + kMagicSize,
                      header.code_size);
}

Bytes encode_result_frame(std::uint32_t origin_node, ByteSpan data,
                          const obs::TraceContext* trace) {
  ByteWriter w;
  if (trace != nullptr && trace->traced()) {
    w.u16(kResultTracedMagic);
    w.u32(origin_node);
    w.u64(trace->trace_id);
    w.u32(trace->hop);
    w.u32(trace->parent_span);
  } else {
    w.u16(kResultMagic);
    w.u32(origin_node);
  }
  w.blob(data);
  return std::move(w).take();
}

StatusOr<ResultFrame> decode_result_frame(ByteSpan bytes) {
  ByteReader r(bytes);
  std::uint16_t magic = 0;
  ResultFrame out;
  TC_RETURN_IF_ERROR(r.u16(magic));
  if (magic != kResultMagic && magic != kResultTracedMagic) {
    return data_loss("not a result frame");
  }
  TC_RETURN_IF_ERROR(r.u32(out.origin_node));
  if (magic == kResultTracedMagic) {
    TC_RETURN_IF_ERROR(r.u64(out.trace.trace_id));
    TC_RETURN_IF_ERROR(r.u32(out.trace.hop));
    TC_RETURN_IF_ERROR(r.u32(out.trace.parent_span));
    if (!out.trace.traced()) {
      return data_loss("traced result frame with zero trace id");
    }
  }
  TC_RETURN_IF_ERROR(r.blob(out.data));
  if (!r.exhausted()) return data_loss("result frame trailing bytes");
  return out;
}

bool is_result_frame(ByteSpan bytes) {
  if (bytes.size() < 2) return false;
  if (bytes[0] == (kResultMagic & 0xff) && bytes[1] == (kResultMagic >> 8)) {
    return true;
  }
  return bytes[0] == (kResultTracedMagic & 0xff) &&
         bytes[1] == (kResultTracedMagic >> 8);
}

Bytes encode_nack_frame(std::uint64_t ifunc_id) {
  ByteWriter w;
  w.u16(kNackMagic);
  w.u64(ifunc_id);
  return std::move(w).take();
}

StatusOr<std::uint64_t> decode_nack_frame(ByteSpan bytes) {
  ByteReader r(bytes);
  std::uint16_t magic = 0;
  std::uint64_t ifunc_id = 0;
  TC_RETURN_IF_ERROR(r.u16(magic));
  if (magic != kNackMagic) return data_loss("not a NACK frame");
  TC_RETURN_IF_ERROR(r.u64(ifunc_id));
  if (!r.exhausted()) return data_loss("NACK frame trailing bytes");
  return ifunc_id;
}

bool is_nack_frame(ByteSpan bytes) {
  if (bytes.size() < 2) return false;
  return bytes[0] == (kNackMagic & 0xff) && bytes[1] == (kNackMagic >> 8);
}

StatusOr<Bytes> encode_batch_frame(const std::vector<Bytes>& parts) {
  if (parts.size() > 0xFFFF) {
    return invalid_argument("batch of " + std::to_string(parts.size()) +
                            " parts exceeds the u16 wire count");
  }
  ByteWriter w;
  w.u16(kBatchMagic);
  w.u8(kProtocolVersion);
  w.u8(0);  // reserved
  w.u16(static_cast<std::uint16_t>(parts.size()));
  for (const Bytes& part : parts) {
    if (part.size() > std::numeric_limits<std::uint32_t>::max()) {
      return invalid_argument("batch part exceeds the u32 wire length");
    }
    w.u32(static_cast<std::uint32_t>(part.size()));
    w.raw(as_span(part));
  }
  return std::move(w).take();
}

StatusOr<std::vector<ByteSpan>> decode_batch_frame(ByteSpan bytes) {
  ByteReader r(bytes);
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t reserved = 0;
  std::uint16_t count = 0;
  TC_RETURN_IF_ERROR(r.u16(magic));
  if (magic != kBatchMagic) return data_loss("not a batch frame");
  TC_RETURN_IF_ERROR(r.u8(version));
  if (version != kProtocolVersion) {
    return data_loss("unsupported batch protocol version " +
                     std::to_string(version));
  }
  TC_RETURN_IF_ERROR(r.u8(reserved));
  TC_RETURN_IF_ERROR(r.u16(count));
  if (count == 0) return data_loss("empty batch frame");

  std::vector<ByteSpan> parts;
  parts.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    std::uint32_t length = 0;
    TC_RETURN_IF_ERROR(r.u32(length));
    if (length > r.remaining()) {
      return data_loss("batch sub-frame " + std::to_string(i) +
                       " overruns the container");
    }
    ByteSpan part = bytes.subspan(bytes.size() - r.remaining(), length);
    if (is_batch_frame(part)) {
      return data_loss("nested batch frame");
    }
    parts.push_back(part);
    TC_RETURN_IF_ERROR(r.skip(length));
  }
  if (!r.exhausted()) return data_loss("batch frame trailing bytes");
  return parts;
}

bool is_batch_frame(ByteSpan bytes) {
  if (bytes.size() < 2) return false;
  return bytes[0] == (kBatchMagic & 0xff) && bytes[1] == (kBatchMagic >> 8);
}

}  // namespace tc::core
