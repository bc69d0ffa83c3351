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

FrameHeader header_for(const FrameParts& parts) {
  FrameHeader h;
  h.repr = static_cast<std::uint8_t>(parts.repr);
  h.code_only = parts.code_only;
  h.ifunc_id = parts.ifunc_id;
  h.origin_node = parts.origin_node;
  h.payload_size = static_cast<std::uint32_t>(parts.payload.size());
  h.code_size = static_cast<std::uint32_t>(parts.code_archive.size());
  if (parts.trace.traced()) h.trace = parts.trace;
  return h;
}

}  // namespace

Status Frame::check(const FrameParts& parts) {
  if (parts.code_archive.empty()) {
    return invalid_argument("frame: empty code archive");
  }
  if (parts.code_only && !parts.payload.empty()) {
    return invalid_argument("frame: code-only frame with payload");
  }
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  if (parts.payload.size() > kMax || parts.code_archive.size() > kMax) {
    return invalid_argument("frame: section exceeds u32");
  }
  return Status::ok();
}

StatusOr<Bytes> Frame::encode(const FrameParts& parts, bool include_code) {
  TC_RETURN_IF_ERROR(check(parts));
  const FrameHeader h = header_for(parts);
  std::size_t size = h.prefix_size() + parts.payload.size() + kMagicSize;
  if (include_code) size += parts.code_archive.size() + kMagicSize;
  ByteWriter w;
  w.reserve(size);
  encode_header(w, h);
  w.raw(parts.payload);
  w.u32(kMagicPayloadEnd);
  if (include_code) {
    w.raw(parts.code_archive);
    w.u32(kMagicCodeEnd);
  }
  return std::move(w).take();
}

StatusOr<Frame> Frame::build(std::uint64_t ifunc_id, ir::CodeRepr repr,
                             ByteSpan code_archive, ByteSpan payload,
                             std::uint32_t origin_node, bool code_only,
                             const obs::TraceContext* trace) {
  FrameParts parts;
  parts.ifunc_id = ifunc_id;
  parts.repr = repr;
  parts.code_archive = code_archive;
  parts.payload = payload;
  parts.origin_node = origin_node;
  parts.code_only = code_only;
  if (trace != nullptr) parts.trace = *trace;
  Frame frame;
  TC_ASSIGN_OR_RETURN(frame.bytes_, encode(parts, /*include_code=*/true));
  frame.header_ = header_for(parts);
  return frame;
}

StatusOr<Frame> Frame::with_trace(const Frame& frame,
                                  const obs::TraceContext& trace) {
  const FrameParts parts = frame.parts();
  return build(parts.ifunc_id, parts.repr, parts.code_archive, parts.payload,
               parts.origin_node, parts.code_only, &trace);
}

FrameParts Frame::parts() const {
  FrameParts parts;
  parts.ifunc_id = header_.ifunc_id;
  parts.repr = static_cast<ir::CodeRepr>(header_.repr);
  parts.code_archive = code_view(full_view(), header_);
  parts.payload = payload_view(full_view(), header_);
  parts.origin_node = header_.origin_node;
  parts.code_only = header_.code_only;
  parts.trace = header_.trace;
  return parts;
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

StatusOr<DecodedFrame> Frame::decode(ByteSpan data) {
  DecodedFrame frame;
  TC_ASSIGN_OR_RETURN(frame.header, peek_header(data));
  const FrameHeader& h = frame.header;
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
  frame.has_code = data.size() == full;
  if (frame.has_code) {
    TC_RETURN_IF_ERROR(
        check_magic(data, full - kMagicSize, kMagicCodeEnd, "code-end"));
  }
  return frame;
}

StatusOr<bool> Frame::validate(ByteSpan data) {
  TC_ASSIGN_OR_RETURN(DecodedFrame frame, decode(data));
  return frame.has_code;
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
  const bool traced = trace != nullptr && trace->traced();
  // u16 magic | u32 origin | [trace extension] | u32 size | data
  ByteWriter w;
  w.reserve(2 + 4 + (traced ? kTraceExtSize : 0) + 4 + data.size());
  if (traced) {
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
