// Ifunc message frames — the contiguous memory block of paper Figs. 2/3:
//
//   [HEADER][PAYLOAD][MAGIC1][CODE (serialized fat archive)][MAGIC2]
//
// Two protocol states share one layout: a *full* frame runs through MAGIC2;
// a *truncated* frame (code already cached at the target) is its prefix
// through MAGIC1 — the paper passes a smaller length to the same UCP PUT.
// Frame::encode writes exactly the bytes one send ships, into one buffer
// sized up front: a truncated encode reads the archive's size and never
// its bytes. A Frame holds the full form, for callers that keep a message
// to send again.
//
// 26-byte header layout (little-endian):
//   u16 frame magic | u8 version | u8 repr | u64 ifunc_id |
//   u32 origin_node | u32 payload_size | u32 code_size | u16 header check
//
// When the repr byte carries kReprTracedFlag, a 16-byte trace extension
// (u64 trace id | u32 hop | u32 parent span) sits between the header and
// the payload. Tracing off ⇒ no flag and no extension.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "core/protocol.hpp"
#include "ir/fat_bitcode.hpp"
#include "obs/trace.hpp"

namespace tc::core {

struct FrameHeader {
  std::uint8_t repr = 0;  ///< ir::CodeRepr on the wire
  bool code_only = false;  ///< carries code but no payload to execute
  std::uint64_t ifunc_id = 0;
  std::uint32_t origin_node = 0;
  std::uint32_t payload_size = 0;
  std::uint32_t code_size = 0;  ///< full-frame code-section size, always set
  /// v3 trace extension; trace.traced() == false means none on the wire.
  obs::TraceContext trace;
  bool traced() const { return trace.traced(); }
  /// Bytes before the payload: header plus the optional trace extension.
  std::size_t prefix_size() const {
    return kHeaderSize + (traced() ? kTraceExtSize : 0);
  }
};

/// The sections one ifunc frame is encoded from. Views only: the archive
/// and payload must outlive the encode.
struct FrameParts {
  std::uint64_t ifunc_id = 0;
  ir::CodeRepr repr = ir::CodeRepr::kBitcode;
  ByteSpan code_archive;
  ByteSpan payload;
  std::uint32_t origin_node = 0;
  bool code_only = false;  ///< ships the archive but no payload to execute
  /// trace.traced() attaches the v3 trace extension; untraced adds nothing.
  obs::TraceContext trace;
};

/// A received frame's header and whether its code section is present.
struct DecodedFrame {
  FrameHeader header;
  bool has_code = false;
};

/// An immutable, reusable ifunc message (paper: "the ifunc message is never
/// modified... the user might want to send it to another process later").
class Frame {
 public:
  /// Checks that `parts` fit a frame: a non-empty code archive, no payload
  /// on a code-only frame, and sections within the wire's u32 sizes.
  static Status check(const FrameParts& parts);

  /// The frame encoder. Writes exactly the bytes one send ships into a
  /// buffer reserved at its final size: the header, the trace extension
  /// when parts.trace is traced, the payload and MAGIC1 and, only when
  /// `include_code`, the code archive and MAGIC2. Fails as check() does.
  static StatusOr<Bytes> encode(const FrameParts& parts, bool include_code);

  /// The full form of encode(), kept as a Frame. A non-null `trace` with
  /// trace.traced() attaches the trace extension; null or an untraced
  /// context adds nothing to the wire.
  static StatusOr<Frame> build(std::uint64_t ifunc_id, ir::CodeRepr repr,
                               ByteSpan code_archive, ByteSpan payload,
                               std::uint32_t origin_node,
                               bool code_only = false,
                               const obs::TraceContext* trace = nullptr);

  /// Rebuilds `frame` with `trace` attached (the frame itself is immutable;
  /// tracing ships a traced copy).
  static StatusOr<Frame> with_trace(const Frame& frame,
                                    const obs::TraceContext& trace);

  const Bytes& bytes() const { return bytes_; }
  const FrameHeader& header() const { return header_; }
  /// The sections this frame was built from, as views into bytes().
  FrameParts parts() const;

  /// Size of a full transmission (through MAGIC2).
  std::size_t full_size() const { return bytes_.size(); }
  /// Size of a truncated transmission (through MAGIC1).
  std::size_t truncated_size() const {
    return header_.prefix_size() + header_.payload_size + kMagicSize;
  }

  ByteSpan full_view() const { return as_span(bytes_); }
  ByteSpan truncated_view() const {
    return ByteSpan(bytes_.data(), truncated_size());
  }

  // --- receive side ---------------------------------------------------------

  /// Decodes and checks the fixed header of an incoming buffer.
  static StatusOr<FrameHeader> peek_header(ByteSpan data);

  /// Decodes a received buffer once: header check, magic delimiters, and
  /// that its length matches either the full or the truncated form.
  static StatusOr<DecodedFrame> decode(ByteSpan data);

  /// decode() reduced to whether the code section is present.
  static StatusOr<bool> validate(ByteSpan data);

  /// Views into a received buffer (header must have been validated).
  static ByteSpan payload_view(ByteSpan data, const FrameHeader& header);
  static ByteSpan code_view(ByteSpan data, const FrameHeader& header);

 private:
  Frame() = default;
  FrameHeader header_;
  Bytes bytes_;
};

// --- result frames -----------------------------------------------------------
// Small two-sided messages used by the X-RDMA ReturnResult operation:
//   u16 result magic | u32 origin_node | u32 data_size | data
// The traced variant (kResultTracedMagic, protocol v3) carries the 16-byte
// trace context between origin_node and the data blob, so the initiator can
// close the trace with a result-arrival span:
//   u16 traced magic | u32 origin_node | u64 trace_id | u32 hop |
//   u32 parent_span | u32 data_size | data
Bytes encode_result_frame(std::uint32_t origin_node, ByteSpan data,
                          const obs::TraceContext* trace = nullptr);

struct ResultFrame {
  std::uint32_t origin_node = 0;
  ByteSpan data;
  obs::TraceContext trace;  ///< trace.traced() == false for plain results
};
StatusOr<ResultFrame> decode_result_frame(ByteSpan bytes);

/// True if `bytes` starts with either result-frame magic.
bool is_result_frame(ByteSpan bytes);

// --- NACK control frames ------------------------------------------------------
// "Resend the code for ifunc X" — emitted when a truncated frame arrives for
// an ifunc the receiver does not have (e.g. after a restart or eviction).
Bytes encode_nack_frame(std::uint64_t ifunc_id);
StatusOr<std::uint64_t> decode_nack_frame(ByteSpan bytes);
bool is_nack_frame(ByteSpan bytes);

// --- batch container frames ---------------------------------------------------
// Several small frames coalesced into one wire message (protocol v2); see
// kBatchMagic for the layout. Parts must themselves be non-batch frames —
// batches never nest — and the receiver processes them in order, so
// sender-side FIFO per destination is preserved. Fails if the part count
// exceeds the wire's u16 (the runtime's coalescing window is capped well
// below that).
StatusOr<Bytes> encode_batch_frame(const std::vector<Bytes>& parts);
/// Views into `bytes` — valid only while the container buffer lives.
StatusOr<std::vector<ByteSpan>> decode_batch_frame(ByteSpan bytes);
bool is_batch_frame(ByteSpan bytes);

}  // namespace tc::core
