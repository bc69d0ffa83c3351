// Wire-protocol constants for ifunc message frames (paper Figs. 2 and 3).
#pragma once

#include <cstdint>

namespace tc::core {

/// First two bytes of every ifunc frame.
inline constexpr std::uint16_t kFrameMagic = 0x7C43;  // "C|"
/// First two bytes of a result (X-RDMA ReturnResult) frame.
inline constexpr std::uint16_t kResultMagic = 0x7C52;  // "R|"
/// First two bytes of a NACK control frame: "I got a truncated frame for an
/// ifunc I don't have — resend the code" (cache-miss recovery extension).
/// Followed by the u64 ifunc id.
inline constexpr std::uint16_t kNackMagic = 0x7C4E;  // "N|"
/// First two bytes of a *batch container* frame: several small ifunc /
/// result / NACK frames coalesced into one wire message so back-to-back
/// sends to the same endpoint amortize the per-message injection gap.
/// Layout: u16 magic | u8 version | u8 reserved | u16 count |
///         count × { u32 length | sub-frame bytes }.
/// Batches never nest.
inline constexpr std::uint16_t kBatchMagic = 0x7C42;  // "B|"

/// First two bytes of a *traced* result frame: a ReturnResult carrying the
/// 16-byte trace context back to the initiator.
inline constexpr std::uint16_t kResultTracedMagic = 0x7C54;  // "T|"

/// Bit in the header's repr byte marking a *code-only* frame: carries the
/// archive but no payload to execute (the NACK resend path).
inline constexpr std::uint8_t kReprCodeOnlyFlag = 0x80;
/// Bit in the header's repr byte marking a *traced* frame: a 16-byte trace
/// context (u64 trace id | u32 hop | u32 parent span) follows the fixed
/// header, before the payload. Absent — zero wire bytes — when tracing is
/// off.
inline constexpr std::uint8_t kReprTracedFlag = 0x40;

/// The one wire version every encoder writes and every decoder accepts:
/// ifunc frames with the optional trace extension (kReprTracedFlag), batch
/// containers (kBatchMagic) and traced result frames (kResultTracedMagic).
/// Frames and containers carrying any other version are rejected.
inline constexpr std::uint8_t kProtocolVersion = 3;

/// Size of the optional trace extension following the header.
inline constexpr std::size_t kTraceExtSize = 16;

/// Fixed prefix of a batch container before the length-prefixed sub-frames.
inline constexpr std::size_t kBatchHeaderSize = 6;

/// Delimiter after the payload section — the receiver polls for this to
/// detect that the payload of a (possibly truncated) frame has landed.
inline constexpr std::uint32_t kMagicPayloadEnd = 0x314D4354;  // "TCM1"
/// Delimiter after the code section — full-frame delivery marker.
inline constexpr std::uint32_t kMagicCodeEnd = 0x324D4354;  // "TCM2"

/// Fixed header size in bytes; see FrameHeader for the field layout.
inline constexpr std::size_t kHeaderSize = 26;

inline constexpr std::size_t kMagicSize = 4;

}  // namespace tc::core
