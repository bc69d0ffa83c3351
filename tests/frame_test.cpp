// Tests for the ifunc message-frame codec (paper Figs. 2/3): layout, the
// truncated/full dual view, the encoder's byte-identity with it, delimiter
// discovery, corruption detection, and result frames.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/frame.hpp"
#include "core/ifunc.hpp"
#include "core/protocol.hpp"
#include "ir/kernels.hpp"

namespace tc::core {
namespace {

Bytes make_code(std::size_t n, std::uint64_t seed = 1) {
  Xoshiro256 rng(seed);
  Bytes code(n);
  for (auto& b : code) b = static_cast<std::uint8_t>(rng());
  return code;
}

TEST(Frame, LayoutMatchesSpec) {
  const Bytes code = make_code(100);
  const Bytes payload = {0xAA};
  auto frame = Frame::build(0x1234, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 7);
  ASSERT_TRUE(frame.is_ok());

  // header + payload + magic + code + magic
  EXPECT_EQ(frame->full_size(), kHeaderSize + 1 + 4 + 100 + 4);
  EXPECT_EQ(frame->truncated_size(), kHeaderSize + 1 + 4);
  EXPECT_EQ(frame->header().ifunc_id, 0x1234u);
  EXPECT_EQ(frame->header().origin_node, 7u);
  EXPECT_EQ(frame->header().payload_size, 1u);
  EXPECT_EQ(frame->header().code_size, 100u);

  // The truncated view is a strict prefix of the full frame — the paper's
  // "pass a smaller size to the same PUT" trick.
  ByteSpan full = frame->full_view();
  ByteSpan truncated = frame->truncated_view();
  EXPECT_TRUE(std::equal(truncated.begin(), truncated.end(), full.begin()));
}

TEST(Frame, CachedFrameIsTiny) {
  // Paper §V-A: cached TSI message is 26 B vs 5185 B uncached. Our header is
  // itself 26 B; with a 1-byte payload and one delimiter the truncated frame
  // stays around the same tens-of-bytes scale while the full frame carries
  // the entire ~5 KiB archive.
  const Bytes code = make_code(5159);
  const Bytes payload = {1};
  auto frame = Frame::build(1, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 0);
  ASSERT_TRUE(frame.is_ok());
  EXPECT_EQ(frame->truncated_size(), 31u);
  EXPECT_EQ(frame->full_size(), 31u + 5159 + 4);
}

TEST(Frame, HeaderRoundTrip) {
  const Bytes code = make_code(64);
  auto frame = Frame::build(0xDEADBEEFCAFEull, ir::CodeRepr::kObject,
                            as_span(code), {}, 42);
  ASSERT_TRUE(frame.is_ok());
  auto header = Frame::peek_header(frame->full_view());
  ASSERT_TRUE(header.is_ok());
  EXPECT_EQ(header->ifunc_id, 0xDEADBEEFCAFEull);
  EXPECT_EQ(header->repr, static_cast<std::uint8_t>(ir::CodeRepr::kObject));
  EXPECT_EQ(header->origin_node, 42u);
  EXPECT_EQ(header->payload_size, 0u);
  EXPECT_EQ(header->code_size, 64u);
}

TEST(Frame, EmptyCodeRejected) {
  EXPECT_EQ(Frame::build(1, ir::CodeRepr::kBitcode, {}, {}, 0)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(Frame, ValidateFullAndTruncated) {
  const Bytes code = make_code(200);
  const Bytes payload = make_code(33, 2);
  auto frame = Frame::build(9, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 3);
  ASSERT_TRUE(frame.is_ok());

  auto full = Frame::validate(frame->full_view());
  ASSERT_TRUE(full.is_ok());
  EXPECT_TRUE(*full);  // code present

  auto truncated = Frame::validate(frame->truncated_view());
  ASSERT_TRUE(truncated.is_ok());
  EXPECT_FALSE(*truncated);
}

TEST(Frame, ViewsRecoverSections) {
  const Bytes code = make_code(128, 3);
  const Bytes payload = make_code(56, 4);
  auto frame = Frame::build(11, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 0);
  ASSERT_TRUE(frame.is_ok());

  ByteSpan data = frame->full_view();
  auto header = Frame::peek_header(data);
  ASSERT_TRUE(header.is_ok());
  ByteSpan p = Frame::payload_view(data, *header);
  ByteSpan c = Frame::code_view(data, *header);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), p.begin(), p.end()));
  EXPECT_TRUE(std::equal(code.begin(), code.end(), c.begin(), c.end()));
}

TEST(Frame, ShortBufferRejected) {
  Bytes tiny(10, 0);
  EXPECT_EQ(Frame::peek_header(as_span(tiny)).status().code(),
            ErrorCode::kDataLoss);
}

TEST(Frame, BadMagicRejected) {
  const Bytes code = make_code(16);
  auto frame = Frame::build(1, ir::CodeRepr::kBitcode, as_span(code), {}, 0);
  ASSERT_TRUE(frame.is_ok());
  Bytes corrupted(frame->full_view().begin(), frame->full_view().end());
  corrupted[0] ^= 0xff;
  EXPECT_FALSE(Frame::peek_header(as_span(corrupted)).is_ok());
}

TEST(Frame, HeaderCorruptionDetected) {
  const Bytes code = make_code(16);
  auto frame = Frame::build(1, ir::CodeRepr::kBitcode, as_span(code), {}, 0);
  ASSERT_TRUE(frame.is_ok());
  // Flip each header byte between magic and check; all must be caught.
  for (std::size_t pos = 4; pos < 24; ++pos) {
    Bytes corrupted(frame->full_view().begin(), frame->full_view().end());
    corrupted[pos] ^= 0x10;
    EXPECT_FALSE(Frame::peek_header(as_span(corrupted)).is_ok())
        << "byte " << pos;
  }
}

/// Overwrites the version byte of a frame image and recomputes the header
/// check (the FNV fold over the first 24 bytes), so the version byte is the
/// only thing wrong with the frame.
void set_version(Bytes& wire, std::uint8_t version) {
  wire[2] = version;
  const std::uint64_t h = fnv1a64(ByteSpan(wire.data(), 24));
  const auto check =
      static_cast<std::uint16_t>(h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48));
  wire[24] = static_cast<std::uint8_t>(check);
  wire[25] = static_cast<std::uint8_t>(check >> 8);
}

TEST(Frame, OtherProtocolVersionRejected) {
  const Bytes code = make_code(16);
  auto frame = Frame::build(1, ir::CodeRepr::kBitcode, as_span(code), {}, 0);
  ASSERT_TRUE(frame.is_ok());
  ASSERT_FALSE(frame->header().traced());
  const Bytes wire(frame->full_view().begin(), frame->full_view().end());
  ASSERT_EQ(wire[2], kProtocolVersion);
  for (unsigned version = 0; version <= 0xFF; ++version) {
    Bytes other = wire;
    set_version(other, static_cast<std::uint8_t>(version));
    auto header = Frame::peek_header(as_span(other));
    if (version == kProtocolVersion) {
      // Resealing with the current version reproduces the original frame.
      EXPECT_EQ(other, wire);
      EXPECT_TRUE(header.is_ok()) << header.status().to_string();
      continue;
    }
    ASSERT_FALSE(header.is_ok()) << "accepted version " << version;
    EXPECT_EQ(header.status().code(), ErrorCode::kDataLoss);
    EXPECT_NE(header.status().to_string().find("unsupported protocol version"),
              std::string::npos)
        << header.status().to_string();
    EXPECT_FALSE(Frame::validate(as_span(other)).is_ok())
        << "validated version " << version;
  }
}

TEST(Frame, WrongLengthRejected) {
  const Bytes code = make_code(64);
  const Bytes payload = make_code(8, 9);
  auto frame = Frame::build(2, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 0);
  ASSERT_TRUE(frame.is_ok());
  ByteSpan full = frame->full_view();
  // Neither-truncated-nor-full lengths are protocol violations.
  for (std::size_t cut : {1ul, 3ul, 10ul}) {
    EXPECT_FALSE(Frame::validate(full.subspan(0, full.size() - cut)).is_ok())
        << "cut " << cut;
  }
}

TEST(Frame, PayloadDelimiterCorruptionDetected) {
  const Bytes code = make_code(64);
  const Bytes payload = make_code(8, 9);
  auto frame = Frame::build(2, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 0);
  ASSERT_TRUE(frame.is_ok());
  Bytes corrupted(frame->full_view().begin(), frame->full_view().end());
  corrupted[kHeaderSize + 8] ^= 0xff;  // first MAGIC byte
  EXPECT_FALSE(Frame::validate(as_span(corrupted)).is_ok());
}

TEST(Frame, TrailerDelimiterCorruptionDetected) {
  const Bytes code = make_code(64);
  auto frame = Frame::build(2, ir::CodeRepr::kBitcode, as_span(code), {}, 0);
  ASSERT_TRUE(frame.is_ok());
  Bytes corrupted(frame->full_view().begin(), frame->full_view().end());
  corrupted.back() ^= 0xff;
  EXPECT_FALSE(Frame::validate(as_span(corrupted)).is_ok());
  // But the truncated prefix of the same buffer stays valid.
  EXPECT_TRUE(Frame::validate(ByteSpan(corrupted.data(),
                                       frame->truncated_size()))
                  .is_ok());
}

// --- traced wire images ----------------------------------------------------------
// Frame::encode writes only the bytes that ship. The byte-count checks here
// pin the property the NACK-redelivery path depends on: a traced truncated
// send adds exactly the 16-byte trace extension and never copies the code
// archive, however large it is.

/// `frame`'s sections with `trace` attached.
FrameParts traced_parts(const Frame& frame, const obs::TraceContext& trace) {
  FrameParts parts = frame.parts();
  parts.trace = trace;
  return parts;
}

TEST(FrameTracedWire, TruncatedImageAddsOnlyTraceExt) {
  const Bytes code = make_code(5159);  // the paper's ~5 KiB TSI archive
  const Bytes payload = {1, 2, 3};
  auto frame = Frame::build(21, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 4);
  ASSERT_TRUE(frame.is_ok());
  obs::TraceContext trace;
  trace.trace_id = 0xABCD;
  trace.hop = 2;
  trace.parent_span = 77;
  auto encoded =
      Frame::encode(traced_parts(*frame, trace), /*include_code=*/false);
  ASSERT_TRUE(encoded.is_ok()) << encoded.status().to_string();
  const Bytes& wire = *encoded;
  // Exactly trace-ext bigger than the untraced truncated send: the 5 KiB
  // archive contributed zero bytes to the redelivery-path image.
  EXPECT_EQ(wire.size(), frame->truncated_size() + kTraceExtSize);
  auto has_code = Frame::validate(as_span(wire));
  ASSERT_TRUE(has_code.is_ok());
  EXPECT_FALSE(*has_code);
  auto header = Frame::peek_header(as_span(wire));
  ASSERT_TRUE(header.is_ok());
  EXPECT_TRUE(header->traced());
  EXPECT_EQ(header->trace.trace_id, 0xABCDu);
  EXPECT_EQ(header->trace.hop, 2u);
  EXPECT_EQ(header->trace.parent_span, 77u);
  ByteSpan p = Frame::payload_view(as_span(wire), *header);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), p.begin(), p.end()));
}

TEST(FrameTracedWire, FullImageAddsOnlyTraceExt) {
  const Bytes code = make_code(4096);
  const Bytes payload = {9};
  auto frame = Frame::build(22, ir::CodeRepr::kObject, as_span(code),
                            as_span(payload), 1);
  ASSERT_TRUE(frame.is_ok());
  obs::TraceContext trace;
  trace.trace_id = 7;
  auto encoded =
      Frame::encode(traced_parts(*frame, trace), /*include_code=*/true);
  ASSERT_TRUE(encoded.is_ok()) << encoded.status().to_string();
  const Bytes& wire = *encoded;
  EXPECT_EQ(wire.size(), frame->full_size() + kTraceExtSize);
  auto has_code = Frame::validate(as_span(wire));
  ASSERT_TRUE(has_code.is_ok());
  EXPECT_TRUE(*has_code);
  auto header = Frame::peek_header(as_span(wire));
  ASSERT_TRUE(header.is_ok());
  ByteSpan c = Frame::code_view(as_span(wire), *header);
  EXPECT_TRUE(std::equal(code.begin(), code.end(), c.begin(), c.end()));
}

TEST(FrameTracedWire, OtherProtocolVersionRejected) {
  // A trace extension on any version but the current one is refused by the
  // version check, before the extension is read.
  const Bytes code = make_code(64);
  const Bytes payload = {1, 2, 3};
  auto frame = Frame::build(23, ir::CodeRepr::kPortable, as_span(code),
                            as_span(payload), 2);
  ASSERT_TRUE(frame.is_ok());
  obs::TraceContext trace;
  trace.trace_id = 0x5151;
  trace.hop = 1;
  for (bool include_code : {false, true}) {
    auto wire = Frame::encode(traced_parts(*frame, trace), include_code);
    ASSERT_TRUE(wire.is_ok()) << wire.status().to_string();
    ASSERT_TRUE(Frame::peek_header(as_span(*wire)).is_ok());
    for (std::uint8_t version : {std::uint8_t{2}, std::uint8_t{4}}) {
      Bytes other = *wire;
      set_version(other, version);
      auto header = Frame::peek_header(as_span(other));
      ASSERT_FALSE(header.is_ok())
          << "accepted traced version " << unsigned{version};
      EXPECT_EQ(header.status().code(), ErrorCode::kDataLoss);
      EXPECT_NE(
          header.status().to_string().find("unsupported protocol version"),
          std::string::npos)
          << header.status().to_string();
      EXPECT_FALSE(Frame::validate(as_span(other)).is_ok());
    }
  }
}

// --- the encoder, byte for byte -------------------------------------------------
// Every stock kernel × HLL guards off/on × {untraced, traced} × {full,
// truncated}. Portable archives are pinned: the rows are the images the
// runtime shipped when it sliced each send out of a whole frame, so a
// changed row is a changed wire byte. Bitcode archives embed the host CPU
// name, so they are compared with Frame::build views in-process instead.

TEST(FrameEncode, CheckRefusesWhatNoFrameCarries) {
  const Bytes code = make_code(16);
  const Bytes payload = {1};
  FrameParts parts;
  parts.payload = as_span(payload);
  EXPECT_EQ(Frame::check(parts).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(Frame::encode(parts, /*include_code=*/false).status().code(),
            ErrorCode::kInvalidArgument);
  parts.code_archive = as_span(code);
  EXPECT_TRUE(Frame::check(parts).is_ok());
  parts.code_only = true;
  EXPECT_EQ(Frame::encode(parts, /*include_code=*/true).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(FrameEncode, DecodeReportsHeaderAndCodePresence) {
  const Bytes code = make_code(300, 5);
  const Bytes payload = make_code(24, 6);
  auto frame = Frame::build(0x77, ir::CodeRepr::kPortable, as_span(code),
                            as_span(payload), 9);
  ASSERT_TRUE(frame.is_ok());
  for (bool truncated : {false, true}) {
    auto decoded = Frame::decode(truncated ? frame->truncated_view()
                                           : frame->full_view());
    ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded->has_code, !truncated);
    EXPECT_EQ(decoded->header.ifunc_id, 0x77u);
    EXPECT_EQ(decoded->header.origin_node, 9u);
    EXPECT_EQ(decoded->header.payload_size, payload.size());
    EXPECT_EQ(decoded->header.code_size, code.size());
  }
}

/// Size and fnv1a64 of one wire image.
struct WireImage {
  std::size_t bytes;
  std::uint64_t fnv1a64;
};

/// A stock kernel's portable frame images: untraced full, untraced
/// truncated, traced full, traced truncated (pin_payload(), kPinOrigin and
/// pin_trace() below).
struct EncodePin {
  ir::KernelKind kind;
  bool hll_guards;
  WireImage images[4];
};

void PrintTo(const EncodePin& pin, std::ostream* os) {
  *os << ir::kernel_name(pin.kind) << (pin.hll_guards ? " --hll" : "");
}

using K = ir::KernelKind;

constexpr EncodePin kEncodePins[] = {
    {K::kTargetSideIncrement, false,
     {{180, 0xfba4dfce072b61dd}, {62, 0xce6d834e8a55bd0a},
      {196, 0x52da6838fcb17dee}, {78, 0x9c7c4482e2baaf5d}}},
    {K::kTargetSideIncrement, true,
     {{188, 0x3d24f5f8b39ded8c}, {62, 0x586bdf12175714b7},
      {204, 0xdb4b3775fe122ff5}, {78, 0xc873ed0dc78fa8de}}},
    {K::kPayloadSum, false,
     {{236, 0x1e2f9aeee880883a}, {62, 0x50b69d453eb586e2},
      {252, 0x0f6604cedc03f5c2}, {78, 0x0019b5d7802c415a}}},
    {K::kPayloadSum, true,
     {{244, 0x7c87c76e230a25f9}, {62, 0xe5241b81d341cb9f},
      {260, 0x522099f93f5a7d83}, {78, 0x47a154f1349972fd}}},
    {K::kSaxpy, false,
     {{324, 0x6dfed3ddfccd9421}, {62, 0x59dbef1ac4f342da},
      {340, 0xca787aeb462ec602}, {78, 0xb0eb028d857f84a5}}},
    {K::kSaxpy, true,
     {{332, 0xd650b2d44dc677c4}, {62, 0x096e4a19203fd69c},
      {348, 0xf20de328f1faa11c}, {78, 0x8238f55b5d71a794}}},
    {K::kVecReduce, false,
     {{260, 0x13628b321f3ed3e9}, {62, 0x7f47f384fe4bf9ef},
      {276, 0x24de90e1575a664e}, {78, 0x73d958876cf7ddc4}}},
    {K::kVecReduce, true,
     {{268, 0xab3c916a2916927f}, {62, 0xe66136c601511b5b},
      {284, 0x0d8f1245e2f29729}, {78, 0xdb9d45da97d82f8d}}},
    {K::kChaser, false,
     {{372, 0xe3c7a1a806af9646}, {62, 0x5d8d694566d87c55},
      {388, 0x01121d27720ffc01}, {78, 0x16e402429e7d517a}}},
    {K::kChaser, true,
     {{380, 0x3b3707234ca59fb4}, {62, 0x575a3dfbf8799a69},
      {396, 0xa0ec8ba872e94298}, {78, 0xf82dd767aa49856d}}},
    {K::kRingHop, false,
     {{308, 0xb29242e00065b92f}, {62, 0x6532427c1bd158ed},
      {324, 0x8f5c52f845f7fdd9}, {78, 0x8dd64b3100d3a38f}}},
    {K::kRingHop, true,
     {{316, 0xa9c895316ae306a6}, {62, 0xdf731e9b75f29c4a},
      {332, 0x5d681bfea55367bf}, {78, 0x3b88e66a3e9eeb1b}}},
    {K::kSpawner, false,
     {{196, 0xc5e9bb8ab7e4b01e}, {62, 0x8f9090b0ec362699},
      {212, 0x5f22eb1a8a98438d}, {78, 0x632c68d00a8037d6}}},
    {K::kSpawner, true,
     {{204, 0xed4537316ed2f0e7}, {62, 0x1264f2dec7b7c0fa},
      {220, 0xe6f9456976a94a9a}, {78, 0xd7ab17b0327ef8ab}}},
    {K::kSinSum, false,
     {{281, 0x8d0eda2a5a284266}, {62, 0xee6c63943496ae43},
      {297, 0x79e068939cca3c3e}, {78, 0x55198ae6fed9339b}}},
    {K::kSinSum, true,
     {{289, 0x34b5fb5164f5229a}, {62, 0xd9754e621d5d7063},
      {305, 0x339ceab8ceff36f3}, {78, 0xd5b28d9bdd2c40c8}}},
    {K::kRemoteStore, false,
     {{220, 0x8efe28325a95e960}, {62, 0x8322f5adb00dc444},
      {236, 0x43b6f148faf4d510}, {78, 0x6d1e9aa8f534d354}}},
    {K::kRemoteStore, true,
     {{228, 0x575ccc2944159863}, {62, 0x79a697573621efeb},
      {244, 0x6cb2c7ea2474926a}, {78, 0x5309b29c204b40d6}}},
    {K::kStatsSummary, false,
     {{356, 0x68a267e6119dad38}, {62, 0x29f700e7e355d432},
      {372, 0x083190c7813c71e4}, {78, 0x371deb5ce8e83866}}},
    {K::kStatsSummary, true,
     {{364, 0x1de7fcb917ca6389}, {62, 0x0427f1ff6dae0b2b},
      {380, 0x62cf1f2cf74134f2}, {78, 0x879726bf03b974ac}}},
    {K::kTreeBroadcast, false,
     {{332, 0x940115d3d9ec1d9f}, {62, 0xf5d76da3302c0cfc},
      {348, 0x145540c4b9ab30c8}, {78, 0x8deb02f69a834e97}}},
    {K::kTreeBroadcast, true,
     {{340, 0xc9ac78f0618dde24}, {62, 0x0160d1795690e63f},
      {356, 0xbe1ee0f9b784102f}, {78, 0x9ccf8e2d333a5540}}},
    {K::kCollectiveBroadcast, false,
     {{460, 0xf6256182aaa71846}, {62, 0xac93681a14100b87},
      {476, 0x22add6bc01822048}, {78, 0x45197f93e1d5be2d}}},
    {K::kCollectiveBroadcast, true,
     {{468, 0x9d4ac419494a7a9e}, {62, 0xca183d1b92b76119},
      {484, 0x8c3e9f07e775e610}, {78, 0x8cea4353127e96a3}}},
    {K::kCollectiveReduce, false,
     {{964, 0x325e77f32c486504}, {62, 0x5f7963729564b0af},
      {980, 0xaee17b38ba2c77d1}, {78, 0xd476517d48a2ad5a}}},
    {K::kCollectiveReduce, true,
     {{980, 0x4d860abd7fa25d7d}, {62, 0x36141e73f270cd2b},
      {996, 0xa287f55fbcc8f1cc}, {78, 0x5c99f10c1e254012}}},
    {K::kHashProbe, false,
     {{500, 0xf4710aa81cf3069c}, {62, 0xb21138b6d0385716},
      {516, 0x30747c471962076e}, {78, 0x7b670fdc215c2f20}}},
    {K::kHashProbe, true,
     {{508, 0x898799826ccfda51}, {62, 0x9cd03143b29752d0},
      {524, 0xcfa838f092767e5e}, {78, 0x11367a75deb7453b}}},
    {K::kOrderedSearch, false,
     {{1108, 0x931572dec7fa71ab}, {62, 0x63e430ac31548e59},
      {1124, 0x96730c3739a2c99e}, {78, 0xc46a8c1bf366983c}}},
    {K::kOrderedSearch, true,
     {{1140, 0x2b019ce9239d6e3a}, {62, 0x48873d325f66851f},
      {1156, 0xb3fd1ac6d80a5ee0}, {78, 0xba8d3bac4422a5b5}}},
    {K::kBfsFrontier, false,
     {{1204, 0x439b2c98475ac376}, {62, 0x3b1d112306c864d9},
      {1220, 0xe47adac1ed76b45a}, {78, 0x2df56f50eb5b265d}}},
    {K::kBfsFrontier, true,
     {{1212, 0x0aeab7022088113c}, {62, 0x00ab09860166a248},
      {1228, 0x03dd01435b3a9711}, {78, 0x8e55b99e2f14d2a9}}},
};

Bytes pin_payload() {
  Bytes payload(32);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 37 + 5);
  }
  return payload;
}
constexpr std::uint32_t kPinOrigin = 3;
obs::TraceContext pin_trace() {
  obs::TraceContext trace;
  trace.trace_id = 0x0123456789ABCDEFull;
  trace.hop = 2;
  trace.parent_span = 77;
  return trace;
}

/// The sections a runtime on node kPinOrigin sends `lib` with.
FrameParts pin_parts(const IfuncLibrary& lib, ByteSpan payload) {
  FrameParts parts;
  parts.ifunc_id = lib.id();
  parts.repr = lib.repr();
  parts.code_archive = as_span(lib.serialized_archive());
  parts.payload = payload;
  parts.origin_node = kPinOrigin;
  return parts;
}

/// Encodes `lib` in all four forms and checks each against the same form
/// sliced out of a Frame::build of the same sections.
void expect_encode_matches_build(const IfuncLibrary& lib, ByteSpan payload) {
  FrameParts parts = pin_parts(lib, payload);
  for (bool traced : {false, true}) {
    parts.trace = traced ? pin_trace() : obs::TraceContext{};
    auto frame =
        Frame::build(lib.id(), lib.repr(), as_span(lib.serialized_archive()),
                     payload, kPinOrigin, /*code_only=*/false, &parts.trace);
    ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
    for (bool include_code : {true, false}) {
      auto wire = Frame::encode(parts, include_code);
      ASSERT_TRUE(wire.is_ok()) << wire.status().to_string();
      const ByteSpan view =
          include_code ? frame->full_view() : frame->truncated_view();
      EXPECT_TRUE(std::equal(wire->begin(), wire->end(), view.begin(),
                             view.end()))
          << (traced ? "traced " : "untraced ")
          << (include_code ? "full" : "truncated");
    }
  }
}

class FrameEncodeP : public ::testing::TestWithParam<EncodePin> {};

TEST_P(FrameEncodeP, PortableImagesMatchPins) {
  const EncodePin& pin = GetParam();
  ir::KernelOptions options;
  options.hll_guards = pin.hll_guards;
  auto lib = IfuncLibrary::from_portable_kernel(pin.kind, options);
  ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
  const Bytes payload = pin_payload();
  FrameParts parts = pin_parts(*lib, as_span(payload));
  for (int form = 0; form < 4; ++form) {
    const bool traced = form >= 2;
    const bool include_code = form % 2 == 0;
    parts.trace = traced ? pin_trace() : obs::TraceContext{};
    auto wire = Frame::encode(parts, include_code);
    ASSERT_TRUE(wire.is_ok()) << wire.status().to_string();
    EXPECT_EQ(wire->size(), pin.images[form].bytes) << "form " << form;
    EXPECT_EQ(fnv1a64(as_span(*wire)), pin.images[form].fnv1a64)
        << "form " << form;
  }
  expect_encode_matches_build(*lib, as_span(payload));
}

#if TC_WITH_LLVM
TEST_P(FrameEncodeP, BitcodeImagesMatchBuildViews) {
  const EncodePin& pin = GetParam();
  ir::KernelOptions options;
  options.hll_guards = pin.hll_guards;
  auto lib = IfuncLibrary::from_kernel(pin.kind, options);
  ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
  const Bytes payload = pin_payload();
  expect_encode_matches_build(*lib, as_span(payload));
}
#endif

INSTANTIATE_TEST_SUITE_P(
    AllStockKernels, FrameEncodeP, ::testing::ValuesIn(kEncodePins),
    [](const ::testing::TestParamInfo<EncodePin>& info) {
      std::string name = ir::kernel_name(info.param.kind);
      if (info.param.hll_guards) name += "_hll";
      return name;
    });

class FrameSweepP : public ::testing::TestWithParam<
                        std::tuple<std::size_t, std::size_t, ir::CodeRepr>> {};

TEST_P(FrameSweepP, RoundTripAcrossShapes) {
  const auto [payload_size, code_size, repr] = GetParam();
  const Bytes code = make_code(code_size, payload_size + 17);
  const Bytes payload = make_code(payload_size, code_size + 29);
  auto frame = Frame::build(payload_size * 1000003 + code_size, repr,
                            as_span(code), as_span(payload), 5);
  ASSERT_TRUE(frame.is_ok());

  for (bool truncated : {false, true}) {
    ByteSpan view = truncated ? frame->truncated_view() : frame->full_view();
    auto has_code = Frame::validate(view);
    ASSERT_TRUE(has_code.is_ok());
    EXPECT_EQ(*has_code, !truncated);
    auto header = Frame::peek_header(view);
    ASSERT_TRUE(header.is_ok());
    ByteSpan p = Frame::payload_view(view, *header);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), p.begin(), p.end()));
    if (!truncated) {
      ByteSpan c = Frame::code_view(view, *header);
      EXPECT_TRUE(std::equal(code.begin(), code.end(), c.begin(), c.end()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FrameSweepP,
    ::testing::Combine(::testing::Values(0, 1, 16, 255, 4096),
                       ::testing::Values(1, 65, 5159, 65536),
                       ::testing::Values(ir::CodeRepr::kBitcode,
                                         ir::CodeRepr::kObject)));

// --- result frames ---------------------------------------------------------------

TEST(ResultFrame, RoundTrip) {
  const Bytes data = {1, 2, 3, 4, 5, 6, 7, 8};
  Bytes wire = encode_result_frame(13, as_span(data));
  ASSERT_TRUE(is_result_frame(as_span(wire)));
  auto decoded = decode_result_frame(as_span(wire));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->origin_node, 13u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), decoded->data.begin(),
                         decoded->data.end()));
}

TEST(ResultFrame, EmptyPayloadAllowed) {
  Bytes wire = encode_result_frame(1, {});
  auto decoded = decode_result_frame(as_span(wire));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded->data.empty());
}

TEST(ResultFrame, IfuncFrameIsNotResultFrame) {
  const Bytes code = make_code(16);
  auto frame = Frame::build(1, ir::CodeRepr::kBitcode, as_span(code), {}, 0);
  ASSERT_TRUE(frame.is_ok());
  EXPECT_FALSE(is_result_frame(frame->full_view()));
}

TEST(ResultFrame, TrailingGarbageRejected) {
  Bytes wire = encode_result_frame(1, as_span(Bytes{9}));
  wire.push_back(0);
  EXPECT_FALSE(decode_result_frame(as_span(wire)).is_ok());
}

}  // namespace
}  // namespace tc::core
