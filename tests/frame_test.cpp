// Tests for the ifunc message-frame codec (paper Figs. 2/3): layout, the
// truncated/full dual view, delimiter discovery, corruption detection, and
// result frames.
#include <gtest/gtest.h>

#include <string>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/frame.hpp"
#include "core/protocol.hpp"

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
// traced_wire splices only the bytes that ship. The byte-count checks here
// pin the property the NACK-redelivery path depends on: a traced truncated
// send adds exactly the 16-byte trace extension and never copies the code
// archive, however large it is.

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
  Bytes wire = Frame::traced_wire(*frame, trace, /*include_code=*/false);
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
  Bytes wire = Frame::traced_wire(*frame, trace, /*include_code=*/true);
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
    Bytes wire = Frame::traced_wire(*frame, trace, include_code);
    ASSERT_TRUE(Frame::peek_header(as_span(wire)).is_ok());
    for (std::uint8_t version : {std::uint8_t{2}, std::uint8_t{4}}) {
      Bytes other = wire;
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
