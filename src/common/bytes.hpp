// Byte-buffer utilities and a small, explicit little-endian serializer used
// for every wire structure in the project (ifunc frames, fat-bitcode
// archives, deps manifests, X-RDMA payloads).
//
// All multi-byte integers are encoded little-endian regardless of host
// endianness so frames are portable between the simulated ISAs.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace tc {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

inline ByteSpan as_span(const Bytes& b) { return {b.data(), b.size()}; }
inline ByteSpan as_span(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}
inline std::string_view as_string_view(ByteSpan s) {
  return {reinterpret_cast<const char*>(s.data()), s.size()};
}
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Appends little-endian encodings to a growing buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(Bytes initial) : buf_(std::move(initial)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    le(bits);
  }

  void raw(ByteSpan s) { buf_.insert(buf_.end(), s.begin(), s.end()); }

  /// Reserves room for `n` bytes in total, so an encoder that knows its
  /// final size allocates once.
  void reserve(std::size_t n) { buf_.reserve(n); }

  /// Length-prefixed (u32) byte string.
  void blob(ByteSpan s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s);
  }
  void str(std::string_view s) { blob(as_span(s)); }

  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  Bytes buf_;
};

/// Bounds-checked little-endian decoder over a non-owning span.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool exhausted() const { return remaining() == 0; }

  Status u8(std::uint8_t& out) { return fixed(out); }
  Status u16(std::uint16_t& out) { return fixed(out); }
  Status u32(std::uint32_t& out) { return fixed(out); }
  Status u64(std::uint64_t& out) { return fixed(out); }
  Status i64(std::int64_t& out) {
    std::uint64_t bits = 0;
    TC_RETURN_IF_ERROR(fixed(bits));
    out = static_cast<std::int64_t>(bits);
    return Status::ok();
  }
  Status f64(double& out) {
    std::uint64_t bits = 0;
    TC_RETURN_IF_ERROR(fixed(bits));
    std::memcpy(&out, &bits, sizeof(out));
    return Status::ok();
  }

  /// Reads `n` raw bytes without copying.
  Status raw(std::size_t n, ByteSpan& out) {
    if (remaining() < n) return short_read(n);
    out = data_.subspan(pos_, n);
    pos_ += n;
    return Status::ok();
  }

  /// Reads a u32-length-prefixed byte string (view into the buffer).
  Status blob(ByteSpan& out) {
    std::uint32_t n = 0;
    TC_RETURN_IF_ERROR(u32(n));
    return raw(n, out);
  }
  Status str(std::string& out) {
    ByteSpan s;
    TC_RETURN_IF_ERROR(blob(s));
    out.assign(reinterpret_cast<const char*>(s.data()), s.size());
    return Status::ok();
  }

  Status skip(std::size_t n) {
    if (remaining() < n) return short_read(n);
    pos_ += n;
    return Status::ok();
  }

 private:
  template <typename T>
  Status fixed(T& out) {
    if (remaining() < sizeof(T)) return short_read(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    out = v;
    pos_ += sizeof(T);
    return Status::ok();
  }

  Status short_read(std::size_t wanted) const;

  ByteSpan data_;
  std::size_t pos_ = 0;
};

/// Hex dump (lowercase, no separators) — used in error messages and tests.
std::string hex(ByteSpan data, std::size_t max_bytes = 64);

}  // namespace tc
