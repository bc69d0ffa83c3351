// IfuncLibrary: an injectable function library — name, wire identity, and
// its code archive (multi-ISA bitcode or pre-compiled objects) plus the
// dependency manifest. This is what the application registers with a
// Runtime and what travels inside message frames.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/status.hpp"
#include "ir/fat_bitcode.hpp"
#include "ir/kernels.hpp"

namespace tc::core {

class Runtime;

/// Wire identity of an ifunc: FNV-1a of its registered name.
inline std::uint64_t ifunc_id_for_name(std::string_view name) {
  return fnv1a64(name);
}

/// Registered name of stock kernel `kind` built as `repr` under `options`:
/// `<kernel>[_vm][_hll][_bin][_w]`, with `_vm` for portable bytecode and
/// `_bin` for objects. The name hashes to the wire ifunc id, so every
/// variant keeps its own identity.
std::string stock_library_name(ir::KernelKind kind, ir::CodeRepr repr,
                               const ir::KernelOptions& options = {});

/// Registers IfuncLibrary::from_stock_kernel(kind, repr, options) on
/// `runtime`, or returns the id of an earlier registration under the same
/// name without building anything.
StatusOr<std::uint64_t> register_stock_kernel(
    Runtime& runtime, ir::KernelKind kind, ir::CodeRepr repr,
    const ir::KernelOptions& options = {});

class IfuncLibrary {
 public:
  /// Wraps a built archive under `name`. The archive must be non-empty.
  static StatusOr<IfuncLibrary> from_archive(std::string name,
                                             ir::FatBitcode archive);

  /// Builds one of the stock kernels as `repr` under
  /// stock_library_name(kind, repr, options): kPortable is a portable-only
  /// ('TCFP') archive, available with or without LLVM; kBitcode is the
  /// multi-ISA fat bitcode for the default target set and kObject its
  /// AOT-compiled objects, both of which need TC_WITH_LLVM (they fail with
  /// kFailedPrecondition otherwise).
  static StatusOr<IfuncLibrary> from_stock_kernel(
      ir::KernelKind kind, ir::CodeRepr repr,
      const ir::KernelOptions& options = {});

  /// from_stock_kernel(kind, kBitcode, options) — the one-call path used by
  /// examples and benchmarks.
  static StatusOr<IfuncLibrary> from_kernel(
      ir::KernelKind kind, const ir::KernelOptions& options = {});

  /// from_stock_kernel(kind, kPortable, options): the interpreter tier.
  static StatusOr<IfuncLibrary> from_portable_kernel(
      ir::KernelKind kind, const ir::KernelOptions& options = {});

  /// Builds a *tiered* archive: a portable entry (interpreted immediately
  /// on arrival, zero compile) plus — when LLVM is compiled in — per-ISA
  /// bitcode entries the receiving runtime promotes to once the ifunc is
  /// hot. Library name is `<kernel>_tiered`.
  static StatusOr<IfuncLibrary> from_tiered_kernel(
      ir::KernelKind kind, const ir::KernelOptions& options = {});

  const std::string& name() const { return name_; }
  std::uint64_t id() const { return id_; }
  const ir::FatBitcode& archive() const { return archive_; }
  ir::CodeRepr repr() const { return archive_.repr(); }

  /// Serialized archive bytes as they appear in the frame code section.
  const Bytes& serialized_archive() const { return serialized_; }

 private:
  IfuncLibrary() = default;
  std::string name_;
  std::uint64_t id_ = 0;
  ir::FatBitcode archive_;
  Bytes serialized_;
};

}  // namespace tc::core
