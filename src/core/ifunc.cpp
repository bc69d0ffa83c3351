#include "core/ifunc.hpp"

#include "core/runtime.hpp"
#if TC_WITH_LLVM
#include "jit/compiler.hpp"
#include "kir/llvm_backend.hpp"
#endif
#include "vm/lower.hpp"

namespace tc::core {

namespace {

/// The sin_sum kernel calls sin() from libm: declare the dependency in the
/// archive's deps manifest so targets dlopen it before invocation.
void declare_kernel_deps(ir::KernelKind kind, ir::FatBitcode& archive) {
  if (kind == ir::KernelKind::kSinSum) {
    archive.add_dependency("libm.so.6");
  }
}

}  // namespace

StatusOr<IfuncLibrary> IfuncLibrary::from_archive(std::string name,
                                                  ir::FatBitcode archive) {
  if (name.empty()) return invalid_argument("ifunc name must be non-empty");
  if (archive.entries().empty()) {
    return invalid_argument("ifunc archive has no entries");
  }
  IfuncLibrary lib;
  lib.name_ = std::move(name);
  lib.id_ = ifunc_id_for_name(lib.name_);
  lib.serialized_ = archive.serialize();
  lib.archive_ = std::move(archive);
  return lib;
}

std::string stock_library_name(ir::KernelKind kind, ir::CodeRepr repr,
                               const ir::KernelOptions& options) {
  std::string name = ir::kernel_name(kind);
  if (repr == ir::CodeRepr::kPortable) name += "_vm";
  if (options.hll_guards) name += "_hll";
  if (repr == ir::CodeRepr::kObject) name += "_bin";
  if (options.chaser_tagged) name += "_w";
  return name;
}

StatusOr<IfuncLibrary> IfuncLibrary::from_stock_kernel(
    ir::KernelKind kind, ir::CodeRepr repr, const ir::KernelOptions& options) {
  ir::FatBitcode archive;
  if (repr == ir::CodeRepr::kPortable) {
    TC_ASSIGN_OR_RETURN(archive, vm::build_portable_kernel(kind, options));
  } else {
#if TC_WITH_LLVM
    TC_ASSIGN_OR_RETURN(archive,
                        kir::build_default_kir_fat_kernel(kind, options));
#else
    return failed_precondition(
        "bitcode/object kernels need LLVM (built with TC_WITH_LLVM=OFF); "
        "use ir::CodeRepr::kPortable");
#endif
  }
  declare_kernel_deps(kind, archive);
#if TC_WITH_LLVM
  if (repr == ir::CodeRepr::kObject) {
    TC_ASSIGN_OR_RETURN(archive, jit::compile_archive_to_objects(archive));
  }
#endif
  return from_archive(stock_library_name(kind, repr, options),
                      std::move(archive));
}

StatusOr<IfuncLibrary> IfuncLibrary::from_kernel(
    ir::KernelKind kind, const ir::KernelOptions& options) {
  return from_stock_kernel(kind, ir::CodeRepr::kBitcode, options);
}

StatusOr<IfuncLibrary> IfuncLibrary::from_portable_kernel(
    ir::KernelKind kind, const ir::KernelOptions& options) {
  return from_stock_kernel(kind, ir::CodeRepr::kPortable, options);
}

StatusOr<std::uint64_t> register_stock_kernel(
    Runtime& runtime, ir::KernelKind kind, ir::CodeRepr repr,
    const ir::KernelOptions& options) {
  if (auto existing =
          runtime.ifunc_id_by_name(stock_library_name(kind, repr, options));
      existing.is_ok()) {
    return *existing;
  }
  TC_ASSIGN_OR_RETURN(IfuncLibrary library,
                      IfuncLibrary::from_stock_kernel(kind, repr, options));
  return runtime.register_ifunc(std::move(library));
}

StatusOr<IfuncLibrary> IfuncLibrary::from_tiered_kernel(
    ir::KernelKind kind, const ir::KernelOptions& options) {
  TC_ASSIGN_OR_RETURN(ir::FatBitcode archive,
                      vm::build_portable_kernel(kind, options));
#if TC_WITH_LLVM
  // Ride the per-ISA bitcode alongside the portable entry so the receiving
  // runtime can promote past the interpreter once the ifunc is hot. Without
  // LLVM the archive stays portable-only and runs interpreted forever.
  TC_ASSIGN_OR_RETURN(ir::FatBitcode bitcode,
                      kir::build_default_kir_fat_kernel(kind, options));
  for (const ir::ArchiveEntry& entry : bitcode.entries()) {
    TC_RETURN_IF_ERROR(archive.add_entry(entry.target, entry.code));
  }
#endif
  declare_kernel_deps(kind, archive);
  std::string name = std::string(ir::kernel_name(kind)) + "_tiered";
  if (options.hll_guards) name += "_hll";
  if (options.chaser_tagged) name += "_w";
  return from_archive(std::move(name), std::move(archive));
}

}  // namespace tc::core
