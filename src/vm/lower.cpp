#include "vm/lower.hpp"

#include "ir/target_info.hpp"
#include "kir/kernels.hpp"
#include "kir/vm_backend.hpp"

namespace tc::vm {

StatusOr<Program> lower_kernel(ir::KernelKind kind,
                               const ir::KernelOptions& options) {
  TC_ASSIGN_OR_RETURN(kir::Def def, kir::prepared_def(kind, options));
  return kir::emit_vm(def);
}

StatusOr<ir::FatBitcode> build_portable_kernel(ir::KernelKind kind,
                                               const ir::KernelOptions& options) {
  TC_ASSIGN_OR_RETURN(Program program, lower_kernel(kind, options));
  ir::FatBitcode archive(ir::CodeRepr::kPortable);
  TC_RETURN_IF_ERROR(archive.add_entry(
      ir::TargetDescriptor{ir::kTriplePortable, "", ""}, program.serialize()));
  return archive;
}

}  // namespace tc::vm
