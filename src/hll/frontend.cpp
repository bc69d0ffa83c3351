#include "hll/frontend.hpp"

#include <llvm/IR/Instructions.h>
#include <llvm/IR/LLVMContext.h>

#include "ir/abi.hpp"
#include "ir/bitcode.hpp"

namespace tc::hll {

StatusOr<core::IfuncLibrary> build_library(ir::KernelKind kind,
                                           bool drive_with_c, bool tagged) {
  ir::KernelOptions options;
  options.hll_guards = !drive_with_c;
  options.chaser_tagged = tagged;
  TC_ASSIGN_OR_RETURN(core::IfuncLibrary stock,
                      core::IfuncLibrary::from_stock_kernel(
                          kind, ir::CodeRepr::kBitcode, options));
  std::string name = std::string("hll_") + ir::kernel_name(kind);
  if (drive_with_c) name += "_c";
  if (tagged) name += "_w";
  return core::IfuncLibrary::from_archive(std::move(name), stock.archive());
}

StatusOr<unsigned> count_guard_calls(ByteSpan bitcode) {
  llvm::LLVMContext context;
  TC_ASSIGN_OR_RETURN(auto module, ir::bitcode_to_module(bitcode, context));
  unsigned count = 0;
  for (const llvm::Function& fn : *module) {
    for (const llvm::BasicBlock& bb : fn) {
      for (const llvm::Instruction& inst : bb) {
        if (const auto* call = llvm::dyn_cast<llvm::CallInst>(&inst)) {
          const llvm::Function* callee = call->getCalledFunction();
          if (callee != nullptr &&
              callee->getName() == abi::kHookHllGuard) {
            ++count;
          }
        }
      }
    }
  }
  return count;
}

}  // namespace tc::hll
