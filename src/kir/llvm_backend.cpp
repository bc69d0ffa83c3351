#include "kir/llvm_backend.hpp"

#include <vector>

#include <llvm/IR/IRBuilder.h>

#include "ir/abi.hpp"
#include "ir/bitcode.hpp"
#include "kir/kernels.hpp"
#include "workloads/shard_layout.hpp"

namespace tc::kir {

namespace {

/// The per-def emission state: the entry function, one i64 slot per KIR
/// register (mem2reg promotes them), and the leader→block map.
struct KirEmitter {
  llvm::LLVMContext& ctx;
  llvm::Module& mod;
  llvm::IRBuilder<> b;

  llvm::Type* i8p;
  llvm::Type* i64p;
  llvm::Type* void_ty;
  llvm::IntegerType* i8;
  llvm::IntegerType* i32;
  llvm::IntegerType* i64;
  llvm::Type* f32;
  llvm::Type* f64;

  llvm::Function* entry = nullptr;
  llvm::Value* arg_ctx = nullptr;
  llvm::Value* arg_payload = nullptr;
  llvm::Value* arg_size = nullptr;
  std::vector<llvm::Value*> regs;

  KirEmitter(llvm::LLVMContext& c, llvm::Module& m) : ctx(c), mod(m), b(c) {
    i8 = b.getInt8Ty();
    i32 = b.getInt32Ty();
    i64 = b.getInt64Ty();
    f32 = b.getFloatTy();
    f64 = b.getDoubleTy();
    i8p = b.getInt8PtrTy();
    i64p = i64->getPointerTo();
    void_ty = b.getVoidTy();
  }

  llvm::FunctionCallee hook(const char* name, llvm::Type* ret,
                            std::initializer_list<llvm::Type*> params) {
    return mod.getOrInsertFunction(
        name, llvm::FunctionType::get(ret, params, false));
  }

  llvm::ConstantInt* c64(std::uint64_t v) {
    return llvm::ConstantInt::get(i64, v);
  }

  llvm::Value* ld(std::uint8_t r) { return b.CreateLoad(i64, regs[r]); }
  void st(std::uint8_t r, llvm::Value* v) { b.CreateStore(v, regs[r]); }

  /// r[base] + imm as a typed pointer.
  llvm::Value* mem(std::uint8_t base, std::int32_t imm, llvm::Type* pointee) {
    llvm::Value* addr = ld(base);
    if (imm != 0) {
      addr = b.CreateAdd(
          addr, c64(static_cast<std::uint64_t>(static_cast<std::int64_t>(imm))));
    }
    return b.CreateIntToPtr(addr, pointee->getPointerTo());
  }

  /// &payload[byte_offset] as an i64 pointer (typed payload words).
  llvm::Value* payload_word(std::int32_t byte_offset) {
    auto* raw = b.CreateConstInBoundsGEP1_64(i8, arg_payload, byte_offset);
    return b.CreateBitCast(raw, i64p);
  }

  llvm::Value* as_double(llvm::Value* bits) {
    return b.CreateBitCast(bits, f64);
  }
  llvm::Value* double_bits(llvm::Value* v) { return b.CreateBitCast(v, i64); }
  llvm::Value* as_float(llvm::Value* bits) {
    return b.CreateBitCast(b.CreateTrunc(bits, i32), f32);
  }
  llvm::Value* float_bits(llvm::Value* v) {
    return b.CreateZExt(b.CreateBitCast(v, i32), i64);
  }
  llvm::Value* bool_to_reg(llvm::Value* i1) { return b.CreateZExt(i1, i64); }

  void store_i32_result(std::uint8_t r, llvm::Value* rc) {
    st(r, b.CreateSExt(rc, i64));
  }
};

Status emit_hook(KirEmitter& e, vm::HookId hook, std::uint8_t dst,
                 std::uint8_t arg_base) {
  auto arg = [&](unsigned i) { return e.ld(arg_base + i); };
  auto arg_ptr = [&](unsigned i) {
    return e.b.CreateIntToPtr(arg(i), e.i8p);
  };
  switch (hook) {
    case vm::HookId::kTarget:
      e.st(dst, e.b.CreatePtrToInt(
                    e.b.CreateCall(
                        e.hook(abi::kHookTarget, e.i8p, {e.i8p}), {e.arg_ctx}),
                    e.i64));
      break;
    case vm::HookId::kNode:
      e.st(dst, e.b.CreateCall(e.hook(abi::kHookNode, e.i64, {e.i8p}),
                               {e.arg_ctx}));
      break;
    case vm::HookId::kPeerCount:
      e.st(dst, e.b.CreateCall(e.hook(abi::kHookPeerCount, e.i64, {e.i8p}),
                               {e.arg_ctx}));
      break;
    case vm::HookId::kSelfPeer:
      e.st(dst, e.b.CreateCall(e.hook(abi::kHookSelfPeer, e.i64, {e.i8p}),
                               {e.arg_ctx}));
      break;
    case vm::HookId::kShardBase:
      e.st(dst, e.b.CreatePtrToInt(
                    e.b.CreateCall(
                        e.hook(abi::kHookShardBase, e.i64p, {e.i8p}),
                        {e.arg_ctx}),
                    e.i64));
      break;
    case vm::HookId::kShardSize:
      e.st(dst, e.b.CreateCall(e.hook(abi::kHookShardSize, e.i64, {e.i8p}),
                               {e.arg_ctx}));
      break;
    case vm::HookId::kForward:
      e.store_i32_result(
          dst, e.b.CreateCall(
                   e.hook(abi::kHookForward, e.i32,
                          {e.i8p, e.i64, e.i8p, e.i64}),
                   {e.arg_ctx, arg(0), arg_ptr(1), arg(2)}));
      break;
    case vm::HookId::kInject:
      e.store_i32_result(
          dst, e.b.CreateCall(
                   e.hook(abi::kHookInject, e.i32,
                          {e.i8p, e.i64, e.i8p, e.i8p, e.i64}),
                   {e.arg_ctx, arg(0), arg_ptr(1), arg_ptr(2), arg(3)}));
      break;
    case vm::HookId::kReply:
      e.store_i32_result(
          dst, e.b.CreateCall(
                   e.hook(abi::kHookReply, e.i32, {e.i8p, e.i8p, e.i64}),
                   {e.arg_ctx, arg_ptr(0), arg(1)}));
      break;
    case vm::HookId::kRemoteWrite:
      e.store_i32_result(
          dst, e.b.CreateCall(
                   e.hook(abi::kHookRemoteWrite, e.i32,
                          {e.i8p, e.i64, e.i64, e.i8p, e.i64}),
                   {e.arg_ctx, arg(0), arg(1), arg_ptr(2), arg(3)}));
      break;
    case vm::HookId::kHllGuard:
      e.b.CreateCall(e.hook(abi::kHookHllGuard, e.void_ty, {e.i8p}),
                     {e.arg_ctx});
      break;
    case vm::HookId::kSin:
      // The libm.so.6 dependency, resolved on the target like any hook.
      e.st(dst, e.double_bits(e.b.CreateCall(
                    e.hook("sin", e.f64, {e.f64}), {e.as_double(arg(0))})));
      break;
    case vm::HookId::kShardInfo:
      // Same write order as the interpreter's one-op preamble.
      e.st(dst, e.b.CreateCall(e.hook(abi::kHookShardSize, e.i64, {e.i8p}),
                               {e.arg_ctx}));
      e.st(dst + 1,
           e.b.CreateCall(e.hook(abi::kHookSelfPeer, e.i64, {e.i8p}),
                          {e.arg_ctx}));
      e.st(dst + 2, e.b.CreatePtrToInt(
                        e.b.CreateCall(
                            e.hook(abi::kHookShardBase, e.i64p, {e.i8p}),
                            {e.arg_ctx}),
                        e.i64));
      e.st(dst + 3,
           e.b.CreateCall(e.hook(abi::kHookPeerCount, e.i64, {e.i8p}),
                          {e.arg_ctx}));
      break;
    default:
      return internal_error("kir: unknown hook in llvm backend");
  }
  return Status::ok();
}

llvm::Instruction::BinaryOps map_int_op(Op op) {
  switch (op) {
    case Op::kAdd: return llvm::Instruction::Add;
    case Op::kSub: return llvm::Instruction::Sub;
    case Op::kMul: return llvm::Instruction::Mul;
    case Op::kUdiv: return llvm::Instruction::UDiv;
    case Op::kUrem: return llvm::Instruction::URem;
    case Op::kAnd: return llvm::Instruction::And;
    case Op::kOr: return llvm::Instruction::Or;
    case Op::kXor: return llvm::Instruction::Xor;
    default: return llvm::Instruction::Shl;  // kShl/kShr handled separately
  }
}

Status emit_body(KirEmitter& e, const Def& def) {
  const std::size_t size = def.code.size();
  // Leaders: instruction 0, every branch target, and every instruction
  // after a control-flow op (the fallthrough successor of a conditional
  // branch needs its own block; code after ret/br gets a fresh — possibly
  // unreachable — block, which the LLVM verifier accepts).
  std::vector<bool> leader(size, false);
  leader[0] = true;
  for (std::size_t i = 0; i < size; ++i) {
    const Inst& in = def.code[i];
    switch (in.op) {
      case Op::kBr:
      case Op::kBrz:
      case Op::kBrnz:
        leader[in.imm] = true;
        if (i + 1 < size) leader[i + 1] = true;
        break;
      case Op::kRet:
        if (i + 1 < size) leader[i + 1] = true;
        break;
      default:
        break;
    }
  }
  std::vector<llvm::BasicBlock*> blocks(size, nullptr);
  for (std::size_t i = 0; i < size; ++i) {
    if (leader[i]) {
      blocks[i] = llvm::BasicBlock::Create(
          e.ctx, "i" + std::to_string(i), e.entry);
    }
  }
  // Entry block falls into the first leader.
  e.b.CreateBr(blocks[0]);

  for (std::size_t i = 0; i < size; ++i) {
    if (leader[i]) {
      // Fall into the leader from straight-line code above it.
      if (e.b.GetInsertBlock()->getTerminator() == nullptr) {
        e.b.CreateBr(blocks[i]);
      }
      e.b.SetInsertPoint(blocks[i]);
    }
    const Inst& in = def.code[i];
    switch (in.op) {
      case Op::kConst:
      case Op::kConstF:
        e.st(in.a, e.c64(in.wide));
        break;
      case Op::kMov:
        e.st(in.a, e.ld(in.b));
        break;
      case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kUdiv:
      case Op::kUrem: case Op::kAnd: case Op::kOr: case Op::kXor:
        e.st(in.a,
             e.b.CreateBinOp(map_int_op(in.op), e.ld(in.b), e.ld(in.c)));
        break;
      case Op::kShl:
        e.st(in.a, e.b.CreateShl(e.ld(in.b),
                                 e.b.CreateAnd(e.ld(in.c), e.c64(63))));
        break;
      case Op::kShr:
        e.st(in.a, e.b.CreateLShr(e.ld(in.b),
                                  e.b.CreateAnd(e.ld(in.c), e.c64(63))));
        break;
      case Op::kCeq:
        e.st(in.a, e.bool_to_reg(e.b.CreateICmpEQ(e.ld(in.b), e.ld(in.c))));
        break;
      case Op::kCne:
        e.st(in.a, e.bool_to_reg(e.b.CreateICmpNE(e.ld(in.b), e.ld(in.c))));
        break;
      case Op::kCult:
        e.st(in.a, e.bool_to_reg(e.b.CreateICmpULT(e.ld(in.b), e.ld(in.c))));
        break;
      case Op::kCule:
        e.st(in.a, e.bool_to_reg(e.b.CreateICmpULE(e.ld(in.b), e.ld(in.c))));
        break;
      case Op::kFadd:
        e.st(in.a, e.double_bits(e.b.CreateFAdd(e.as_double(e.ld(in.b)),
                                                e.as_double(e.ld(in.c)))));
        break;
      case Op::kFsub:
        e.st(in.a, e.double_bits(e.b.CreateFSub(e.as_double(e.ld(in.b)),
                                                e.as_double(e.ld(in.c)))));
        break;
      case Op::kFmul:
        e.st(in.a, e.double_bits(e.b.CreateFMul(e.as_double(e.ld(in.b)),
                                                e.as_double(e.ld(in.c)))));
        break;
      case Op::kFdiv:
        e.st(in.a, e.double_bits(e.b.CreateFDiv(e.as_double(e.ld(in.b)),
                                                e.as_double(e.ld(in.c)))));
        break;
      case Op::kFadd32:
        e.st(in.a, e.float_bits(e.b.CreateFAdd(e.as_float(e.ld(in.b)),
                                               e.as_float(e.ld(in.c)))));
        break;
      case Op::kFmul32:
        e.st(in.a, e.float_bits(e.b.CreateFMul(e.as_float(e.ld(in.b)),
                                               e.as_float(e.ld(in.c)))));
        break;
      case Op::kLd8:
        e.st(in.a, e.b.CreateZExt(
                       e.b.CreateLoad(e.i8, e.mem(in.b, in.imm, e.i8)),
                       e.i64));
        break;
      case Op::kLd32:
        e.st(in.a, e.b.CreateZExt(
                       e.b.CreateLoad(e.i32, e.mem(in.b, in.imm, e.i32)),
                       e.i64));
        break;
      case Op::kLd64:
        e.st(in.a, e.b.CreateLoad(e.i64, e.mem(in.b, in.imm, e.i64)));
        break;
      case Op::kSt32:
        e.b.CreateStore(e.b.CreateTrunc(e.ld(in.a), e.i32),
                        e.mem(in.b, in.imm, e.i32));
        break;
      case Op::kSt64: {
        auto* store = e.b.CreateStore(e.ld(in.a), e.mem(in.b, in.imm, e.i64));
        if (in.release) {
          store->setAtomic(llvm::AtomicOrdering::Release);
          store->setAlignment(llvm::Align(8));
        }
        break;
      }
      case Op::kLdPayload:
        e.st(in.a, e.b.CreateLoad(e.i64, e.payload_word(in.imm)));
        break;
      case Op::kStPayload:
        e.b.CreateStore(e.ld(in.a), e.payload_word(in.imm));
        break;
      case Op::kLdShardWord:
        e.st(in.a,
             e.b.CreateLoad(
                 e.i64,
                 e.mem(in.b,
                       in.imm * static_cast<std::int32_t>(
                                    workloads::kShardWordBytes),
                       e.i64)));
        break;
      case Op::kStShardWord:
        e.b.CreateStore(
            e.ld(in.a),
            e.mem(in.b,
                  in.imm * static_cast<std::int32_t>(
                               workloads::kShardWordBytes),
                  e.i64));
        break;
      case Op::kBr:
        e.b.CreateBr(blocks[in.imm]);
        break;
      case Op::kBrz:
        e.b.CreateCondBr(e.b.CreateICmpEQ(e.ld(in.a), e.c64(0)),
                         blocks[in.imm], blocks[i + 1]);
        break;
      case Op::kBrnz:
        e.b.CreateCondBr(e.b.CreateICmpNE(e.ld(in.a), e.c64(0)),
                         blocks[in.imm], blocks[i + 1]);
        break;
      case Op::kHook:
        TC_RETURN_IF_ERROR(emit_hook(e, in.hook, in.b, in.c));
        break;
      case Op::kForward:
        TC_RETURN_IF_ERROR(emit_hook(e, vm::HookId::kForward, in.a, in.c));
        break;
      case Op::kReply:
        TC_RETURN_IF_ERROR(emit_hook(e, vm::HookId::kReply, in.a, in.c));
        break;
      case Op::kRet:
        e.b.CreateRetVoid();
        break;
      case Op::kGuard:
      case Op::kTrace:
        return failed_precondition(
            "kir: " + def.name + " still carries " +
            std::string(op_name(in.op)) +
            " markers — emit from prepared_def(), not the raw def");
    }
  }
  return Status::ok();
}

}  // namespace

StatusOr<std::unique_ptr<llvm::Module>> build_kir_module(
    llvm::LLVMContext& context, const Def& def,
    const ir::TargetDescriptor& target) {
  TC_RETURN_IF_ERROR(verify(def));
  ir::initialize_llvm();
  TC_ASSIGN_OR_RETURN(auto machine, ir::make_target_machine(target));

  auto module = std::make_unique<llvm::Module>(def.name, context);
  module->setTargetTriple(ir::normalize_triple(target.triple));
  module->setDataLayout(machine->createDataLayout());

  KirEmitter e(context, *module);
  auto* fty = llvm::FunctionType::get(e.void_ty, {e.i8p, e.i8p, e.i64},
                                      /*vararg=*/false);
  e.entry = llvm::Function::Create(fty, llvm::Function::ExternalLinkage,
                                   abi::kEntryName, module.get());
  e.entry->getArg(0)->setName("ctx");
  e.entry->getArg(1)->setName("payload");
  e.entry->getArg(2)->setName("payload_size");
  e.arg_ctx = e.entry->getArg(0);
  e.arg_payload = e.entry->getArg(1);
  e.arg_size = e.entry->getArg(2);
  e.b.SetInsertPoint(llvm::BasicBlock::Create(context, "entry", e.entry));

  // One stack slot per KIR register; r0/r1 carry the entry ABI. mem2reg
  // turns these into SSA values during the JIT pipeline.
  e.regs.resize(def.reg_count);
  for (std::uint16_t r = 0; r < def.reg_count; ++r) {
    e.regs[r] = e.b.CreateAlloca(e.i64, nullptr, "r" + std::to_string(r));
  }
  e.st(0, e.b.CreatePtrToInt(e.arg_payload, e.i64));
  e.st(1, e.arg_size);

  TC_RETURN_IF_ERROR(emit_body(e, def));
  TC_RETURN_IF_ERROR(ir::verify_module(*module));
  return module;
}

StatusOr<std::unique_ptr<llvm::Module>> build_kir_module(
    llvm::LLVMContext& context, ir::KernelKind kind,
    const ir::TargetDescriptor& target, const ir::KernelOptions& options) {
  TC_ASSIGN_OR_RETURN(Def def, prepared_def(kind, options));
  return build_kir_module(context, def, target);
}

StatusOr<ir::FatBitcode> build_kir_fat_kernel(
    ir::KernelKind kind, std::span<const ir::TargetDescriptor> targets,
    const ir::KernelOptions& options) {
  if (targets.empty()) {
    return invalid_argument("build_kir_fat_kernel: no targets");
  }
  TC_ASSIGN_OR_RETURN(Def def, prepared_def(kind, options));
  ir::FatBitcode archive(ir::CodeRepr::kBitcode);
  for (const ir::TargetDescriptor& target : targets) {
    llvm::LLVMContext context;
    TC_ASSIGN_OR_RETURN(auto module, build_kir_module(context, def, target));
    TC_RETURN_IF_ERROR(
        archive.add_entry(target, ir::module_to_bitcode(*module)));
  }
  return archive;
}

StatusOr<ir::FatBitcode> build_default_kir_fat_kernel(
    ir::KernelKind kind, const ir::KernelOptions& options) {
  const auto targets = ir::default_fat_targets();
  return build_kir_fat_kernel(kind, targets, options);
}

}  // namespace tc::kir
