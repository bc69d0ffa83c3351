#include "ir/kernel_builder.hpp"

#include <llvm/IR/IRBuilder.h>
#include <llvm/IR/Verifier.h>

#include "ir/abi.hpp"
#include "ir/bitcode.hpp"
#include "workloads/shard_layout.hpp"

namespace tc::ir {

namespace {

/// Carries the in-progress module plus the declared hook functions.
struct Emitter {
  llvm::LLVMContext& ctx;
  llvm::Module& mod;
  llvm::IRBuilder<> b;
  bool hll_guards;
  bool chaser_tagged = false;

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

  Emitter(llvm::LLVMContext& c, llvm::Module& m, bool hll,
          bool tagged = false)
      : ctx(c), mod(m), b(c), hll_guards(hll), chaser_tagged(tagged) {
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

  // Hook declarations (see ir/abi.hpp for semantics).
  llvm::FunctionCallee hk_target() {
    return hook(abi::kHookTarget, i8p, {i8p});
  }
  llvm::FunctionCallee hk_node() { return hook(abi::kHookNode, i64, {i8p}); }
  llvm::FunctionCallee hk_peer_count() {
    return hook(abi::kHookPeerCount, i64, {i8p});
  }
  llvm::FunctionCallee hk_self_peer() {
    return hook(abi::kHookSelfPeer, i64, {i8p});
  }
  llvm::FunctionCallee hk_shard_base() {
    return hook(abi::kHookShardBase, i64p, {i8p});
  }
  llvm::FunctionCallee hk_shard_size() {
    return hook(abi::kHookShardSize, i64, {i8p});
  }
  llvm::FunctionCallee hk_forward() {
    return hook(abi::kHookForward, i32, {i8p, i64, i8p, i64});
  }
  llvm::FunctionCallee hk_inject() {
    return hook(abi::kHookInject, i32, {i8p, i64, i8p, i8p, i64});
  }
  llvm::FunctionCallee hk_reply() {
    return hook(abi::kHookReply, i32, {i8p, i8p, i64});
  }
  llvm::FunctionCallee hk_hll_guard() {
    return hook(abi::kHookHllGuard, void_ty, {i8p});
  }
  llvm::FunctionCallee hk_remote_write() {
    return hook(abi::kHookRemoteWrite, i32, {i8p, i64, i64, i8p, i64});
  }
  /// `double sin(double)` — resolved from the libm.so.6 dependency the
  /// archive declares, not emitted locally.
  llvm::FunctionCallee libm_sin() {
    return hook("sin", f64, {f64});
  }

  /// Emits the HLL dynamic-dispatch guard if this is an HLL-frontend build.
  void guard() {
    if (hll_guards) b.CreateCall(hk_hll_guard(), {arg_ctx});
  }

  /// Creates `void tc_main(i8* ctx, i8* payload, i64 size)` and positions
  /// the builder at its entry block.
  void begin_entry() {
    auto* fty =
        llvm::FunctionType::get(void_ty, {i8p, i8p, i64}, /*vararg=*/false);
    entry = llvm::Function::Create(fty, llvm::Function::ExternalLinkage,
                                   abi::kEntryName, &mod);
    entry->getArg(0)->setName("ctx");
    entry->getArg(1)->setName("payload");
    entry->getArg(2)->setName("payload_size");
    arg_ctx = entry->getArg(0);
    arg_payload = entry->getArg(1);
    arg_size = entry->getArg(2);
    b.SetInsertPoint(llvm::BasicBlock::Create(ctx, "entry", entry));
  }

  llvm::BasicBlock* block(const char* name) {
    return llvm::BasicBlock::Create(ctx, name, entry);
  }

  /// payload viewed as an i64 array; returns &payload64[index].
  llvm::Value* payload_u64_ptr(unsigned index) {
    auto* p64 = b.CreateBitCast(arg_payload, i64p, "pay64");
    return b.CreateConstInBoundsGEP1_64(i64, p64, index);
  }
  llvm::Value* load_payload_u64(unsigned index, const char* name) {
    return b.CreateLoad(i64, payload_u64_ptr(index), name);
  }
  void store_payload_u64(unsigned index, llvm::Value* value) {
    b.CreateStore(value, payload_u64_ptr(index));
  }
};

void emit_tsi(Emitter& e) {
  e.begin_entry();
  e.guard();
  auto* raw = e.b.CreateCall(e.hk_target(), {e.arg_ctx}, "target_raw");
  auto* counter = e.b.CreateBitCast(raw, e.i64p, "counter");
  auto* old_value = e.b.CreateLoad(e.i64, counter, "old");
  auto* new_value =
      e.b.CreateAdd(old_value, llvm::ConstantInt::get(e.i64, 1), "new");
  e.b.CreateStore(new_value, counter);
  e.b.CreateRetVoid();
}

void emit_payload_sum(Emitter& e) {
  e.begin_entry();
  auto* entry_bb = e.b.GetInsertBlock();
  auto* loop_bb = e.block("loop");
  auto* body_bb = e.block("body");
  auto* done_bb = e.block("done");

  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(loop_bb);
  auto* index = e.b.CreatePHI(e.i64, 2, "i");
  auto* sum = e.b.CreatePHI(e.i64, 2, "sum");
  index->addIncoming(llvm::ConstantInt::get(e.i64, 0), entry_bb);
  sum->addIncoming(llvm::ConstantInt::get(e.i64, 0), entry_bb);
  auto* more = e.b.CreateICmpULT(index, e.arg_size, "more");
  e.b.CreateCondBr(more, body_bb, done_bb);

  e.b.SetInsertPoint(body_bb);
  e.guard();
  auto* slot = e.b.CreateInBoundsGEP(e.i8, e.arg_payload, index, "slot");
  auto* byte = e.b.CreateLoad(e.i8, slot, "byte");
  auto* wide = e.b.CreateZExt(byte, e.i64, "wide");
  auto* next_sum = e.b.CreateAdd(sum, wide, "next_sum");
  auto* next_index =
      e.b.CreateAdd(index, llvm::ConstantInt::get(e.i64, 1), "next_i");
  index->addIncoming(next_index, e.b.GetInsertBlock());
  sum->addIncoming(next_sum, e.b.GetInsertBlock());
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(done_bb);
  auto* raw = e.b.CreateCall(e.hk_target(), {e.arg_ctx}, "target_raw");
  auto* out = e.b.CreateBitCast(raw, e.i64p, "out");
  e.b.CreateStore(sum, out);
  e.b.CreateRetVoid();
}

// Payload layout: [n:u64][a:f32][x:f32*n][y:f32*n]; writes a*x[i]+y[i] into
// the target buffer (f32[n]).
void emit_saxpy(Emitter& e) {
  e.begin_entry();
  auto* f32p = e.f32->getPointerTo();

  auto* n = e.load_payload_u64(0, "n");
  auto* a_ptr = e.b.CreateBitCast(
      e.b.CreateConstInBoundsGEP1_64(e.i8, e.arg_payload, 8), f32p, "a_ptr");
  auto* a = e.b.CreateLoad(e.f32, a_ptr, "a");
  auto* x_base = e.b.CreateBitCast(
      e.b.CreateConstInBoundsGEP1_64(e.i8, e.arg_payload, 12), f32p, "x");
  auto* x_bytes = e.b.CreateMul(n, llvm::ConstantInt::get(e.i64, 4));
  auto* y_raw = e.b.CreateInBoundsGEP(
      e.i8, e.b.CreateConstInBoundsGEP1_64(e.i8, e.arg_payload, 12), x_bytes);
  auto* y_base = e.b.CreateBitCast(y_raw, f32p, "y");
  auto* out_raw = e.b.CreateCall(e.hk_target(), {e.arg_ctx}, "target_raw");
  auto* out_base = e.b.CreateBitCast(out_raw, f32p, "out");

  auto* entry_bb = e.b.GetInsertBlock();
  auto* loop_bb = e.block("loop");
  auto* body_bb = e.block("body");
  auto* done_bb = e.block("done");
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(loop_bb);
  auto* index = e.b.CreatePHI(e.i64, 2, "i");
  index->addIncoming(llvm::ConstantInt::get(e.i64, 0), entry_bb);
  e.b.CreateCondBr(e.b.CreateICmpULT(index, n, "more"), body_bb, done_bb);

  e.b.SetInsertPoint(body_bb);
  e.guard();
  auto* xi = e.b.CreateLoad(
      e.f32, e.b.CreateInBoundsGEP(e.f32, x_base, index), "xi");
  auto* yi = e.b.CreateLoad(
      e.f32, e.b.CreateInBoundsGEP(e.f32, y_base, index), "yi");
  auto* axpy = e.b.CreateFAdd(e.b.CreateFMul(a, xi), yi, "axpy");
  e.b.CreateStore(axpy, e.b.CreateInBoundsGEP(e.f32, out_base, index));
  auto* next =
      e.b.CreateAdd(index, llvm::ConstantInt::get(e.i64, 1), "next_i");
  index->addIncoming(next, e.b.GetInsertBlock());
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(done_bb);
  e.b.CreateRetVoid();
}

// Payload layout: [n:u64][x:f64*n]; writes the sum into *(double*)target.
void emit_vec_reduce(Emitter& e) {
  e.begin_entry();
  auto* f64p = e.f64->getPointerTo();
  auto* n = e.load_payload_u64(0, "n");
  auto* x_base = e.b.CreateBitCast(
      e.b.CreateConstInBoundsGEP1_64(e.i8, e.arg_payload, 8), f64p, "x");

  auto* entry_bb = e.b.GetInsertBlock();
  auto* loop_bb = e.block("loop");
  auto* body_bb = e.block("body");
  auto* done_bb = e.block("done");
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(loop_bb);
  auto* index = e.b.CreatePHI(e.i64, 2, "i");
  auto* acc = e.b.CreatePHI(e.f64, 2, "acc");
  index->addIncoming(llvm::ConstantInt::get(e.i64, 0), entry_bb);
  acc->addIncoming(llvm::ConstantFP::get(e.f64, 0.0), entry_bb);
  e.b.CreateCondBr(e.b.CreateICmpULT(index, n, "more"), body_bb, done_bb);

  e.b.SetInsertPoint(body_bb);
  e.guard();
  auto* xi = e.b.CreateLoad(
      e.f64, e.b.CreateInBoundsGEP(e.f64, x_base, index), "xi");
  auto* next_acc = e.b.CreateFAdd(acc, xi, "next_acc");
  auto* next =
      e.b.CreateAdd(index, llvm::ConstantInt::get(e.i64, 1), "next_i");
  index->addIncoming(next, e.b.GetInsertBlock());
  acc->addIncoming(next_acc, e.b.GetInsertBlock());
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(done_bb);
  auto* raw = e.b.CreateCall(e.hk_target(), {e.arg_ctx}, "target_raw");
  e.b.CreateStore(acc, e.b.CreateBitCast(raw, f64p, "out"));
  e.b.CreateRetVoid();
}

// The DAPC chaser (paper §IV-C). Payload: [addr:u64][depth:u64] — or, for
// the *tagged* variant (e.chaser_tagged; the async-window protocol),
// [addr:u64][depth:u64][tag:u64]. Walks locally owned entries recursively
// (a loop after the tail-call optimization the paper's C implementation
// also relies on); forwards itself to the owning server when the next
// entry is remote — the tag rides along in the untouched payload tail;
// replies with the final value (classic) or [value][tag] (tagged) when
// depth reaches zero. Two build-time variants, not a runtime payload-size
// dispatch: the classic instruction stream must stay exactly the paper's.
void emit_chaser(Emitter& e) {
  e.begin_entry();
  auto* shard_size =
      e.b.CreateCall(e.hk_shard_size(), {e.arg_ctx}, "shard_size");
  auto* self = e.b.CreateCall(e.hk_self_peer(), {e.arg_ctx}, "self");
  auto* base = e.b.CreateCall(e.hk_shard_base(), {e.arg_ctx}, "base");
  auto* addr0 = e.load_payload_u64(0, "addr0");
  auto* depth0 = e.load_payload_u64(1, "depth0");
  auto* entry_bb = e.b.GetInsertBlock();

  auto* loop_bb = e.block("chase");
  auto* local_bb = e.block("local");
  auto* forward_bb = e.block("forward");
  auto* step_bb = e.block("step");
  auto* finish_bb = e.block("finish");
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(loop_bb);
  auto* addr = e.b.CreatePHI(e.i64, 2, "addr");
  auto* depth = e.b.CreatePHI(e.i64, 2, "depth");
  addr->addIncoming(addr0, entry_bb);
  depth->addIncoming(depth0, entry_bb);
  auto* owner = e.b.CreateUDiv(addr, shard_size, "owner");
  auto* is_local = e.b.CreateICmpEQ(owner, self, "is_local");
  e.b.CreateCondBr(is_local, local_bb, forward_bb);

  e.b.SetInsertPoint(forward_bb);
  // Refresh the in-place payload and ship ourselves to the owning server.
  e.store_payload_u64(0, addr);
  e.store_payload_u64(1, depth);
  e.b.CreateCall(e.hk_forward(),
                 {e.arg_ctx, owner, e.arg_payload, e.arg_size});
  e.b.CreateRetVoid();

  e.b.SetInsertPoint(local_bb);
  e.guard();
  auto* slot = e.b.CreateURem(addr, shard_size, "slot");
  auto* value = e.b.CreateLoad(
      e.i64, e.b.CreateInBoundsGEP(e.i64, base, slot), "value");
  auto* next_depth =
      e.b.CreateSub(depth, llvm::ConstantInt::get(e.i64, 1), "next_depth");
  auto* exhausted = e.b.CreateICmpEQ(
      next_depth, llvm::ConstantInt::get(e.i64, 0), "exhausted");
  e.b.CreateCondBr(exhausted, finish_bb, step_bb);

  e.b.SetInsertPoint(step_bb);
  addr->addIncoming(value, step_bb);
  depth->addIncoming(next_depth, step_bb);
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(finish_bb);
  // ReturnResult: reply to the chain origin with the final value — plus
  // the routing tag for the tagged (async-window) variant.
  e.store_payload_u64(0, value);
  if (e.chaser_tagged) {
    auto* tag = e.load_payload_u64(2, "tag");
    e.store_payload_u64(1, tag);
    e.b.CreateCall(e.hk_reply(), {e.arg_ctx, e.arg_payload,
                                  llvm::ConstantInt::get(e.i64, 16)});
  } else {
    e.b.CreateCall(e.hk_reply(), {e.arg_ctx, e.arg_payload,
                                  llvm::ConstantInt::get(e.i64, 8)});
  }
  e.b.CreateRetVoid();
}

// Payload: [ttl:u64][hops:u64]. Forwards itself around the peer ring until
// ttl hits zero, then replies with the hop count.
void emit_ring_hop(Emitter& e) {
  e.begin_entry();
  auto* ttl = e.load_payload_u64(0, "ttl");
  auto* hops = e.load_payload_u64(1, "hops");
  auto* done_bb = e.block("done");
  auto* hop_bb = e.block("hop");
  auto* is_done =
      e.b.CreateICmpEQ(ttl, llvm::ConstantInt::get(e.i64, 0), "is_done");
  e.b.CreateCondBr(is_done, done_bb, hop_bb);

  e.b.SetInsertPoint(hop_bb);
  e.guard();
  e.store_payload_u64(
      0, e.b.CreateSub(ttl, llvm::ConstantInt::get(e.i64, 1)));
  e.store_payload_u64(
      1, e.b.CreateAdd(hops, llvm::ConstantInt::get(e.i64, 1)));
  auto* self = e.b.CreateCall(e.hk_self_peer(), {e.arg_ctx}, "self");
  auto* count = e.b.CreateCall(e.hk_peer_count(), {e.arg_ctx}, "count");
  auto* next = e.b.CreateURem(
      e.b.CreateAdd(self, llvm::ConstantInt::get(e.i64, 1)), count, "next");
  e.b.CreateCall(e.hk_forward(),
                 {e.arg_ctx, next, e.arg_payload, e.arg_size});
  e.b.CreateRetVoid();

  e.b.SetInsertPoint(done_bb);
  e.b.CreateCall(e.hk_reply(),
                 {e.arg_ctx, e.arg_payload,
                  llvm::ConstantInt::get(e.i64, 16)});
  e.b.CreateRetVoid();
}

// Payload: [peer:u64][arg:u64][name:NUL-terminated]. Injects the ifunc
// registered locally under `name` to `peer` with an 8-byte payload `arg`.
void emit_spawner(Emitter& e) {
  e.begin_entry();
  e.guard();
  auto* peer = e.load_payload_u64(0, "peer");
  auto* arg_ptr = e.payload_u64_ptr(1);
  auto* name = e.b.CreateConstInBoundsGEP1_64(e.i8, e.arg_payload, 16, "name");
  e.b.CreateCall(e.hk_inject(),
                 {e.arg_ctx, peer, name,
                  e.b.CreateBitCast(arg_ptr, e.i8p),
                  llvm::ConstantInt::get(e.i64, 8)});
  e.b.CreateRetVoid();
}

// Payload: [n:u64][x:f64*n]; computes sum(sin(x[i])) via libm into
// *(double*)target. Exercises remote dynamic linking against a shared
// library declared in the deps manifest.
void emit_sin_sum(Emitter& e) {
  e.begin_entry();
  auto* f64p = e.f64->getPointerTo();
  auto* n = e.load_payload_u64(0, "n");
  auto* x_base = e.b.CreateBitCast(
      e.b.CreateConstInBoundsGEP1_64(e.i8, e.arg_payload, 8), f64p, "x");

  auto* entry_bb = e.b.GetInsertBlock();
  auto* loop_bb = e.block("loop");
  auto* body_bb = e.block("body");
  auto* done_bb = e.block("done");
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(loop_bb);
  auto* index = e.b.CreatePHI(e.i64, 2, "i");
  auto* acc = e.b.CreatePHI(e.f64, 2, "acc");
  index->addIncoming(llvm::ConstantInt::get(e.i64, 0), entry_bb);
  acc->addIncoming(llvm::ConstantFP::get(e.f64, 0.0), entry_bb);
  e.b.CreateCondBr(e.b.CreateICmpULT(index, n, "more"), body_bb, done_bb);

  e.b.SetInsertPoint(body_bb);
  e.guard();
  auto* xi = e.b.CreateLoad(
      e.f64, e.b.CreateInBoundsGEP(e.f64, x_base, index), "xi");
  auto* sin_xi = e.b.CreateCall(e.libm_sin(), {xi}, "sin_xi");
  auto* next_acc = e.b.CreateFAdd(acc, sin_xi, "next_acc");
  auto* next =
      e.b.CreateAdd(index, llvm::ConstantInt::get(e.i64, 1), "next_i");
  index->addIncoming(next, e.b.GetInsertBlock());
  acc->addIncoming(next_acc, e.b.GetInsertBlock());
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(done_bb);
  auto* raw = e.b.CreateCall(e.hk_target(), {e.arg_ctx}, "target_raw");
  e.b.CreateStore(acc, e.b.CreateBitCast(raw, f64p, "out"));
  e.b.CreateRetVoid();
}

// Payload: [peer:u64][offset:u64][value:u64]. Writes `value` into the
// exposed segment of `peer` at byte `offset` with a one-sided RDMA PUT
// issued from inside the injected code, then replies with the hook status.
void emit_remote_store(Emitter& e) {
  e.begin_entry();
  e.guard();
  auto* peer = e.load_payload_u64(0, "peer");
  auto* offset = e.load_payload_u64(1, "offset");
  auto* value_ptr = e.b.CreateBitCast(e.payload_u64_ptr(2), e.i8p, "value");
  auto* rc = e.b.CreateCall(
      e.hk_remote_write(),
      {e.arg_ctx, peer, offset, value_ptr, llvm::ConstantInt::get(e.i64, 8)},
      "rc");
  auto* rc_wide = e.b.CreateSExt(rc, e.i64, "rc_wide");
  e.store_payload_u64(0, rc_wide);
  e.b.CreateCall(e.hk_reply(),
                 {e.arg_ctx, e.arg_payload, llvm::ConstantInt::get(e.i64, 8)});
  e.b.CreateRetVoid();
}

// Welford's online algorithm over payload doubles [n:u64][x:f64*n].
// target = double[3] {count, mean, M2}; updates in place so repeated
// invocations stream (the "online" part).
void emit_stats_summary(Emitter& e) {
  e.begin_entry();
  auto* f64p = e.f64->getPointerTo();
  auto* n = e.load_payload_u64(0, "n");
  auto* x_base = e.b.CreateBitCast(
      e.b.CreateConstInBoundsGEP1_64(e.i8, e.arg_payload, 8), f64p, "x");
  auto* raw = e.b.CreateCall(e.hk_target(), {e.arg_ctx}, "target_raw");
  auto* state = e.b.CreateBitCast(raw, f64p, "state");
  auto* count_ptr = state;
  auto* mean_ptr = e.b.CreateConstInBoundsGEP1_64(e.f64, state, 1);
  auto* m2_ptr = e.b.CreateConstInBoundsGEP1_64(e.f64, state, 2);
  auto* count0 = e.b.CreateLoad(e.f64, count_ptr, "count0");
  auto* mean0 = e.b.CreateLoad(e.f64, mean_ptr, "mean0");
  auto* m20 = e.b.CreateLoad(e.f64, m2_ptr, "m20");
  auto* entry_bb = e.b.GetInsertBlock();

  auto* loop_bb = e.block("loop");
  auto* body_bb = e.block("body");
  auto* done_bb = e.block("done");
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(loop_bb);
  auto* index = e.b.CreatePHI(e.i64, 2, "i");
  auto* count = e.b.CreatePHI(e.f64, 2, "count");
  auto* mean = e.b.CreatePHI(e.f64, 2, "mean");
  auto* m2 = e.b.CreatePHI(e.f64, 2, "m2");
  index->addIncoming(llvm::ConstantInt::get(e.i64, 0), entry_bb);
  count->addIncoming(count0, entry_bb);
  mean->addIncoming(mean0, entry_bb);
  m2->addIncoming(m20, entry_bb);
  e.b.CreateCondBr(e.b.CreateICmpULT(index, n, "more"), body_bb, done_bb);

  e.b.SetInsertPoint(body_bb);
  e.guard();
  auto* xi = e.b.CreateLoad(
      e.f64, e.b.CreateInBoundsGEP(e.f64, x_base, index), "xi");
  // count' = count + 1; delta = x - mean; mean' = mean + delta / count';
  // M2' = M2 + delta * (x - mean').
  auto* count1 = e.b.CreateFAdd(count, llvm::ConstantFP::get(e.f64, 1.0));
  auto* delta = e.b.CreateFSub(xi, mean, "delta");
  auto* mean1 =
      e.b.CreateFAdd(mean, e.b.CreateFDiv(delta, count1), "mean1");
  auto* delta2 = e.b.CreateFSub(xi, mean1, "delta2");
  auto* m21 = e.b.CreateFAdd(m2, e.b.CreateFMul(delta, delta2), "m21");
  auto* next =
      e.b.CreateAdd(index, llvm::ConstantInt::get(e.i64, 1), "next_i");
  index->addIncoming(next, e.b.GetInsertBlock());
  count->addIncoming(count1, e.b.GetInsertBlock());
  mean->addIncoming(mean1, e.b.GetInsertBlock());
  m2->addIncoming(m21, e.b.GetInsertBlock());
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(done_bb);
  e.b.CreateStore(count, count_ptr);
  e.b.CreateStore(mean, mean_ptr);
  e.b.CreateStore(m2, m2_ptr);
  e.b.CreateRetVoid();
}

// Payload: [base:u64][span:u64][value:u64]. Covers peers [base, base+span):
// delivers `value` locally (target = u64[2] {value_slot, arrival_count}),
// and recursively forwards itself to the midpoint of the upper half until
// every peer in the range is covered — a binomial broadcast tree.
void emit_tree_broadcast(Emitter& e) {
  e.begin_entry();
  auto* base0 = e.load_payload_u64(0, "base0");
  auto* span0 = e.load_payload_u64(1, "span0");
  auto* value = e.load_payload_u64(2, "value");
  auto* entry_bb = e.b.GetInsertBlock();

  auto* loop_bb = e.block("split");
  auto* fan_bb = e.block("fan");
  auto* done_bb = e.block("done");
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(loop_bb);
  auto* base = e.b.CreatePHI(e.i64, 2, "base");
  auto* span = e.b.CreatePHI(e.i64, 2, "span");
  base->addIncoming(base0, entry_bb);
  span->addIncoming(span0, entry_bb);
  auto* leaf = e.b.CreateICmpULE(
      span, llvm::ConstantInt::get(e.i64, 1), "leaf");
  e.b.CreateCondBr(leaf, done_bb, fan_bb);

  e.b.SetInsertPoint(fan_bb);
  e.guard();
  // mid = (span + 1) / 2: this node keeps [base, base+mid), delegates
  // [base+mid, base+span) to the peer at base+mid.
  auto* mid = e.b.CreateUDiv(
      e.b.CreateAdd(span, llvm::ConstantInt::get(e.i64, 1)),
      llvm::ConstantInt::get(e.i64, 2), "mid");
  auto* right_base = e.b.CreateAdd(base, mid, "right_base");
  auto* right_span = e.b.CreateSub(span, mid, "right_span");
  e.store_payload_u64(0, right_base);
  e.store_payload_u64(1, right_span);
  e.b.CreateCall(e.hk_forward(),
                 {e.arg_ctx, right_base, e.arg_payload, e.arg_size});
  base->addIncoming(base, fan_bb);
  span->addIncoming(mid, fan_bb);
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(done_bb);
  auto* raw = e.b.CreateCall(e.hk_target(), {e.arg_ctx}, "target_raw");
  auto* slot = e.b.CreateBitCast(raw, e.i64p, "slot");
  // Release-ordered slot stores: on the real-threads backend this node's
  // progress thread publishes into a slot the initiator polls with acquire
  // loads; the arrival count must not become visible before the value.
  auto* value_store = e.b.CreateStore(value, slot);
  value_store->setAtomic(llvm::AtomicOrdering::Release);
  value_store->setAlignment(llvm::Align(8));
  auto* count_ptr = e.b.CreateConstInBoundsGEP1_64(e.i64, slot, 1);
  auto* count = e.b.CreateLoad(e.i64, count_ptr, "count");
  auto* count_store = e.b.CreateStore(
      e.b.CreateAdd(count, llvm::ConstantInt::get(e.i64, 1)), count_ptr);
  count_store->setAtomic(llvm::AtomicOrdering::Release);
  count_store->setAlignment(llvm::Align(8));
  e.b.CreateRetVoid();
}

// Collective-suite broadcast. Payload: [base][span][value][lane][root],
// all u64; base/span are tree positions relative to the root server, so
// the peer owning a position is (position + root) % peer_count. The target
// is an array of 64-byte collective cells indexed by lane ({value,
// arrivals} at words 0/1); each leaf delivery acks [0][lane][value] to the
// chain origin, which is how the initiator detects completion on the
// wall-clock backend without polling remote memory.
void emit_collective_broadcast(Emitter& e) {
  e.begin_entry();
  auto* base0 = e.load_payload_u64(0, "base0");
  auto* span0 = e.load_payload_u64(1, "span0");
  auto* count = e.b.CreateCall(e.hk_peer_count(), {e.arg_ctx}, "count");
  auto* entry_bb = e.b.GetInsertBlock();

  auto* loop_bb = e.block("split");
  auto* fan_bb = e.block("fan");
  auto* done_bb = e.block("done");
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(loop_bb);
  auto* base = e.b.CreatePHI(e.i64, 2, "base");
  auto* span = e.b.CreatePHI(e.i64, 2, "span");
  base->addIncoming(base0, entry_bb);
  span->addIncoming(span0, entry_bb);
  auto* leaf = e.b.CreateICmpULE(
      span, llvm::ConstantInt::get(e.i64, 1), "leaf");
  e.b.CreateCondBr(leaf, done_bb, fan_bb);

  e.b.SetInsertPoint(fan_bb);
  e.guard();
  auto* mid = e.b.CreateUDiv(
      e.b.CreateAdd(span, llvm::ConstantInt::get(e.i64, 1)),
      llvm::ConstantInt::get(e.i64, 2), "mid");
  auto* right_base = e.b.CreateAdd(base, mid, "right_base");
  auto* right_span = e.b.CreateSub(span, mid, "right_span");
  e.store_payload_u64(0, right_base);
  e.store_payload_u64(1, right_span);
  auto* root = e.load_payload_u64(4, "root");
  auto* dest = e.b.CreateURem(
      e.b.CreateAdd(right_base, root), count, "dest");
  e.b.CreateCall(e.hk_forward(),
                 {e.arg_ctx, dest, e.arg_payload, e.arg_size});
  base->addIncoming(base, fan_bb);
  span->addIncoming(mid, fan_bb);
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(done_bb);
  auto* raw = e.b.CreateCall(e.hk_target(), {e.arg_ctx}, "target_raw");
  auto* lane = e.load_payload_u64(3, "lane");
  auto* cell_off = e.b.CreateMul(
      lane, llvm::ConstantInt::get(e.i64, workloads::kLaneCellBytes),
      "cell_off");
  auto* cell = e.b.CreateBitCast(
      e.b.CreateInBoundsGEP(e.i8, raw, cell_off), e.i64p, "cell");
  auto* value = e.load_payload_u64(2, "value");
  // Release-ordered like emit_tree_broadcast: cells may be read by other
  // threads (the value store must be visible before the arrival count).
  auto* value_store = e.b.CreateStore(value, cell);
  value_store->setAtomic(llvm::AtomicOrdering::Release);
  value_store->setAlignment(llvm::Align(8));
  auto* count_ptr = e.b.CreateConstInBoundsGEP1_64(e.i64, cell, 1);
  auto* arrivals = e.b.CreateLoad(e.i64, count_ptr, "arrivals");
  auto* count_store = e.b.CreateStore(
      e.b.CreateAdd(arrivals, llvm::ConstantInt::get(e.i64, 1)), count_ptr);
  count_store->setAtomic(llvm::AtomicOrdering::Release);
  count_store->setAlignment(llvm::Align(8));
  // Ack to origin: [kind=0][lane][value].
  e.store_payload_u64(0, llvm::ConstantInt::get(e.i64, 0));
  e.store_payload_u64(1, lane);
  e.store_payload_u64(2, value);
  e.b.CreateCall(e.hk_reply(), {e.arg_ctx, e.arg_payload,
                                llvm::ConstantInt::get(e.i64, 24)});
  e.b.CreateRetVoid();
}

// Collective-suite reduction. One kernel, two message kinds (payload word
// 0): fan-out [0][base][span][parent][lane][op][root] descends the halving
// tree counting delegated children; contribute [1][lane][value] climbs the
// tree folding partials (0 sum, 1 min, 2 max, 3 count) into the per-lane
// cell {contrib@16, acc@24, expected@32, arrived@40, parent@48, op@56}
// until the root (parent == ~0) replies [1][lane][acc] to the origin.
void emit_collective_reduce(Emitter& e) {
  e.begin_entry();
  auto* kind = e.load_payload_u64(0, "kind");
  auto* fanout_bb = e.block("fanout");
  auto* contrib_bb = e.block("contribute");
  e.b.CreateCondBr(
      e.b.CreateICmpEQ(kind, llvm::ConstantInt::get(e.i64, 0), "is_fanout"),
      fanout_bb, contrib_bb);

  auto cell_for_lane = [&e](llvm::Value* lane) {
    auto* raw = e.b.CreateCall(e.hk_target(), {e.arg_ctx}, "target_raw");
    auto* off = e.b.CreateMul(
        lane, llvm::ConstantInt::get(e.i64, workloads::kLaneCellBytes),
        "cell_off");
    return e.b.CreateBitCast(
        e.b.CreateInBoundsGEP(e.i8, raw, off), e.i64p, "cell");
  };
  auto cell_word = [&e](llvm::Value* cell, unsigned word) {
    return e.b.CreateConstInBoundsGEP1_64(e.i64, cell, word);
  };

  // --- fan-out ---------------------------------------------------------------
  e.b.SetInsertPoint(fanout_bb);
  auto* base0 = e.load_payload_u64(1, "base0");
  auto* span0 = e.load_payload_u64(2, "span0");
  auto* parent = e.load_payload_u64(3, "parent");
  auto* self = e.b.CreateCall(e.hk_self_peer(), {e.arg_ctx}, "self");
  auto* count = e.b.CreateCall(e.hk_peer_count(), {e.arg_ctx}, "count");

  auto* floop_bb = e.block("fan_split");
  auto* fsplit_bb = e.block("fan_delegate");
  auto* ffin_bb = e.block("fan_fin");
  e.b.CreateBr(floop_bb);

  e.b.SetInsertPoint(floop_bb);
  auto* base = e.b.CreatePHI(e.i64, 2, "base");
  auto* span = e.b.CreatePHI(e.i64, 2, "span");
  auto* children = e.b.CreatePHI(e.i64, 2, "children");
  base->addIncoming(base0, fanout_bb);
  span->addIncoming(span0, fanout_bb);
  children->addIncoming(llvm::ConstantInt::get(e.i64, 0), fanout_bb);
  auto* at_leaf = e.b.CreateICmpULE(
      span, llvm::ConstantInt::get(e.i64, 1), "at_leaf");
  e.b.CreateCondBr(at_leaf, ffin_bb, fsplit_bb);

  e.b.SetInsertPoint(fsplit_bb);
  e.guard();
  auto* mid = e.b.CreateUDiv(
      e.b.CreateAdd(span, llvm::ConstantInt::get(e.i64, 1)),
      llvm::ConstantInt::get(e.i64, 2), "mid");
  auto* right_base = e.b.CreateAdd(base, mid, "right_base");
  auto* right_span = e.b.CreateSub(span, mid, "right_span");
  e.store_payload_u64(1, right_base);
  e.store_payload_u64(2, right_span);
  e.store_payload_u64(3, self);  // the child's parent is this node
  auto* root = e.load_payload_u64(6, "root");
  auto* dest = e.b.CreateURem(
      e.b.CreateAdd(right_base, root), count, "dest");
  e.b.CreateCall(e.hk_forward(),
                 {e.arg_ctx, dest, e.arg_payload, e.arg_size});
  base->addIncoming(base, fsplit_bb);
  span->addIncoming(mid, fsplit_bb);
  children->addIncoming(
      e.b.CreateAdd(children, llvm::ConstantInt::get(e.i64, 1)), fsplit_bb);
  e.b.CreateBr(floop_bb);

  e.b.SetInsertPoint(ffin_bb);
  auto* lane = e.load_payload_u64(4, "lane");
  auto* cell = cell_for_lane(lane);
  auto* op = e.load_payload_u64(5, "op");
  auto* contrib = e.b.CreateLoad(e.i64, cell_word(cell, 2), "contrib");
  // Own contribution: 1 for op kCount (3), the cell's contrib otherwise.
  auto* own = e.b.CreateSelect(
      e.b.CreateICmpEQ(op, llvm::ConstantInt::get(e.i64, 3), "is_count"),
      llvm::ConstantInt::get(e.i64, 1), contrib, "own");
  auto* internal_bb = e.block("fan_internal");
  auto* leaf_bb = e.block("fan_leaf");
  e.b.CreateCondBr(
      e.b.CreateICmpEQ(children, llvm::ConstantInt::get(e.i64, 0)),
      leaf_bb, internal_bb);

  e.b.SetInsertPoint(internal_bb);
  e.b.CreateStore(own, cell_word(cell, 3));       // acc
  e.b.CreateStore(children, cell_word(cell, 4));  // expected
  e.b.CreateStore(llvm::ConstantInt::get(e.i64, 0), cell_word(cell, 5));
  e.b.CreateStore(parent, cell_word(cell, 6));
  e.b.CreateStore(op, cell_word(cell, 7));
  e.b.CreateRetVoid();

  e.b.SetInsertPoint(leaf_bb);
  // Childless: contribute [1][lane][own] to the parent — or reply to the
  // origin when this leaf is also the root (N == 1).
  e.store_payload_u64(0, llvm::ConstantInt::get(e.i64, 1));
  e.store_payload_u64(1, lane);
  e.store_payload_u64(2, own);
  auto* lsend_bb = e.block("fan_leaf_send");
  auto* lreply_bb = e.block("fan_leaf_reply");
  auto* is_root = e.b.CreateICmpEQ(
      parent, llvm::ConstantInt::get(e.i64, ~0ull), "is_root");
  e.b.CreateCondBr(is_root, lreply_bb, lsend_bb);
  e.b.SetInsertPoint(lsend_bb);
  e.b.CreateCall(e.hk_forward(), {e.arg_ctx, parent, e.arg_payload,
                                  llvm::ConstantInt::get(e.i64, 24)});
  e.b.CreateRetVoid();
  e.b.SetInsertPoint(lreply_bb);
  e.b.CreateCall(e.hk_reply(), {e.arg_ctx, e.arg_payload,
                                llvm::ConstantInt::get(e.i64, 24)});
  e.b.CreateRetVoid();

  // --- contribute ------------------------------------------------------------
  e.b.SetInsertPoint(contrib_bb);
  auto* clane = e.load_payload_u64(1, "clane");
  auto* ccell = cell_for_lane(clane);
  e.guard();
  auto* v = e.load_payload_u64(2, "v");
  auto* cop = e.b.CreateLoad(e.i64, cell_word(ccell, 7), "cop");
  auto* acc = e.b.CreateLoad(e.i64, cell_word(ccell, 3), "acc");
  auto* lt = e.b.CreateICmpULT(acc, v, "acc_lt_v");
  auto* minv = e.b.CreateSelect(lt, acc, v, "minv");
  auto* maxv = e.b.CreateSelect(lt, v, acc, "maxv");
  auto* sum = e.b.CreateAdd(acc, v, "sum");
  auto* folded = e.b.CreateSelect(
      e.b.CreateICmpEQ(cop, llvm::ConstantInt::get(e.i64, 1)), minv,
      e.b.CreateSelect(
          e.b.CreateICmpEQ(cop, llvm::ConstantInt::get(e.i64, 2)), maxv,
          sum),
      "folded");
  e.b.CreateStore(folded, cell_word(ccell, 3));
  auto* arrived = e.b.CreateAdd(
      e.b.CreateLoad(e.i64, cell_word(ccell, 5), "arrived0"),
      llvm::ConstantInt::get(e.i64, 1), "arrived");
  e.b.CreateStore(arrived, cell_word(ccell, 5));
  auto* expected = e.b.CreateLoad(e.i64, cell_word(ccell, 4), "expected");
  auto* climb_bb = e.block("climb");
  auto* quiet_bb = e.block("quiet");
  e.b.CreateCondBr(e.b.CreateICmpEQ(arrived, expected, "complete"),
                   climb_bb, quiet_bb);

  e.b.SetInsertPoint(climb_bb);
  e.store_payload_u64(2, folded);
  auto* cparent = e.b.CreateLoad(e.i64, cell_word(ccell, 6), "cparent");
  auto* csend_bb = e.block("climb_send");
  auto* creply_bb = e.block("climb_reply");
  e.b.CreateCondBr(
      e.b.CreateICmpEQ(cparent, llvm::ConstantInt::get(e.i64, ~0ull)),
      creply_bb, csend_bb);
  e.b.SetInsertPoint(csend_bb);
  e.b.CreateCall(e.hk_forward(), {e.arg_ctx, cparent, e.arg_payload,
                                  llvm::ConstantInt::get(e.i64, 24)});
  e.b.CreateRetVoid();
  e.b.SetInsertPoint(creply_bb);
  e.b.CreateCall(e.hk_reply(), {e.arg_ctx, e.arg_payload,
                                llvm::ConstantInt::get(e.i64, 24)});
  e.b.CreateRetVoid();

  e.b.SetInsertPoint(quiet_bb);
  e.b.CreateRetVoid();
}

// Remote hash-table lookup (the workload suite's hash-probe scenario).
// Payload: [key:u64][slot:u64][probes_left:u64][tag:u64]. The table is an
// open-addressing array of {key, value} bucket pairs sharded bucket-major
// across servers (shard_size words / 2 buckets each); slot is the global
// bucket index of the current probe. The kernel walks the linear-probe
// collision chain through the local shard and self-forwards to the owning
// server when the probe sequence crosses a shard boundary; it replies
// [value][tag] on a key match and [~0][tag] on an empty bucket or probe
// exhaustion (the miss sentinel).
void emit_hash_probe(Emitter& e) {
  e.begin_entry();
  auto* shard_words =
      e.b.CreateCall(e.hk_shard_size(), {e.arg_ctx}, "shard_words");
  auto* self = e.b.CreateCall(e.hk_self_peer(), {e.arg_ctx}, "self");
  auto* base = e.b.CreateCall(e.hk_shard_base(), {e.arg_ctx}, "base");
  auto* count = e.b.CreateCall(e.hk_peer_count(), {e.arg_ctx}, "count");
  auto* bps = e.b.CreateUDiv(
      shard_words,
      llvm::ConstantInt::get(e.i64, workloads::kHashBucketWords),
      "buckets_per_shard");
  auto* cap = e.b.CreateMul(bps, count, "capacity");
  auto* key = e.load_payload_u64(0, "key");
  auto* slot0 = e.load_payload_u64(1, "slot0");
  auto* probes0 = e.load_payload_u64(2, "probes0");
  auto* entry_bb = e.b.GetInsertBlock();

  auto* loop_bb = e.block("probe");
  auto* forward_bb = e.block("forward");
  auto* local_bb = e.block("local");
  auto* hit_bb = e.block("hit");
  auto* check_empty_bb = e.block("check_empty");
  auto* miss_bb = e.block("miss");
  auto* step_bb = e.block("step");
  auto* advance_bb = e.block("advance");
  e.b.CreateBr(loop_bb);

  e.b.SetInsertPoint(loop_bb);
  auto* slot = e.b.CreatePHI(e.i64, 2, "slot");
  auto* probes = e.b.CreatePHI(e.i64, 2, "probes");
  slot->addIncoming(slot0, entry_bb);
  probes->addIncoming(probes0, entry_bb);
  auto* owner = e.b.CreateUDiv(slot, bps, "owner");
  auto* is_local = e.b.CreateICmpEQ(owner, self, "is_local");
  e.b.CreateCondBr(is_local, local_bb, forward_bb);

  e.b.SetInsertPoint(forward_bb);
  e.store_payload_u64(1, slot);
  e.store_payload_u64(2, probes);
  e.b.CreateCall(e.hk_forward(),
                 {e.arg_ctx, owner, e.arg_payload, e.arg_size});
  e.b.CreateRetVoid();

  e.b.SetInsertPoint(local_bb);
  e.guard();
  auto* local = e.b.CreateURem(slot, bps, "local");
  auto* pair = e.b.CreateMul(
      local, llvm::ConstantInt::get(e.i64, workloads::kHashBucketWords));
  auto* k_ptr = e.b.CreateInBoundsGEP(e.i64, base, pair, "k_ptr");
  auto* stored = e.b.CreateLoad(e.i64, k_ptr, "stored");
  e.b.CreateCondBr(e.b.CreateICmpEQ(stored, key, "is_hit"), hit_bb,
                   check_empty_bb);

  e.b.SetInsertPoint(hit_bb);
  auto* v_ptr = e.b.CreateConstInBoundsGEP1_64(e.i64, k_ptr, 1, "v_ptr");
  auto* value = e.b.CreateLoad(e.i64, v_ptr, "value");
  e.store_payload_u64(0, value);
  e.store_payload_u64(1, e.load_payload_u64(3, "tag"));
  e.b.CreateCall(e.hk_reply(), {e.arg_ctx, e.arg_payload,
                                llvm::ConstantInt::get(e.i64, 16)});
  e.b.CreateRetVoid();

  e.b.SetInsertPoint(check_empty_bb);
  e.b.CreateCondBr(
      e.b.CreateICmpEQ(
          stored, llvm::ConstantInt::get(e.i64, workloads::kHashEmptyKey),
          "is_empty"),
      miss_bb, step_bb);

  e.b.SetInsertPoint(miss_bb);
  e.store_payload_u64(0, llvm::ConstantInt::get(e.i64, workloads::kMiss));
  e.store_payload_u64(1, e.load_payload_u64(3, "miss_tag"));
  e.b.CreateCall(e.hk_reply(), {e.arg_ctx, e.arg_payload,
                                llvm::ConstantInt::get(e.i64, 16)});
  e.b.CreateRetVoid();

  e.b.SetInsertPoint(step_bb);
  auto* probes1 =
      e.b.CreateSub(probes, llvm::ConstantInt::get(e.i64, 1), "probes1");
  e.b.CreateCondBr(
      e.b.CreateICmpEQ(probes1, llvm::ConstantInt::get(e.i64, 0),
                       "exhausted"),
      miss_bb, advance_bb);

  e.b.SetInsertPoint(advance_bb);
  auto* slot1 = e.b.CreateURem(
      e.b.CreateAdd(slot, llvm::ConstantInt::get(e.i64, 1)), cap, "slot1");
  slot->addIncoming(slot1, advance_bb);
  probes->addIncoming(probes1, advance_bb);
  e.b.CreateBr(loop_bb);
}

// Ordered search over a sharded sorted index (the workload suite's
// skip-list scenario). Payload: [target:u64][node:u64][level:u64][tag:u64].
// Node records are 10 words — [key][value][(next_id, next_key) x 4 levels]
// — sharded rank-major (shard_size words / 10 nodes each). Carrying the
// successor's *key* alongside each down-link makes the comparison-driven
// branch locally decidable, so the kernel descends in-shard hops in a tight
// loop and forwards itself only when a taken link crosses a shard boundary.
// Replies [value][tag] when the landing node's key matches, [~0][tag]
// otherwise.
void emit_ordered_search(Emitter& e) {
  e.begin_entry();
  auto* shard_words =
      e.b.CreateCall(e.hk_shard_size(), {e.arg_ctx}, "shard_words");
  auto* self = e.b.CreateCall(e.hk_self_peer(), {e.arg_ctx}, "self");
  auto* base = e.b.CreateCall(e.hk_shard_base(), {e.arg_ctx}, "base");
  auto* nps = e.b.CreateUDiv(
      shard_words,
      llvm::ConstantInt::get(e.i64, workloads::kIndexRecordWords),
      "nodes_per_shard");
  auto* target = e.load_payload_u64(0, "target");
  auto* node0 = e.load_payload_u64(1, "node0");
  auto* level0 = e.load_payload_u64(2, "level0");
  auto* entry_bb = e.b.GetInsertBlock();

  auto* hop_bb = e.block("hop");
  auto* forward_bb = e.block("forward");
  auto* local_bb = e.block("local");
  auto* desc_bb = e.block("descend");
  auto* take_bb = e.block("take");
  auto* down_bb = e.block("down");
  auto* down_step_bb = e.block("down_step");
  auto* fin_bb = e.block("fin");
  e.b.CreateBr(hop_bb);

  e.b.SetInsertPoint(hop_bb);
  auto* node = e.b.CreatePHI(e.i64, 2, "node");
  auto* level_in = e.b.CreatePHI(e.i64, 2, "level_in");
  node->addIncoming(node0, entry_bb);
  level_in->addIncoming(level0, entry_bb);
  auto* owner = e.b.CreateUDiv(node, nps, "owner");
  e.b.CreateCondBr(e.b.CreateICmpEQ(owner, self, "is_local"), local_bb,
                   forward_bb);

  e.b.SetInsertPoint(forward_bb);
  e.store_payload_u64(1, node);
  e.store_payload_u64(2, level_in);
  e.b.CreateCall(e.hk_forward(),
                 {e.arg_ctx, owner, e.arg_payload, e.arg_size});
  e.b.CreateRetVoid();

  e.b.SetInsertPoint(local_bb);
  e.guard();
  auto* local = e.b.CreateURem(node, nps, "local");
  auto* rec = e.b.CreateInBoundsGEP(
      e.i64, base,
      e.b.CreateMul(local,
                    llvm::ConstantInt::get(e.i64, workloads::kIndexRecordWords)),
      "rec");
  e.b.CreateBr(desc_bb);

  e.b.SetInsertPoint(desc_bb);
  auto* level = e.b.CreatePHI(e.i64, 2, "level");
  level->addIncoming(level_in, local_bb);
  auto* finger = e.b.CreateAdd(
      llvm::ConstantInt::get(e.i64, workloads::kIndexFingerBaseWord),
      e.b.CreateMul(level,
                    llvm::ConstantInt::get(
                        e.i64, workloads::kIndexFingerBytes /
                                   workloads::kShardWordBytes)),
      "finger");
  auto* id_ptr = e.b.CreateInBoundsGEP(e.i64, rec, finger, "id_ptr");
  auto* next_id = e.b.CreateLoad(e.i64, id_ptr, "next_id");
  auto* next_key = e.b.CreateLoad(
      e.i64, e.b.CreateConstInBoundsGEP1_64(e.i64, id_ptr, 1), "next_key");
  auto* valid = e.b.CreateICmpNE(
      next_id, llvm::ConstantInt::get(e.i64, workloads::kIndexNil), "valid");
  auto* le = e.b.CreateICmpULE(next_key, target, "le");
  e.b.CreateCondBr(e.b.CreateAnd(valid, le, "take_link"), take_bb, down_bb);

  e.b.SetInsertPoint(take_bb);
  node->addIncoming(next_id, take_bb);
  level_in->addIncoming(level, take_bb);
  e.b.CreateBr(hop_bb);

  e.b.SetInsertPoint(down_bb);
  e.b.CreateCondBr(
      e.b.CreateICmpEQ(level, llvm::ConstantInt::get(e.i64, 0), "bottom"),
      fin_bb, down_step_bb);
  e.b.SetInsertPoint(down_step_bb);
  level->addIncoming(
      e.b.CreateSub(level, llvm::ConstantInt::get(e.i64, 1)), down_step_bb);
  e.b.CreateBr(desc_bb);

  e.b.SetInsertPoint(fin_bb);
  auto* landed_key = e.b.CreateLoad(e.i64, rec, "landed_key");
  auto* found = e.b.CreateICmpEQ(landed_key, target, "found");
  auto* value = e.b.CreateLoad(
      e.i64, e.b.CreateConstInBoundsGEP1_64(e.i64, rec, 1), "value");
  auto* result = e.b.CreateSelect(
      found, value, llvm::ConstantInt::get(e.i64, workloads::kMiss),
      "result");
  e.store_payload_u64(0, result);
  e.store_payload_u64(1, e.load_payload_u64(3, "tag"));
  e.b.CreateCall(e.hk_reply(), {e.arg_ctx, e.arg_payload,
                                llvm::ConstantInt::get(e.i64, 16)});
  e.b.CreateRetVoid();
}

// Self-propagating BFS frontier expansion (the workload suite's graph
// scenario). Two message kinds discriminated by payload word 0:
//   visit [0][lane][vertex][from]  (32 bytes)
//   ack   [1][lane]                (16 bytes)
// The shard is a local CSR slice — word 0: vertices_per_shard, words
// [1, vps+1]: row offsets, the rest: global column indices — and the
// target is an array of 64-byte per-lane cells {visited_count,
// visited_bitmap*, worklist*, engaged, parent, deficit}. A visit drains
// the local closure through the lane worklist (bitmap dedup) and forwards
// each frontier vertex that leaves the shard, stamping itself as the
// child's `from`. Completion is Dijkstra-Scholten: the first visit
// engages a neutral server under its sender (that ack is deferred), later
// visits are acked right after processing, every forward bumps the
// deficit, and the child ack that drains it disengages the server —
// cascading the ack to its own parent, or replying [lane][0] to the chain
// origin at the engagement root (parent == ~0). A naive credit count at
// the origin would be unsound: a child's ack can overtake its parent's
// and the outstanding counter transiently hits zero mid-traversal.
void emit_bfs_frontier(Emitter& e) {
  e.begin_entry();
  auto* lane = e.load_payload_u64(1, "lane");
  auto* raw = e.b.CreateCall(e.hk_target(), {e.arg_ctx}, "target_raw");
  auto* cell = e.b.CreateBitCast(
      e.b.CreateInBoundsGEP(
          e.i8, raw,
          e.b.CreateMul(lane, llvm::ConstantInt::get(
                                  e.i64, workloads::kLaneCellBytes))),
      e.i64p, "cell");
  auto* engaged_ptr = e.b.CreateConstInBoundsGEP1_64(e.i64, cell, 3);
  auto* parent_ptr = e.b.CreateConstInBoundsGEP1_64(e.i64, cell, 4);
  auto* deficit_ptr = e.b.CreateConstInBoundsGEP1_64(e.i64, cell, 5);
  auto* kind = e.load_payload_u64(0, "kind");

  auto* ack_bb = e.block("ack");
  auto* visit_msg_bb = e.block("visit_msg");
  e.b.CreateCondBr(
      e.b.CreateICmpEQ(kind, llvm::ConstantInt::get(e.i64, 0), "is_visit"),
      visit_msg_bb, ack_bb);

  // Shared tails; every predecessor passes the ack destination / nothing.
  auto* quiet_bb = e.block("quiet");
  auto* reply_origin_bb = e.block("reply_origin");
  auto* send_ack_bb = e.block("send_ack");

  // --- ack from a child server ----------------------------------------------
  e.b.SetInsertPoint(ack_bb);
  auto* deficit = e.b.CreateSub(
      e.b.CreateLoad(e.i64, deficit_ptr, "deficit0"),
      llvm::ConstantInt::get(e.i64, 1), "deficit");
  e.b.CreateStore(deficit, deficit_ptr);
  auto* drained_bb = e.block("drained");
  e.b.CreateCondBr(
      e.b.CreateICmpEQ(deficit, llvm::ConstantInt::get(e.i64, 0),
                       "drained"),
      drained_bb, quiet_bb);
  e.b.SetInsertPoint(drained_bb);
  e.b.CreateStore(llvm::ConstantInt::get(e.i64, 0), engaged_ptr);
  auto* my_parent = e.b.CreateLoad(e.i64, parent_ptr, "my_parent");
  auto* at_root = e.b.CreateICmpEQ(
      my_parent, llvm::ConstantInt::get(e.i64, ~0ull), "at_root");
  e.b.CreateCondBr(at_root, reply_origin_bb, send_ack_bb);

  // --- visit -----------------------------------------------------------------
  e.b.SetInsertPoint(visit_msg_bb);
  auto* base = e.b.CreateCall(e.hk_shard_base(), {e.arg_ctx}, "base");
  auto* self = e.b.CreateCall(e.hk_self_peer(), {e.arg_ctx}, "self");
  auto* vps = e.b.CreateLoad(e.i64, base, "vps");
  auto* v0 = e.load_payload_u64(2, "v0");
  auto* owner = e.b.CreateUDiv(v0, vps, "owner");

  auto* forward_bb = e.block("route");
  auto* run_bb = e.block("run");
  e.b.CreateCondBr(e.b.CreateICmpEQ(owner, self, "is_local"), run_bb,
                   forward_bb);

  e.b.SetInsertPoint(forward_bb);
  e.b.CreateCall(e.hk_forward(),
                 {e.arg_ctx, owner, e.arg_payload, e.arg_size});
  e.b.CreateRetVoid();

  e.b.SetInsertPoint(run_bb);
  // Read `from` before the expansion: forwarded children overwrite
  // payload word 3 with this server's own index.
  auto* from = e.load_payload_u64(3, "from");
  auto* bitmap = e.b.CreateIntToPtr(
      e.b.CreateLoad(e.i64, e.b.CreateConstInBoundsGEP1_64(e.i64, cell, 1)),
      e.i64p, "bitmap");
  auto* stack = e.b.CreateIntToPtr(
      e.b.CreateLoad(e.i64, e.b.CreateConstInBoundsGEP1_64(e.i64, cell, 2)),
      e.i64p, "stack");
  e.b.CreateStore(v0, stack);
  auto* run_entry_bb = e.b.GetInsertBlock();

  auto* wloop_bb = e.block("worklist");
  auto* pop_bb = e.block("pop");
  auto* visit_bb = e.block("visit");
  auto* eloop_bb = e.block("edges");
  auto* edge_bb = e.block("edge");
  auto* push_bb = e.block("push");
  auto* send_bb = e.block("send");
  auto* next_edge_bb = e.block("next_edge");
  auto* done_bb = e.block("done");
  e.b.CreateBr(wloop_bb);

  e.b.SetInsertPoint(wloop_bb);
  auto* sp = e.b.CreatePHI(e.i64, 3, "sp");
  auto* spawned = e.b.CreatePHI(e.i64, 3, "spawned");
  sp->addIncoming(llvm::ConstantInt::get(e.i64, 1), run_entry_bb);
  spawned->addIncoming(llvm::ConstantInt::get(e.i64, 0), run_entry_bb);
  e.b.CreateCondBr(
      e.b.CreateICmpEQ(sp, llvm::ConstantInt::get(e.i64, 0), "drained"),
      done_bb, pop_bb);

  e.b.SetInsertPoint(pop_bb);
  auto* sp1 = e.b.CreateSub(sp, llvm::ConstantInt::get(e.i64, 1), "sp1");
  auto* u = e.b.CreateLoad(
      e.i64, e.b.CreateInBoundsGEP(e.i64, stack, sp1), "u");
  auto* lu = e.b.CreateURem(u, vps, "lu");
  auto* word_ptr = e.b.CreateInBoundsGEP(
      e.i64, bitmap,
      e.b.CreateLShr(lu, llvm::ConstantInt::get(e.i64, 6)), "word_ptr");
  auto* word = e.b.CreateLoad(e.i64, word_ptr, "word");
  auto* bit = e.b.CreateShl(
      llvm::ConstantInt::get(e.i64, 1),
      e.b.CreateAnd(lu, llvm::ConstantInt::get(e.i64, 63)), "bit");
  auto* seen = e.b.CreateICmpNE(
      e.b.CreateAnd(word, bit), llvm::ConstantInt::get(e.i64, 0), "seen");
  sp->addIncoming(sp1, pop_bb);
  spawned->addIncoming(spawned, pop_bb);
  e.b.CreateCondBr(seen, wloop_bb, visit_bb);

  e.b.SetInsertPoint(visit_bb);
  e.guard();
  e.b.CreateStore(e.b.CreateOr(word, bit), word_ptr);
  auto* visited = e.b.CreateLoad(e.i64, cell, "visited");
  e.b.CreateStore(
      e.b.CreateAdd(visited, llvm::ConstantInt::get(e.i64, 1)), cell);
  auto* row_base = e.b.CreateInBoundsGEP(e.i64, base, lu, "row_base");
  auto* row = e.b.CreateLoad(
      e.i64, e.b.CreateConstInBoundsGEP1_64(e.i64, row_base, 1), "row");
  auto* row_end = e.b.CreateLoad(
      e.i64, e.b.CreateConstInBoundsGEP1_64(e.i64, row_base, 2), "row_end");
  auto* visit_exit_bb = e.b.GetInsertBlock();
  e.b.CreateBr(eloop_bb);

  e.b.SetInsertPoint(eloop_bb);
  auto* edge = e.b.CreatePHI(e.i64, 3, "e");
  auto* esp = e.b.CreatePHI(e.i64, 3, "esp");
  auto* espawned = e.b.CreatePHI(e.i64, 3, "espawned");
  edge->addIncoming(row, visit_exit_bb);
  esp->addIncoming(sp1, visit_exit_bb);
  espawned->addIncoming(spawned, visit_exit_bb);
  sp->addIncoming(esp, eloop_bb);
  spawned->addIncoming(espawned, eloop_bb);
  e.b.CreateCondBr(e.b.CreateICmpULT(edge, row_end, "more_edges"), edge_bb,
                   wloop_bb);

  e.b.SetInsertPoint(edge_bb);
  auto* col_index = e.b.CreateAdd(
      e.b.CreateAdd(vps, llvm::ConstantInt::get(e.i64, 2)), edge,
      "col_index");
  auto* nb = e.b.CreateLoad(
      e.i64, e.b.CreateInBoundsGEP(e.i64, base, col_index), "nb");
  auto* nb_owner = e.b.CreateUDiv(nb, vps, "nb_owner");
  e.b.CreateCondBr(e.b.CreateICmpEQ(nb_owner, self, "nb_local"), push_bb,
                   send_bb);

  e.b.SetInsertPoint(push_bb);
  e.b.CreateStore(nb, e.b.CreateInBoundsGEP(e.i64, stack, esp));
  auto* esp1 =
      e.b.CreateAdd(esp, llvm::ConstantInt::get(e.i64, 1), "esp1");
  e.b.CreateBr(next_edge_bb);

  e.b.SetInsertPoint(send_bb);
  e.store_payload_u64(2, nb);
  e.store_payload_u64(3, self);  // the child acks us, its DS parent
  e.b.CreateCall(e.hk_forward(),
                 {e.arg_ctx, nb_owner, e.arg_payload,
                  llvm::ConstantInt::get(e.i64, 32)});
  auto* espawned1 = e.b.CreateAdd(
      espawned, llvm::ConstantInt::get(e.i64, 1), "espawned1");
  e.b.CreateBr(next_edge_bb);

  e.b.SetInsertPoint(next_edge_bb);
  auto* next_sp = e.b.CreatePHI(e.i64, 2, "next_sp");
  auto* next_spawned = e.b.CreatePHI(e.i64, 2, "next_spawned");
  next_sp->addIncoming(esp1, push_bb);
  next_sp->addIncoming(esp, send_bb);
  next_spawned->addIncoming(espawned, push_bb);
  next_spawned->addIncoming(espawned1, send_bb);
  edge->addIncoming(
      e.b.CreateAdd(edge, llvm::ConstantInt::get(e.i64, 1)), next_edge_bb);
  esp->addIncoming(next_sp, next_edge_bb);
  espawned->addIncoming(next_spawned, next_edge_bb);
  e.b.CreateBr(eloop_bb);

  e.b.SetInsertPoint(done_bb);
  e.b.CreateStore(
      e.b.CreateAdd(e.b.CreateLoad(e.i64, deficit_ptr, "deficit_in"),
                    spawned, "deficit_out"),
      deficit_ptr);
  auto* engaged = e.b.CreateLoad(e.i64, engaged_ptr, "engaged");
  auto* ack_now_bb = e.block("ack_now");
  auto* neutral_bb = e.block("neutral");
  e.b.CreateCondBr(
      e.b.CreateICmpNE(engaged, llvm::ConstantInt::get(e.i64, 0)),
      ack_now_bb, neutral_bb);
  e.b.SetInsertPoint(ack_now_bb);  // engaged elsewhere: ack the sender now
  e.b.CreateBr(send_ack_bb);
  e.b.SetInsertPoint(neutral_bb);
  auto* engage_bb = e.block("engage");
  auto* resolve_bb = e.block("resolve");
  e.b.CreateCondBr(
      e.b.CreateICmpEQ(spawned, llvm::ConstantInt::get(e.i64, 0)),
      resolve_bb, engage_bb);
  e.b.SetInsertPoint(engage_bb);  // ack deferred until the deficit drains
  e.b.CreateStore(from, parent_ptr);
  e.b.CreateStore(llvm::ConstantInt::get(e.i64, 1), engaged_ptr);
  e.b.CreateRetVoid();
  e.b.SetInsertPoint(resolve_bb);  // neutral and childless: resolve now
  auto* from_origin = e.b.CreateICmpEQ(
      from, llvm::ConstantInt::get(e.i64, ~0ull), "from_origin");
  e.b.CreateCondBr(from_origin, reply_origin_bb, send_ack_bb);

  // --- shared tails ----------------------------------------------------------
  e.b.SetInsertPoint(quiet_bb);
  e.b.CreateRetVoid();

  e.b.SetInsertPoint(send_ack_bb);
  auto* ack_dst = e.b.CreatePHI(e.i64, 3, "ack_dst");
  ack_dst->addIncoming(my_parent, drained_bb);
  ack_dst->addIncoming(from, ack_now_bb);
  ack_dst->addIncoming(from, resolve_bb);
  e.store_payload_u64(0, llvm::ConstantInt::get(e.i64, 1));  // kind = ack
  e.b.CreateCall(e.hk_forward(), {e.arg_ctx, ack_dst, e.arg_payload,
                                  llvm::ConstantInt::get(e.i64, 16)});
  e.b.CreateRetVoid();

  e.b.SetInsertPoint(reply_origin_bb);
  e.store_payload_u64(0, lane);  // reply [lane][0] to the chain origin
  e.store_payload_u64(1, llvm::ConstantInt::get(e.i64, 0));
  e.b.CreateCall(e.hk_reply(), {e.arg_ctx, e.arg_payload,
                                llvm::ConstantInt::get(e.i64, 16)});
  e.b.CreateRetVoid();
}

}  // namespace

StatusOr<std::unique_ptr<llvm::Module>> build_kernel(
    llvm::LLVMContext& context, KernelKind kind,
    const TargetDescriptor& target, const KernelOptions& options) {
  TC_RETURN_IF_ERROR(check_kernel_options(kind, options));
  initialize_llvm();
  TC_ASSIGN_OR_RETURN(auto machine, make_target_machine(target));

  auto module = std::make_unique<llvm::Module>(kernel_name(kind), context);
  module->setTargetTriple(normalize_triple(target.triple));
  module->setDataLayout(machine->createDataLayout());

  Emitter e(context, *module, options.hll_guards, options.chaser_tagged);
  switch (kind) {
    case KernelKind::kTargetSideIncrement: emit_tsi(e); break;
    case KernelKind::kPayloadSum: emit_payload_sum(e); break;
    case KernelKind::kSaxpy: emit_saxpy(e); break;
    case KernelKind::kVecReduce: emit_vec_reduce(e); break;
    case KernelKind::kChaser: emit_chaser(e); break;
    case KernelKind::kRingHop: emit_ring_hop(e); break;
    case KernelKind::kSpawner: emit_spawner(e); break;
    case KernelKind::kSinSum: emit_sin_sum(e); break;
    case KernelKind::kRemoteStore: emit_remote_store(e); break;
    case KernelKind::kStatsSummary: emit_stats_summary(e); break;
    case KernelKind::kTreeBroadcast: emit_tree_broadcast(e); break;
    case KernelKind::kCollectiveBroadcast:
      emit_collective_broadcast(e);
      break;
    case KernelKind::kCollectiveReduce: emit_collective_reduce(e); break;
    case KernelKind::kHashProbe: emit_hash_probe(e); break;
    case KernelKind::kOrderedSearch: emit_ordered_search(e); break;
    case KernelKind::kBfsFrontier: emit_bfs_frontier(e); break;
  }
  TC_RETURN_IF_ERROR(verify_module(*module));
  return module;
}

StatusOr<FatBitcode> build_fat_kernel(KernelKind kind,
                                      std::span<const TargetDescriptor> targets,
                                      const KernelOptions& options) {
  if (targets.empty()) {
    return invalid_argument("build_fat_kernel: no targets");
  }
  FatBitcode archive(CodeRepr::kBitcode);
  for (const TargetDescriptor& target : targets) {
    llvm::LLVMContext context;
    TC_ASSIGN_OR_RETURN(auto module,
                        build_kernel(context, kind, target, options));
    TC_RETURN_IF_ERROR(
        archive.add_entry(target, module_to_bitcode(*module)));
  }
  return archive;
}

StatusOr<FatBitcode> build_default_fat_kernel(KernelKind kind,
                                              const KernelOptions& options) {
  const auto targets = default_fat_targets();
  return build_fat_kernel(kind, targets, options);
}

}  // namespace tc::ir
