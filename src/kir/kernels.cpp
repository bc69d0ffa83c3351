#include "kir/kernels.hpp"

#include "vm/lower.hpp"
#include "workloads/shard_layout.hpp"

namespace tc::kir {

namespace {

// The shared register conventions (vm/lower.hpp): KIR registers map one to
// one onto bytecode registers, so the same names apply.
constexpr std::uint8_t P = vm::kRegPayload;
constexpr std::uint8_t N = vm::kRegSize;
constexpr std::uint8_t A0 = vm::kRegArg0;
constexpr std::uint8_t A1 = vm::kRegArg1;
constexpr std::uint8_t A2 = vm::kRegArg2;

// `++*(uint64_t*)target`.
StatusOr<Def> def_tsi() {
  Builder b(vm::kKernelRegCount);
  b.guard();
  b.hook(vm::HookId::kTarget, 2);
  b.ld64(3, 2);
  b.iconst(4, 1);
  b.alu(Op::kAdd, 3, 3, 4);
  b.st64(3, 2);
  b.ret();
  return b.finish("tsi");
}

// Byte-sum of the payload into *(u64*)target.
StatusOr<Def> def_payload_sum() {
  Builder b(vm::kKernelRegCount);
  const auto done = b.make_label();
  b.iconst(2, 0);  // i
  b.iconst(3, 0);  // sum
  b.iconst(6, 1);
  const auto loop = b.loop();
  b.alu(Op::kCult, 4, 2, N);
  b.brz(4, done);
  b.guard();
  b.alu(Op::kAdd, 5, P, 2);
  b.ld8(5, 5);
  b.alu(Op::kAdd, 3, 3, 5);
  b.alu(Op::kAdd, 2, 2, 6);
  b.close_loop(loop);
  b.bind(done);
  b.hook(vm::HookId::kTarget, 4);
  b.st64(3, 4);
  b.ret();
  return b.finish("payload_sum");
}

// [n:u64][x:f64*n] → *(double*)target = Σx.
StatusOr<Def> def_vec_reduce() {
  Builder b(vm::kKernelRegCount);
  b.set_min_payload_bytes(8);
  const auto done = b.make_label();
  b.ld_payload(2, 0);  // n
  b.iconst(3, 0);      // acc = 0.0 (bit pattern 0)
  b.iconst(4, 0);      // i
  b.iconst(7, 1);
  b.iconst(8, 8);
  const auto loop = b.loop();
  b.alu(Op::kCult, 5, 4, 2);
  b.brz(5, done);
  b.guard();
  b.alu(Op::kMul, 5, 4, 8);
  b.alu(Op::kAdd, 5, P, 5);
  b.ld64(6, 5, 8);  // x[i] at payload + 8 + i*8
  b.alu(Op::kFadd, 3, 3, 6);
  b.alu(Op::kAdd, 4, 4, 7);
  b.close_loop(loop);
  b.bind(done);
  b.hook(vm::HookId::kTarget, 5);
  b.st64(3, 5);
  b.ret();
  return b.finish("vec_reduce");
}

// The DAPC chaser. Payload: [addr:u64][depth:u64], or — for the tagged
// (async-window) build-time variant — [addr][depth][tag]. The shard is the
// flat pointer table: one-word records (kChaseEntryWords).
StatusOr<Def> def_chaser(bool tagged) {
  Builder b(vm::kKernelRegCount);
  b.set_min_payload_bytes(tagged ? 24 : 16);
  b.set_shard_record_words(workloads::kChaseEntryWords);
  const auto local = b.make_label();
  const auto step = b.make_label();
  b.hook(vm::HookId::kShardSize, 2);
  b.hook(vm::HookId::kSelfPeer, 3);
  b.hook(vm::HookId::kShardBase, 4);
  b.ld_payload(5, 0);  // addr
  b.ld_payload(6, 8);  // depth
  b.iconst(10, 1);
  b.iconst(11, workloads::kShardWordBytes);
  const auto loop = b.loop();
  b.trace(0);  // chase hop
  b.alu(Op::kUdiv, 7, 5, 2);  // owner = addr / shard_size
  b.alu(Op::kCeq, 8, 7, 3);
  b.brnz(8, local);
  // forward: refresh the in-place payload, ship to the owning server (the
  // tagged variant's tail rides along untouched in bytes [16, 24)).
  b.st_payload(5, 0);
  b.st_payload(6, 8);
  b.mov(A0, 7);
  b.mov(A1, P);
  b.mov(A2, N);
  b.forward(8, A0);
  b.ret();
  b.bind(local);
  b.guard();
  b.alu(Op::kUrem, 8, 5, 2);  // slot
  b.alu(Op::kMul, 8, 8, 11);
  b.alu(Op::kAdd, 8, 4, 8);
  b.ld_shard_word(9, 8, 0);   // value
  b.alu(Op::kSub, 6, 6, 10);  // next_depth
  b.brnz(6, step);
  // finish: ReturnResult with the final value (tagged: plus the tag).
  b.st_payload(9, 0);
  if (tagged) {
    b.ld_payload(9, 16);  // tag
    b.st_payload(9, 8);
    b.iconst(11, 16);
  }
  b.mov(A1, P);
  b.mov(A2, 11);  // size = 8 (classic) or 16 (tagged)
  b.reply(8, A1);
  b.ret();
  b.bind(step);
  b.mov(5, 9);
  b.close_loop(loop);
  return b.finish(tagged ? "dapc_chaser_tagged" : "dapc_chaser");
}

// Ring traversal with TTL. Payload: [ttl:u64][hops:u64].
StatusOr<Def> def_ring_hop() {
  Builder b(vm::kKernelRegCount);
  b.set_min_payload_bytes(16);
  const auto done = b.make_label();
  b.ld_payload(2, 0);  // ttl
  b.ld_payload(3, 8);  // hops
  b.iconst(10, 1);
  b.brz(2, done);
  b.guard();
  b.alu(Op::kSub, 4, 2, 10);
  b.st_payload(4, 0);
  b.alu(Op::kAdd, 4, 3, 10);
  b.st_payload(4, 8);
  b.hook(vm::HookId::kSelfPeer, 5);
  b.hook(vm::HookId::kPeerCount, 6);
  b.alu(Op::kAdd, 4, 5, 10);
  b.alu(Op::kUrem, 4, 4, 6);  // next = (self+1) % count
  b.mov(A0, 4);
  b.mov(A1, P);
  b.mov(A2, N);
  b.forward(4, A0);
  b.ret();
  b.bind(done);
  b.iconst(4, 16);
  b.mov(A1, P);
  b.mov(A2, 4);
  b.reply(4, A1);
  b.ret();
  return b.finish("ring_hop");
}

// Remote hash-table lookup. Payload: [key:u64][slot:u64][probes_left:u64]
// [tag:u64] over {key, value} bucket records (kHashBucketWords). The
// schedule — including the dead mov behind the entry constant, the
// speculative value load, and the compare placement — is the legacy
// lowering's, kept verbatim so the generated bytecode stays byte-identical
// to it and the sim charges the same instruction stream (vm/lower.cpp
// documents it).
StatusOr<Def> def_hash_probe() {
  Builder b(vm::kKernelRegCount);
  b.set_min_payload_bytes(32);
  b.set_shard_record_words(workloads::kHashBucketWords);
  const auto fwd = b.make_label();
  const auto miss = b.make_label();
  const auto out = b.make_label();
  b.iconst(10, workloads::kHashBucketWords);
  b.mov(11, 10);
  b.hook(vm::HookId::kShardInfo, 2);  // r2 size, r3 self, r4 base, r5 count
  b.alu(Op::kUdiv, 8, 2, 10);         // buckets per shard
  b.alu(Op::kMul, 9, 8, 5);           // capacity = bps * peer_count
  b.ld_payload(6, 8);                 // slot
  b.ld_payload(7, 16);                // probes_left
  const auto loop = b.loop();
  b.trace(1);  // probe step
  b.iconst(11, 1);
  b.alu(Op::kMul, A0, 6, 11);   // slot copy (multiply by 1)
  b.alu(Op::kUdiv, 10, A0, 8);  // owner
  b.alu(Op::kUrem, A0, A0, 8);  // local bucket
  b.alu(Op::kCeq, 11, 10, 3);
  b.brz(11, fwd);  // side exit: the chain left the shard
  b.guard();
  b.iconst(10, workloads::kHashBucketBytes);
  b.alu(Op::kMul, 10, A0, 10);
  b.alu(Op::kAdd, 10, 4, 10);  // record address
  b.ld_payload(5, 0);          // probe key
  b.ld_shard_word(11, 10, workloads::kHashKeyWord);
  b.ld_shard_word(2, 10, workloads::kHashValueWord);  // speculative
  b.alu(Op::kCeq, A1, 11, 5);
  b.brnz(A1, out);  // side exit: hit, r2 holds the value
  b.brz(11, miss);  // side exit: empty bucket, definitive miss
  b.iconst(2, 1);
  b.alu(Op::kSub, 7, 7, 2);  // --probes_left
  b.alu(Op::kAdd, 6, 6, 2);
  b.alu(Op::kUrem, 6, 6, 9);  // slot = (slot + 1) % capacity
  b.close_loop_nz(7, loop);   // back edge; falls through when drained
  b.bind(miss);
  b.iconst(2, workloads::kMiss);  // falls into the reply
  b.bind(out);
  b.iconst(11, 24);
  b.alu(Op::kAdd, 11, P, 11);  // &payload[24]
  b.st_payload(2, 0);
  b.ld64(11, 11, 0);  // tag
  b.st_payload(11, 8);
  b.mov(A1, P);
  b.iconst(A2, 16);
  b.reply(2, A1);
  b.ret();
  // Forward: refresh the in-place probe state, ship to the owning server.
  b.bind(fwd);
  b.iconst(A0, 8);
  b.alu(Op::kAdd, A0, P, A0);  // &payload[8]
  b.st64(6, A0, 0);
  b.st64(7, A0, 8);
  b.mov(A0, 10);
  b.mov(A1, P);
  b.mov(A2, N);
  b.forward(11, A0);
  b.ret();
  return b.finish("hash_probe");
}

}  // namespace

bool has_kernel_def(ir::KernelKind kind) {
  switch (kind) {
    case ir::KernelKind::kTargetSideIncrement:
    case ir::KernelKind::kPayloadSum:
    case ir::KernelKind::kVecReduce:
    case ir::KernelKind::kChaser:
    case ir::KernelKind::kRingHop:
    case ir::KernelKind::kHashProbe:
      return true;
    default:
      return false;
  }
}

StatusOr<Def> kernel_def(ir::KernelKind kind,
                         const ir::KernelOptions& options) {
  switch (kind) {
    case ir::KernelKind::kTargetSideIncrement: return def_tsi();
    case ir::KernelKind::kPayloadSum: return def_payload_sum();
    case ir::KernelKind::kVecReduce: return def_vec_reduce();
    case ir::KernelKind::kChaser: return def_chaser(options.chaser_tagged);
    case ir::KernelKind::kRingHop: return def_ring_hop();
    case ir::KernelKind::kHashProbe: return def_hash_probe();
    default:
      return not_found(std::string("kir: no definition for kernel ") +
                       ir::kernel_name(kind) +
                       " (still on the legacy emitters)");
  }
}

StatusOr<Def> prepared_def(ir::KernelKind kind,
                           const ir::KernelOptions& options) {
  TC_ASSIGN_OR_RETURN(Def def, kernel_def(kind, options));
  return strip_traces(resolve_guards(std::move(def), options.hll_guards));
}

}  // namespace tc::kir
