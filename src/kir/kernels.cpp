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
constexpr std::uint8_t A3 = vm::kRegArg3;

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

// [n:u64][a:f32][x:f32*n][y:f32*n] → target[i] = a*x[i]+y[i].
StatusOr<Def> def_saxpy() {
  Builder b(vm::kKernelRegCount);
  const auto done = b.make_label();
  b.ld64(2, P, 0);  // n
  b.ld32(3, P, 8);  // a
  b.iconst(13, 4);
  b.iconst(12, 1);
  b.iconst(11, 12);
  b.alu(Op::kAdd, 4, P, 11);   // x = payload + 12
  b.alu(Op::kMul, 11, 2, 13);  // x_bytes = n*4
  b.alu(Op::kAdd, 5, 4, 11);   // y = x + x_bytes
  b.hook(vm::HookId::kTarget, 6);  // out
  b.iconst(7, 0);                  // i
  const auto loop = b.loop();
  b.alu(Op::kCult, 11, 7, 2);
  b.brz(11, done);
  b.guard();
  b.alu(Op::kMul, 8, 7, 13);  // byte offset
  b.alu(Op::kAdd, 11, 4, 8);
  b.ld32(9, 11);  // xi
  b.alu(Op::kAdd, 11, 5, 8);
  b.ld32(10, 11);  // yi
  b.alu(Op::kFmul32, 11, 3, 9);
  b.alu(Op::kFadd32, 11, 11, 10);  // a*xi + yi
  b.alu(Op::kAdd, 9, 6, 8);
  b.st32(11, 9);
  b.alu(Op::kAdd, 7, 7, 12);
  b.close_loop(loop);
  b.bind(done);
  b.ret();
  return b.finish("saxpy");
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

// Code-injecting code. Payload: [peer:u64][arg:u64][name:NUL-terminated].
StatusOr<Def> def_spawner() {
  Builder b(vm::kKernelRegCount);
  b.guard();
  b.ld64(A0, P, 0);  // peer
  b.iconst(2, 16);
  b.alu(Op::kAdd, A1, P, 2);  // name
  b.iconst(2, 8);
  b.alu(Op::kAdd, A2, P, 2);  // arg pointer
  b.iconst(A3, 8);            // arg size
  b.hook(vm::HookId::kInject, 2, A0);
  b.ret();
  return b.finish("spawner");
}

// Σ sin(x) over payload doubles via the libm dependency.
StatusOr<Def> def_sin_sum() {
  Builder b(vm::kKernelRegCount);
  const auto done = b.make_label();
  b.ld64(2, P);     // n
  b.iconst(3, 0);   // acc
  b.iconst(4, 0);   // i
  b.iconst(7, 1);
  b.iconst(8, 8);
  const auto loop = b.loop();
  b.alu(Op::kCult, 5, 4, 2);
  b.brz(5, done);
  b.guard();
  b.alu(Op::kMul, 5, 4, 8);
  b.alu(Op::kAdd, 5, P, 5);
  b.ld64(6, 5, 8);
  b.hook(vm::HookId::kSin, 6, 6);  // r6 = sin(r6)
  b.alu(Op::kFadd, 3, 3, 6);
  b.alu(Op::kAdd, 4, 4, 7);
  b.close_loop(loop);
  b.bind(done);
  b.hook(vm::HookId::kTarget, 5);
  b.st64(3, 5);
  b.ret();
  return b.finish("sin_sum");
}

// One-sided RDMA PUT from injected code. Payload:
// [peer:u64][offset:u64][value:u64]; replies the hook's rc.
StatusOr<Def> def_remote_store() {
  Builder b(vm::kKernelRegCount);
  b.guard();
  b.ld64(A0, P, 0);  // peer
  b.ld64(A1, P, 8);  // offset
  b.iconst(2, 16);
  b.alu(Op::kAdd, A2, P, 2);  // value pointer
  b.iconst(A3, 8);
  b.hook(vm::HookId::kRemoteWrite, 3, A0);
  b.st64(3, P, 0);  // rc (sign-extended by the hook)
  b.mov(A1, P);
  b.mov(A2, A3);  // size = 8
  b.reply(2, A1);
  b.ret();
  return b.finish("remote_store");
}

// Streaming Welford statistics. Payload: [n:u64][x:f64*n]; target =
// double[3] {count, mean, M2}.
StatusOr<Def> def_stats_summary() {
  Builder b(vm::kKernelRegCount);
  const auto done = b.make_label();
  b.ld64(2, P);                    // n
  b.hook(vm::HookId::kTarget, 3);  // state
  b.ld64(4, 3, 0);                 // count
  b.ld64(5, 3, 8);                 // mean
  b.ld64(6, 3, 16);                // M2
  b.iconst(7, 0);                  // i
  b.iconst(12, 1);
  b.iconst(13, 8);
  b.fconst(14, 1.0);
  const auto loop = b.loop();
  b.alu(Op::kCult, 8, 7, 2);
  b.brz(8, done);
  b.guard();
  b.alu(Op::kMul, 8, 7, 13);
  b.alu(Op::kAdd, 8, P, 8);
  b.ld64(9, 8, 8);  // xi
  // count' = count + 1; delta = x - mean; mean' = mean + delta / count';
  // M2' = M2 + delta * (x - mean') — identical op order to the IR emitter.
  b.alu(Op::kFadd, 4, 4, 14);
  b.alu(Op::kFsub, 10, 9, 5);
  b.alu(Op::kFdiv, 11, 10, 4);
  b.alu(Op::kFadd, 5, 5, 11);
  b.alu(Op::kFsub, 11, 9, 5);
  b.alu(Op::kFmul, 11, 10, 11);
  b.alu(Op::kFadd, 6, 6, 11);
  b.alu(Op::kAdd, 7, 7, 12);
  b.close_loop(loop);
  b.bind(done);
  b.st64(4, 3, 0);
  b.st64(5, 3, 8);
  b.st64(6, 3, 16);
  b.ret();
  return b.finish("stats_summary");
}

// Binomial broadcast tree. Payload: [base:u64][span:u64][value:u64]; the
// target is {value, arrivals}. Both slot words are release stores: on the
// wall-clock backends the initiator polls the slot from another thread with
// acquire loads, and the count must not become visible before the value.
StatusOr<Def> def_tree_broadcast() {
  Builder b(vm::kKernelRegCount);
  const auto done = b.make_label();
  b.ld64(2, P, 0);   // base
  b.ld64(3, P, 8);   // span
  b.ld64(4, P, 16);  // value
  b.iconst(10, 1);
  b.iconst(11, 2);
  const auto loop = b.loop();
  b.alu(Op::kCule, 5, 3, 10);  // leaf when span <= 1
  b.brnz(5, done);
  b.guard();
  // mid = (span + 1) / 2: keep [base, base+mid), delegate the rest.
  b.alu(Op::kAdd, 5, 3, 10);
  b.alu(Op::kUdiv, 5, 5, 11);
  b.alu(Op::kAdd, 6, 2, 5);  // right_base
  b.alu(Op::kSub, 7, 3, 5);  // right_span
  b.st64(6, P, 0);
  b.st64(7, P, 8);
  b.mov(A0, 6);
  b.mov(A1, P);
  b.mov(A2, N);
  b.hook(vm::HookId::kForward, 8, A0);
  b.mov(3, 5);  // span = mid
  b.close_loop(loop);
  b.bind(done);
  b.hook(vm::HookId::kTarget, 5);
  b.st64_release(4, 5, 0);  // value slot
  b.ld64(6, 5, 8);          // arrival count
  b.alu(Op::kAdd, 6, 6, 10);
  b.st64_release(6, 5, 8);
  b.ret();
  return b.finish("tree_broadcast");
}

// Collective-suite broadcast. Payload:
// [base:u64][span:u64][value:u64][lane:u64][root:u64]. base/span are tree
// positions relative to the root; the actual peer of a position is
// (position + root) % peer_count. The per-server target is an array of
// 64-byte collective cells indexed by lane ({value, arrivals} at offsets
// 0/8, release stores like tree_broadcast's slot); after delivering
// locally, the leaf replies [0][lane][value] to the chain origin so the
// initiator can complete by draining its own progress context instead of
// polling remote memory.
StatusOr<Def> def_collective_broadcast() {
  Builder b(vm::kKernelRegCount);
  const auto done = b.make_label();
  b.ld64(2, P, 0);  // base (tree position)
  b.ld64(3, P, 8);  // span
  b.iconst(10, 1);
  b.iconst(11, 2);
  b.hook(vm::HookId::kPeerCount, 9);
  const auto loop = b.loop();
  b.alu(Op::kCule, 5, 3, 10);  // leaf when span <= 1
  b.brnz(5, done);
  b.guard();
  // mid = (span + 1) / 2: keep [base, base+mid), delegate the rest.
  b.alu(Op::kAdd, 5, 3, 10);
  b.alu(Op::kUdiv, 5, 5, 11);
  b.alu(Op::kAdd, 6, 2, 5);  // right_base
  b.alu(Op::kSub, 7, 3, 5);  // right_span
  b.st64(6, P, 0);
  b.st64(7, P, 8);
  b.ld64(8, P, 32);  // root
  b.alu(Op::kAdd, 8, 6, 8);
  b.alu(Op::kUrem, 8, 8, 9);  // dest = (right_base + root) % count
  b.mov(A0, 8);
  b.mov(A1, P);
  b.mov(A2, N);
  b.hook(vm::HookId::kForward, 8, A0);
  b.mov(3, 5);  // span = mid
  b.close_loop(loop);
  b.bind(done);
  b.hook(vm::HookId::kTarget, 5);
  b.ld64(6, P, 24);  // lane
  b.iconst(7, workloads::kLaneCellBytes);
  b.alu(Op::kMul, 6, 6, 7);
  b.alu(Op::kAdd, 5, 5, 6);  // cell = target + lane * 64
  b.ld64(4, P, 16);          // value
  b.st64_release(4, 5, 0);   // cell.value
  b.ld64(6, 5, 8);
  b.alu(Op::kAdd, 6, 6, 10);
  b.st64_release(6, 5, 8);  // cell.arrivals += 1
  // Ack to origin: [kind=0][lane][value].
  b.ld64(6, P, 24);  // lane (offset 24 still untouched)
  b.iconst(7, 0);
  b.st64(7, P, 0);
  b.st64(6, P, 8);
  b.st64(4, P, 16);
  b.mov(A1, P);
  b.iconst(A2, 24);
  b.reply(8, A1);
  b.ret();
  return b.finish("coll_bcast");
}

// Collective-suite reduction. One kernel, two message kinds discriminated
// by payload word 0:
//   fan-out    [0][base][span][parent][lane][op][root]  (56 bytes)
//   contribute [1][lane][value]                         (24 bytes)
// Fan-out descends the halving tree: every split forwards the lower half's
// twin to its midpoint peer and counts a child; a node that delegated
// children parks {acc = own value, expected, arrived = 0, parent, op} in
// its per-lane cell, a childless leaf contributes straight to its parent.
// Contributions fold into the cell (sum/min/max; count folds ones) and,
// when the last child has reported, climb to the parent — or, at the root
// (parent == ~0), reply [1][lane][acc] to the chain origin.
StatusOr<Def> def_collective_reduce() {
  Builder b(vm::kKernelRegCount);
  const auto contribute = b.make_label();
  const auto ffin = b.make_label();
  const auto have_one = b.make_label();
  const auto leaf = b.make_label();
  const auto reply_out = b.make_label();
  const auto cmin = b.make_label();
  const auto cmax = b.make_label();
  const auto store = b.make_label();
  const auto quiet = b.make_label();

  b.ld64(2, P, 0);  // kind
  b.brnz(2, contribute);

  // --- fan-out ---------------------------------------------------------------
  b.ld64(2, P, 8);    // base (tree position)
  b.ld64(3, P, 16);   // span
  b.ld64(15, P, 24);  // parent (actual peer index, ~0 at root)
  b.iconst(4, 0);     // children
  b.iconst(10, 1);
  b.iconst(11, 2);
  b.hook(vm::HookId::kSelfPeer, 5);
  b.hook(vm::HookId::kPeerCount, 9);
  const auto floop = b.loop();
  b.alu(Op::kCule, 6, 3, 10);  // leaf when span <= 1
  b.brnz(6, ffin);
  b.guard();
  b.alu(Op::kAdd, 6, 3, 10);
  b.alu(Op::kUdiv, 6, 6, 11);  // mid
  b.alu(Op::kAdd, 7, 2, 6);    // right_base
  b.alu(Op::kSub, 8, 3, 6);    // right_span
  b.st64(7, P, 8);
  b.st64(8, P, 16);
  b.st64(5, P, 24);  // child's parent = self
  b.ld64(8, P, 48);  // root
  b.alu(Op::kAdd, 7, 7, 8);
  b.alu(Op::kUrem, 7, 7, 9);  // dest = (right_base + root) % count
  b.mov(A0, 7);
  b.mov(A1, P);
  b.mov(A2, N);
  b.hook(vm::HookId::kForward, 7, A0);
  b.alu(Op::kAdd, 4, 4, 10);  // ++children
  b.mov(3, 6);                // span = mid
  b.close_loop(floop);
  b.bind(ffin);
  b.hook(vm::HookId::kTarget, 5);
  b.ld64(6, P, 32);  // lane
  b.iconst(7, workloads::kLaneCellBytes);
  b.alu(Op::kMul, 6, 6, 7);
  b.alu(Op::kAdd, 5, 5, 6);  // cell = target + lane * 64
  // Own contribution: 1 for op kCount (3), cell.contrib otherwise.
  b.ld64(7, P, 40);  // op
  b.iconst(8, 3);
  b.alu(Op::kCeq, 8, 7, 8);
  b.iconst(6, 1);
  b.brnz(8, have_one);
  b.ld64(6, 5, 16);  // cell.contrib
  b.bind(have_one);
  b.brz(4, leaf);
  // Internal node: park the partial state and wait for contributions.
  b.st64(6, 5, 24);  // cell.acc = own value
  b.st64(4, 5, 32);  // cell.expected = children
  b.iconst(7, 0);
  b.st64(7, 5, 40);   // cell.arrived = 0
  b.st64(15, 5, 48);  // cell.parent
  b.ld64(7, P, 40);
  b.st64(7, 5, 56);  // cell.op
  b.ret();
  b.bind(leaf);
  // Childless: contribute [1][lane][value] straight to the parent (or
  // reply to the origin when this leaf is also the root: N == 1).
  b.ld64(7, P, 32);  // lane (before rewriting words 0..2)
  b.iconst(8, 1);
  b.st64(8, P, 0);
  b.st64(7, P, 8);
  b.st64(6, P, 16);
  b.alu(Op::kAdd, 8, 15, 10);  // parent + 1 == 0  <=>  root
  b.brz(8, reply_out);
  b.mov(A0, 15);
  b.mov(A1, P);
  b.iconst(A2, 24);
  b.forward(7, A0);
  b.ret();
  b.bind(reply_out);
  b.mov(A1, P);
  b.iconst(A2, 24);
  b.reply(7, A1);
  b.ret();

  // --- contribute ------------------------------------------------------------
  b.bind(contribute);
  b.hook(vm::HookId::kTarget, 5);
  b.ld64(6, P, 8);  // lane
  b.iconst(7, workloads::kLaneCellBytes);
  b.alu(Op::kMul, 6, 6, 7);
  b.alu(Op::kAdd, 5, 5, 6);  // cell
  b.guard();
  b.iconst(10, 1);
  b.ld64(6, P, 16);             // v
  b.ld64(7, 5, 56);             // op
  b.ld64(8, 5, 24);             // acc
  b.alu(Op::kCeq, 3, 7, 10);    // op == kMin
  b.brnz(3, cmin);
  b.iconst(2, 2);
  b.alu(Op::kCeq, 3, 7, 2);     // op == kMax
  b.brnz(3, cmax);
  b.alu(Op::kAdd, 8, 8, 6);     // fold: sum / count
  b.br(store);
  b.bind(cmin);
  b.alu(Op::kCult, 3, 8, 6);  // acc < v: keep acc
  b.brnz(3, store);
  b.mov(8, 6);
  b.br(store);
  b.bind(cmax);
  b.alu(Op::kCult, 3, 8, 6);  // acc < v: take v
  b.brz(3, store);
  b.mov(8, 6);
  b.bind(store);
  b.st64(8, 5, 24);  // cell.acc
  b.ld64(6, 5, 40);
  b.alu(Op::kAdd, 6, 6, 10);
  b.st64(6, 5, 40);  // ++cell.arrived
  b.ld64(7, 5, 32);  // cell.expected
  b.alu(Op::kCeq, 7, 6, 7);
  b.brz(7, quiet);
  // Climb: the last child reported.
  b.st64(8, P, 16);   // payload value = folded acc
  b.ld64(15, 5, 48);  // parent
  b.alu(Op::kAdd, 2, 15, 10);
  b.brz(2, reply_out);  // root: reply [1][lane][acc] to origin
  b.mov(A0, 15);
  b.mov(A1, P);
  b.iconst(A2, 24);
  b.forward(3, A0);
  b.bind(quiet);
  b.ret();
  return b.finish("coll_reduce");
}

// Remote hash-table lookup. Payload: [key:u64][slot:u64][probes_left:u64]
// [tag:u64] over open-addressing {key, value} bucket records
// (kHashBucketWords), shard_size / 2 buckets per server. Probes the linear
// chain locally, forwards itself at shard crossings, replies [value|~0][tag]
// to the chain origin.
// The entry carries the kShardInfo hook plus the arrival math and falls
// into the probe loop. Each probe iteration is an owner check with a side
// exit to the forward path, bucket address math, key/value loads, a hit
// side exit, an empty-bucket side exit, the probe advance and the back
// edge. The bucket value load is speculative (always in bounds: buckets
// are 16 bytes) and lands the hit result in r2 before the hit exit.
// Two spots cost more than they need: the dead `mov r11, r10` after the
// entry constant, and the `iconst 1` plus multiply that copy the slot (×1)
// where one mov would do. Both stay. This def's bytecode is what ships,
// and the sim charges interpreted virtual time per shipped instruction, so
// dropping either moves the portable hash-probe series and its calibrated
// figures; the pinned-bytecode cases in kir_test catch any such change.
StatusOr<Def> def_hash_probe() {
  Builder b(vm::kKernelRegCount);
  b.set_min_payload_bytes(32);
  b.set_shard_record_words(workloads::kHashBucketWords);
  const auto fwd = b.make_label();
  const auto miss = b.make_label();
  const auto out = b.make_label();
  b.iconst(10, workloads::kHashBucketWords);
  b.mov(11, 10);  // dead copy, kept (see above)
  b.hook(vm::HookId::kShardInfo, 2);  // r2 size, r3 self, r4 base, r5 count
  b.alu(Op::kUdiv, 8, 2, 10);         // buckets per shard
  b.alu(Op::kMul, 9, 8, 5);           // capacity = bps * peer_count
  b.ld_payload(6, 8);                 // slot
  b.ld_payload(7, 16);                // probes_left
  const auto loop = b.loop();
  b.trace(1);  // probe step
  b.iconst(11, 1);
  b.alu(Op::kMul, A0, 6, 11);   // slot copy (×1, kept: see above)
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

// Ordered search over the sharded skip-list index. Payload:
// [target:u64][node:u64][level:u64][tag:u64]; 10-word node records
// [key][value][(next_id, next_key) x 4 levels]. The stored finger keys make
// the descent locally decidable: in-shard hops loop, cross-shard down-links
// forward. Replies [value|~0][tag].
// The hop loops are unrolled — three link takes, four level descents —
// with side exits out of each body. Loop invariants are cached in
// registers so each unrolled body stays small — r15 holds self * nps (the
// ownership test becomes `rank = node - r15; rank < nps`, one sub and one
// cult, with the wraparound of an underflowing sub failing the cult for
// nodes on earlier shards), r7 is repurposed from the level to the finger
// byte offset 16 * level (the forward path divides it back), and r4 is
// biased by 16 so a record's finger array is `r4 + 80 * rank` directly.
// The NIL-link test is folded into the key compare — NIL fingers carry ~0
// as their key while real keys stay below 2^63, so `next_key <= target`
// alone rejects them — and the reply is branch-free: `or(value, hit - 1)`
// yields the value on a hit and ~0 on a miss. The sim charges interpreted
// virtual time per shipped instruction, so changing this schedule moves
// the portable ordered-search series.
// The def trusts the level word: a level at or above kIndexLevels reads
// past the record, so AM callers gate it (workloads/workload_engine.cpp).
StatusOr<Def> def_ordered_search() {
  Builder b(vm::kKernelRegCount);
  const auto fwd = b.make_label();
  const auto take = b.make_label();
  const auto down = b.make_label();
  const auto fin = b.make_label();
  // Entry: shard-info hook, arrival math, owner side exit, record
  // address, finger probe.
  b.iconst(10, workloads::kIndexRecordWords);
  b.mov(11, 10);  // dead copy, kept: the sim charges it
  b.hook(vm::HookId::kShardInfo, 2);  // r2 size, r3 self, r4 base (count: r5)
  b.alu(Op::kUdiv, 8, 2, 10);         // nodes per shard
  b.ld64(5, P, 0);   // target (the unused peer count is overwritten)
  b.ld64(6, P, 8);   // node
  b.ld64(7, P, 16);  // level
  b.iconst(10, workloads::kIndexFingerBytes);
  b.alu(Op::kMul, 7, 7, 10);   // r7 = finger offset, 16 * level
  b.alu(Op::kAdd, 4, 4, 10);   // bias the base: records' finger arrays
  b.alu(Op::kMul, 15, 3, 8);   // first owned node id, self * nps
  b.alu(Op::kSub, 9, 6, 15);   // local rank (wraps when not ours)
  b.alu(Op::kCult, 11, 9, 8);
  b.brz(11, fwd);  // side exit: arrived at the wrong shard
  b.guard();
  b.iconst(10, workloads::kIndexRecordBytes);
  b.alu(Op::kMul, 9, 9, 10);
  b.alu(Op::kAdd, 9, 4, 9);  // finger-array address of the record
  b.alu(Op::kAdd, 11, 9, 7);
  b.ld64(A1, 11, 8);  // next_key (~0 for NIL links)
  b.ld64(2, 11, 0);   // next_id
  b.alu(Op::kCule, 11, A1, 5);
  b.brnz(11, take);
  b.br(down);
  // Link take, three hops unrolled: `mul node, next_id, 1` moves the
  // taken link into the node register (A0 stays 1 across the bodies),
  // and each body re-checks ownership (side exit to the forward path),
  // recomputes the record address, and probes the same level's finger —
  // up to three in-shard horizontal hops before the back edge.
  b.bind(take);
  b.iconst(A0, 1);
  for (int unroll = 0; unroll < 3; ++unroll) {
    b.alu(Op::kMul, 6, 2, A0);  // node = next_id
    b.alu(Op::kSub, 9, 6, 15);  // local rank
    b.alu(Op::kCult, 11, 9, 8);
    b.brz(11, fwd);  // side exit: the link left the shard
    b.guard();
    b.iconst(10, workloads::kIndexRecordBytes);
    b.alu(Op::kMul, 9, 9, 10);
    b.alu(Op::kAdd, 9, 4, 9);
    b.alu(Op::kAdd, 11, 9, 7);
    b.ld64(A1, 11, 8);  // next_key
    b.ld64(2, 11, 0);   // next_id
    b.alu(Op::kCule, 11, A1, 5);
    if (unroll < 2) {
      b.brz(11, down);  // side exit: overshoot or NIL, descend
    } else {
      b.brnz(11, take);  // back edge; falls through to descend
    }
  }
  // Descend, four levels unrolled: each body tests the level floor
  // (side exit to the reply), steps the cached finger offset down one
  // level, and probes that level's finger on the same record.
  b.bind(down);
  b.iconst(10, workloads::kIndexFingerBytes);
  for (int unroll = 0; unroll < 4; ++unroll) {
    b.alu(Op::kCult, 11, 7, 10);  // offset < 16 means level 0
    b.brnz(11, fin);              // side exit: bottomed out
    b.alu(Op::kSub, 7, 7, 10);    // --level
    b.alu(Op::kAdd, 11, 9, 7);
    b.ld64(A1, 11, 8);  // next_key
    b.ld64(2, 11, 0);   // next_id
    b.alu(Op::kCule, 11, A1, 5);
    b.brnz(11, take);
  }
  b.br(down);
  // Branch-free reply: hit = (landing key == target); hit - 1 is 0 on a
  // hit and ~0 on a miss, so `or(value, hit - 1)` is the reply word.
  b.bind(fin);
  b.iconst(10, workloads::kIndexFingerBytes);
  b.alu(Op::kSub, A0, 9, 10);  // un-bias: the record's key address
  b.ld64(2, A0, 8);            // value (speculative)
  b.ld64(A0, A0, 0);           // landing key
  b.alu(Op::kCeq, A0, A0, 5);
  b.iconst(10, 1);
  b.alu(Op::kSub, A0, A0, 10);
  b.alu(Op::kOr, 2, 2, A0);  // value on a hit, ~0 on a miss
  b.iconst(11, 24);
  b.alu(Op::kAdd, 11, P, 11);  // &payload[24]
  b.st64(2, P, 0);
  b.ld64(11, 11, 0);  // tag
  b.st64(11, P, 8);
  b.mov(A1, P);
  b.iconst(A2, 16);
  b.reply(2, A1);
  b.ret();
  // Forward: refresh the in-place descent state (dividing the cached
  // finger offset back into the level the payload carries), ship to the
  // owning server.
  b.bind(fwd);
  b.iconst(A0, 8);
  b.alu(Op::kAdd, A0, P, A0);  // &payload[8]
  b.st64(6, A0, 0);
  b.iconst(10, workloads::kIndexFingerBytes);
  b.alu(Op::kUdiv, 11, 7, 10);  // level = finger offset / 16
  b.st64(11, A0, 8);
  b.alu(Op::kUdiv, A0, 6, 8);  // owner = node / nps
  b.mov(A1, P);
  b.mov(A2, N);
  b.forward(11, A0);
  b.ret();
  return b.finish("ordered_search");
}

// Self-propagating BFS frontier expansion. Two message kinds discriminated
// by payload word 0:
//   visit [0][lane][vertex][from]  (32 bytes)
//   ack   [1][lane]                (16 bytes)
// The shard is a CSR slice [vps][row_offsets x vps+1][global cols]; the
// per-lane 64-byte cell holds {visited_count, visited_bitmap*, worklist*,
// engaged, parent, deficit}. A visit drains the local closure through the
// worklist (bitmap dedup) and forwards cross-shard frontier vertices,
// stamping itself as their `from`. Completion is Dijkstra-Scholten: the
// first visit engages a neutral server under its sender (its ack is
// deferred), later visits are acked right after processing, every forward
// bumps the server's deficit, and a child ack that drains the deficit
// disengages the server — acking *its* parent in turn, or replying
// [lane][0] to the chain origin at the engagement root (parent == ~0).
// Credit counting to the origin would be unsound here: a child's ack can
// overtake its parent's, so the naive outstanding counter transiently hits
// zero mid-traversal; the DS engagement tree cannot.
// The def trusts the lane word (it indexes the cell array), so AM callers
// gate it against the lane count (workloads/workload_engine.cpp).
StatusOr<Def> def_bfs_frontier() {
  Builder b(vm::kKernelRegCount);
  const auto visit_kind = b.make_label();
  const auto quiet = b.make_label();
  const auto reply_origin = b.make_label();
  const auto run = b.make_label();
  const auto wloop = b.make_label();
  const auto push = b.make_label();
  const auto next_edge = b.make_label();
  const auto done = b.make_label();
  const auto complete_now = b.make_label();
  const auto ack_now = b.make_label();
  const auto send_ack = b.make_label();
  b.hook(vm::HookId::kTarget, 5);
  b.ld64(11, P, 8);  // lane
  b.iconst(15, workloads::kLaneCellBytes);
  b.alu(Op::kMul, 11, 11, 15);
  b.alu(Op::kAdd, 5, 5, 11);  // cell = target + lane * 64
  b.ld64(2, P, 0);            // kind
  b.brz(2, visit_kind);
  // --- ack from a child server -----------------------------------------------
  b.ld64(10, 5, 40);  // deficit
  b.iconst(15, 1);
  b.alu(Op::kSub, 10, 10, 15);
  b.st64(10, 5, 40);
  b.brnz(10, quiet);  // children still outstanding
  b.iconst(15, 0);
  b.st64(15, 5, 24);  // disengage
  b.ld64(10, 5, 32);  // parent
  b.iconst(11, ~0ull);
  b.alu(Op::kCeq, 11, 10, 11);
  b.brnz(11, reply_origin);  // engagement root: origin completes
  b.br(send_ack);            // cascade: ack our own parent
  b.bind(quiet);
  b.ret();
  // --- visit -----------------------------------------------------------------
  b.bind(visit_kind);
  b.hook(vm::HookId::kShardBase, 2);
  b.hook(vm::HookId::kSelfPeer, 3);
  b.ld64(4, 2, 0);    // vps = shard word 0
  b.ld64(10, P, 16);  // vertex
  b.alu(Op::kUdiv, 11, 10, 4);
  b.alu(Op::kCeq, 15, 11, 3);
  b.brnz(15, run);
  b.mov(A0, 11);  // mis-routed: ship to the owning server
  b.mov(A1, P);
  b.mov(A2, N);
  b.forward(15, A0);
  b.ret();
  b.bind(run);
  b.ld64(15, P, 24);
  b.st64(15, 5, 48);  // park `from`: the expansion overwrites payload word 3
  b.ld64(6, 5, 8);    // visited bitmap base
  b.ld64(7, 5, 16);   // worklist base
  b.st64(10, 7, 0);   // worklist[0] = vertex
  b.iconst(8, 1);     // sp
  b.iconst(9, 0);     // spawned
  b.bind(wloop);
  b.brz(8, done);
  b.iconst(15, 1);
  b.alu(Op::kSub, 8, 8, 15);  // --sp
  b.iconst(15, 8);
  b.alu(Op::kMul, 10, 8, 15);
  b.alu(Op::kAdd, 10, 7, 10);
  b.ld64(10, 10);                // u = worklist[sp]
  b.alu(Op::kUrem, 10, 10, 4);   // local vertex index
  b.iconst(15, 6);
  b.alu(Op::kShr, 11, 10, 15);
  b.iconst(15, 8);
  b.alu(Op::kMul, 11, 11, 15);
  b.alu(Op::kAdd, 11, 6, 11);  // bitmap word address
  b.iconst(15, 63);
  b.alu(Op::kAnd, 12, 10, 15);
  b.iconst(15, 1);
  b.alu(Op::kShl, 13, 15, 12);  // bit = 1 << (lu & 63)
  b.ld64(14, 11);               // bitmap word
  b.alu(Op::kAnd, 15, 14, 13);
  b.brnz(15, wloop);  // already visited
  // Visit lu.
  b.guard();
  b.alu(Op::kOr, 14, 14, 13);
  b.st64(14, 11);  // mark visited
  b.ld64(15, 5, 0);
  b.iconst(13, 1);
  b.alu(Op::kAdd, 15, 15, 13);
  b.st64(15, 5, 0);  // ++cell.visited_count
  b.iconst(15, 8);
  b.alu(Op::kMul, 11, 10, 15);
  b.alu(Op::kAdd, 11, 2, 11);  // &row_offsets[lu] - 8
  b.ld64(10, 11, 8);           // e = row_offsets[lu]
  b.ld64(11, 11, 16);          // row_offsets[lu + 1]
  const auto eloop = b.loop();
  b.alu(Op::kCult, 15, 10, 11);
  b.brz(15, wloop);
  b.alu(Op::kAdd, 14, 4, 10);  // vps + e
  b.iconst(15, 2);
  b.alu(Op::kAdd, 14, 14, 15);
  b.iconst(15, 8);
  b.alu(Op::kMul, 14, 14, 15);
  b.alu(Op::kAdd, 14, 2, 14);
  b.ld64(13, 14);                // nb = cols[e]
  b.alu(Op::kUdiv, 14, 13, 4);   // nb owner
  b.alu(Op::kCeq, 15, 14, 3);
  b.brnz(15, push);
  // Frontier leaves the shard: forward, stamping ourselves as its `from`.
  b.iconst(15, 16);
  b.alu(Op::kAdd, 15, P, 15);  // &payload[16]
  b.st64(13, 15, 0);
  b.st64(3, 15, 8);
  b.mov(A0, 14);
  b.mov(A1, P);
  b.iconst(A2, 32);
  b.hook(vm::HookId::kForward, 15, A0);
  b.iconst(15, 1);
  b.alu(Op::kAdd, 9, 9, 15);  // ++spawned
  b.br(next_edge);
  b.bind(push);
  b.iconst(15, 8);
  b.alu(Op::kMul, 14, 8, 15);
  b.alu(Op::kAdd, 14, 7, 14);
  b.st64(13, 14);  // worklist[sp] = nb
  b.iconst(15, 1);
  b.alu(Op::kAdd, 8, 8, 15);  // ++sp
  b.bind(next_edge);
  b.iconst(15, 1);
  b.alu(Op::kAdd, 10, 10, 15);  // ++e
  b.close_loop(eloop);
  b.bind(done);
  b.ld64(10, 5, 40);
  b.alu(Op::kAdd, 10, 10, 9);
  b.st64(10, 5, 40);  // deficit += spawned
  b.ld64(11, 5, 24);  // engaged?
  b.brnz(11, ack_now);
  b.brz(9, complete_now);  // spawned == 0: resolve immediately
  b.ld64(10, 5, 48);       // the parked `from`
  b.st64(10, 5, 32);       // parent = from
  b.iconst(11, 1);
  b.st64(11, 5, 24);  // engage (ack deferred to disengage)
  b.ret();
  b.bind(complete_now);  // neutral, childless: resolve now
  b.ld64(10, 5, 48);     // the parked `from`
  b.iconst(11, ~0ull);
  b.alu(Op::kCeq, 11, 10, 11);
  b.brnz(11, reply_origin);  // the seed itself resolved in one shot
  b.br(send_ack);
  b.bind(ack_now);     // already engaged: ack the sender now
  b.ld64(10, 5, 48);   // the parked `from`
  b.bind(send_ack);    // r10 = destination peer
  b.iconst(15, 1);
  b.st64(15, P, 0);  // kind = ack ([1][lane])
  b.mov(A0, 10);
  b.mov(A1, P);
  b.iconst(A2, 16);
  b.forward(15, A0);
  b.ret();
  b.bind(reply_origin);
  b.ld64(15, P, 8);  // reply [lane][0] to the chain origin
  b.st64(15, P, 0);
  b.iconst(15, 0);
  b.st64(15, P, 8);
  b.mov(A1, P);
  b.iconst(A2, 16);
  b.reply(15, A1);
  b.ret();
  return b.finish("bfs_frontier");
}

}  // namespace

StatusOr<Def> kernel_def(ir::KernelKind kind,
                         const ir::KernelOptions& options) {
  if (options.chaser_tagged && kind != ir::KernelKind::kChaser) {
    return invalid_argument(
        std::string("chaser_tagged applies only to the chaser kernel, not ") +
        ir::kernel_name(kind));
  }
  switch (kind) {
    case ir::KernelKind::kTargetSideIncrement: return def_tsi();
    case ir::KernelKind::kPayloadSum: return def_payload_sum();
    case ir::KernelKind::kSaxpy: return def_saxpy();
    case ir::KernelKind::kVecReduce: return def_vec_reduce();
    case ir::KernelKind::kChaser: return def_chaser(options.chaser_tagged);
    case ir::KernelKind::kRingHop: return def_ring_hop();
    case ir::KernelKind::kSpawner: return def_spawner();
    case ir::KernelKind::kSinSum: return def_sin_sum();
    case ir::KernelKind::kRemoteStore: return def_remote_store();
    case ir::KernelKind::kStatsSummary: return def_stats_summary();
    case ir::KernelKind::kTreeBroadcast: return def_tree_broadcast();
    case ir::KernelKind::kCollectiveBroadcast:
      return def_collective_broadcast();
    case ir::KernelKind::kCollectiveReduce: return def_collective_reduce();
    case ir::KernelKind::kHashProbe: return def_hash_probe();
    case ir::KernelKind::kOrderedSearch: return def_ordered_search();
    case ir::KernelKind::kBfsFrontier: return def_bfs_frontier();
  }
  return invalid_argument("kir: unknown kernel kind " +
                          std::to_string(static_cast<int>(kind)));
}

StatusOr<Def> prepared_def(ir::KernelKind kind,
                           const ir::KernelOptions& options) {
  TC_ASSIGN_OR_RETURN(Def def, kernel_def(kind, options));
  return strip_traces(resolve_guards(std::move(def), options.hll_guards));
}

}  // namespace tc::kir
