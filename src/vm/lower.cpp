#include "vm/lower.hpp"

#include <string>

#include "ir/target_info.hpp"
#include "kir/kernels.hpp"
#include "kir/vm_backend.hpp"
#include "workloads/shard_layout.hpp"

namespace tc::vm {

namespace {

// Short local aliases for the register conventions of lower.hpp (shared
// with ir/kernel_builder.cpp and the KIR definitions of src/kir/).
constexpr std::uint8_t P = kRegPayload;
constexpr std::uint8_t N = kRegSize;
constexpr std::uint8_t kArg0 = kRegArg0;
constexpr std::uint8_t kArg1 = kRegArg1;
constexpr std::uint8_t kArg2 = kRegArg2;
constexpr std::uint8_t kArg3 = kRegArg3;
constexpr std::uint16_t kRegs = kKernelRegCount;

/// Mirrors Emitter::guard(): the HLL frontend's dynamic-dispatch tax.
void guard(Assembler& a, const ir::KernelOptions& options) {
  if (options.hll_guards) a.hook(HookId::kHllGuard, 0);
}

// [n:u64][a:f32][x:f32*n][y:f32*n] → target[i] = a*x[i]+y[i] — emit_saxpy().
void lower_saxpy(Assembler& a, const ir::KernelOptions& o) {
  const auto loop = a.make_label();
  const auto done = a.make_label();
  a.ld64(2, P, 0);   // n
  a.ld32(3, P, 8);   // a
  a.li(13, 4);
  a.li(12, 1);
  a.li(11, 12);
  a.alu(Opcode::kAdd, 4, P, 11);   // x = payload + 12
  a.alu(Opcode::kMul, 11, 2, 13);  // x_bytes = n*4
  a.alu(Opcode::kAdd, 5, 4, 11);   // y = x + x_bytes
  a.hook(HookId::kTarget, 6);      // out
  a.li(7, 0);                      // i
  a.bind(loop);
  a.alu(Opcode::kCult, 11, 7, 2);
  a.brz(11, done);
  guard(a, o);
  a.alu(Opcode::kMul, 8, 7, 13);   // byte offset
  a.alu(Opcode::kAdd, 11, 4, 8);
  a.ld32(9, 11);                   // xi
  a.alu(Opcode::kAdd, 11, 5, 8);
  a.ld32(10, 11);                  // yi
  a.alu(Opcode::kFmul32, 11, 3, 9);
  a.alu(Opcode::kFadd32, 11, 11, 10);  // a*xi + yi
  a.alu(Opcode::kAdd, 9, 6, 8);
  a.st32(11, 9);
  a.alu(Opcode::kAdd, 7, 7, 12);
  a.br(loop);
  a.bind(done);
  a.ret();
}

// Code-injecting code — emit_spawner().
// Payload: [peer:u64][arg:u64][name:NUL-terminated].
void lower_spawner(Assembler& a, const ir::KernelOptions& o) {
  guard(a, o);
  a.ld64(kArg0, P, 0);             // peer
  a.li(2, 16);
  a.alu(Opcode::kAdd, kArg1, P, 2);  // name
  a.li(2, 8);
  a.alu(Opcode::kAdd, kArg2, P, 2);  // arg pointer
  a.li(kArg3, 8);                    // arg size
  a.hook(HookId::kInject, 2, kArg0);
  a.ret();
}

// Σ sin(x) over payload doubles via the libm dependency — emit_sin_sum().
void lower_sin_sum(Assembler& a, const ir::KernelOptions& o) {
  const auto loop = a.make_label();
  const auto done = a.make_label();
  a.ld64(2, P);      // n
  a.li(3, 0);        // acc
  a.li(4, 0);        // i
  a.li(7, 1);
  a.li(8, 8);
  a.bind(loop);
  a.alu(Opcode::kCult, 5, 4, 2);
  a.brz(5, done);
  guard(a, o);
  a.alu(Opcode::kMul, 5, 4, 8);
  a.alu(Opcode::kAdd, 5, P, 5);
  a.ld64(6, 5, 8);
  a.hook(HookId::kSin, 6, 6);      // r6 = sin(r6)
  a.alu(Opcode::kFadd, 3, 3, 6);
  a.alu(Opcode::kAdd, 4, 4, 7);
  a.br(loop);
  a.bind(done);
  a.hook(HookId::kTarget, 5);
  a.st64(3, 5);
  a.ret();
}

// One-sided RDMA PUT from injected code — emit_remote_store().
// Payload: [peer:u64][offset:u64][value:u64].
void lower_remote_store(Assembler& a, const ir::KernelOptions& o) {
  guard(a, o);
  a.ld64(kArg0, P, 0);              // peer
  a.ld64(kArg1, P, 8);              // offset
  a.li(2, 16);
  a.alu(Opcode::kAdd, kArg2, P, 2);  // value pointer
  a.li(kArg3, 8);
  a.hook(HookId::kRemoteWrite, 3, kArg0);
  a.st64(3, P, 0);                   // rc (sign-extended by the hook)
  a.mov(kArg1, P);
  a.mov(kArg2, kArg3);               // size = 8
  a.hook(HookId::kReply, 2, kArg1);
  a.ret();
}

// Streaming Welford statistics — emit_stats_summary().
// Payload: [n:u64][x:f64*n]; target = double[3] {count, mean, M2}.
void lower_stats_summary(Assembler& a, const ir::KernelOptions& o) {
  const auto loop = a.make_label();
  const auto done = a.make_label();
  a.ld64(2, P);                    // n
  a.hook(HookId::kTarget, 3);      // state
  a.ld64(4, 3, 0);                 // count
  a.ld64(5, 3, 8);                 // mean
  a.ld64(6, 3, 16);                // M2
  a.li(7, 0);                      // i
  a.li(12, 1);
  a.li(13, 8);
  a.lf(14, 1.0);
  a.bind(loop);
  a.alu(Opcode::kCult, 8, 7, 2);
  a.brz(8, done);
  guard(a, o);
  a.alu(Opcode::kMul, 8, 7, 13);
  a.alu(Opcode::kAdd, 8, P, 8);
  a.ld64(9, 8, 8);                 // xi
  // count' = count + 1; delta = x - mean; mean' = mean + delta / count';
  // M2' = M2 + delta * (x - mean') — identical op order to the IR emitter.
  a.alu(Opcode::kFadd, 4, 4, 14);
  a.alu(Opcode::kFsub, 10, 9, 5);
  a.alu(Opcode::kFdiv, 11, 10, 4);
  a.alu(Opcode::kFadd, 5, 5, 11);
  a.alu(Opcode::kFsub, 11, 9, 5);
  a.alu(Opcode::kFmul, 11, 10, 11);
  a.alu(Opcode::kFadd, 6, 6, 11);
  a.alu(Opcode::kAdd, 7, 7, 12);
  a.br(loop);
  a.bind(done);
  a.st64(4, 3, 0);
  a.st64(5, 3, 8);
  a.st64(6, 3, 16);
  a.ret();
}

// Binomial broadcast tree — emit_tree_broadcast().
// Payload: [base:u64][span:u64][value:u64].
void lower_tree_broadcast(Assembler& a, const ir::KernelOptions& o) {
  const auto loop = a.make_label();
  const auto done = a.make_label();
  a.ld64(2, P, 0);   // base
  a.ld64(3, P, 8);   // span
  a.ld64(4, P, 16);  // value
  a.li(10, 1);
  a.li(11, 2);
  a.bind(loop);
  a.alu(Opcode::kCule, 5, 3, 10);  // leaf when span <= 1
  a.brnz(5, done);
  guard(a, o);
  // mid = (span + 1) / 2: keep [base, base+mid), delegate the rest.
  a.alu(Opcode::kAdd, 5, 3, 10);
  a.alu(Opcode::kUdiv, 5, 5, 11);
  a.alu(Opcode::kAdd, 6, 2, 5);    // right_base
  a.alu(Opcode::kSub, 7, 3, 5);    // right_span
  a.st64(6, P, 0);
  a.st64(7, P, 8);
  a.mov(kArg0, 6);
  a.mov(kArg1, P);
  a.mov(kArg2, N);
  a.hook(HookId::kForward, 8, kArg0);
  a.mov(3, 5);                     // span = mid
  a.br(loop);
  a.bind(done);
  a.hook(HookId::kTarget, 5);
  a.st64(4, 5, 0);                 // value slot
  a.ld64(6, 5, 8);                 // arrival count
  a.alu(Opcode::kAdd, 6, 6, 10);
  a.st64(6, 5, 8);
  a.ret();
}

// Collective-suite broadcast — emit_collective_broadcast().
// Payload: [base:u64][span:u64][value:u64][lane:u64][root:u64]. base/span
// are tree positions relative to the root; the actual peer of a position
// is (position + root) % peer_count. The per-server target is an array of
// 64-byte collective cells indexed by lane ({value, arrivals} at offsets
// 0/8); after delivering locally, the leaf replies [0][lane][value] to the
// chain origin so the initiator can complete by draining its own progress
// context instead of polling remote memory.
void lower_collective_broadcast(Assembler& a, const ir::KernelOptions& o) {
  const auto loop = a.make_label();
  const auto done = a.make_label();
  a.ld64(2, P, 0);   // base (tree position)
  a.ld64(3, P, 8);   // span
  a.li(10, 1);
  a.li(11, 2);
  a.hook(HookId::kPeerCount, 9);
  a.bind(loop);
  a.alu(Opcode::kCule, 5, 3, 10);  // leaf when span <= 1
  a.brnz(5, done);
  guard(a, o);
  // mid = (span + 1) / 2: keep [base, base+mid), delegate the rest.
  a.alu(Opcode::kAdd, 5, 3, 10);
  a.alu(Opcode::kUdiv, 5, 5, 11);
  a.alu(Opcode::kAdd, 6, 2, 5);    // right_base
  a.alu(Opcode::kSub, 7, 3, 5);    // right_span
  a.st64(6, P, 0);
  a.st64(7, P, 8);
  a.ld64(8, P, 32);                // root
  a.alu(Opcode::kAdd, 8, 6, 8);
  a.alu(Opcode::kUrem, 8, 8, 9);   // dest = (right_base + root) % count
  a.mov(kArg0, 8);
  a.mov(kArg1, P);
  a.mov(kArg2, N);
  a.hook(HookId::kForward, 8, kArg0);
  a.mov(3, 5);                     // span = mid
  a.br(loop);
  a.bind(done);
  a.hook(HookId::kTarget, 5);
  a.ld64(6, P, 24);                // lane
  a.li(7, workloads::kLaneCellBytes);
  a.alu(Opcode::kMul, 6, 6, 7);
  a.alu(Opcode::kAdd, 5, 5, 6);    // cell = target + lane * 64
  a.ld64(4, P, 16);                // value
  a.st64(4, 5, 0);                 // cell.value
  a.ld64(6, 5, 8);
  a.alu(Opcode::kAdd, 6, 6, 10);
  a.st64(6, 5, 8);                 // cell.arrivals += 1
  // Ack to origin: [kind=0][lane][value].
  a.ld64(6, P, 24);                // lane (offset 24 still untouched)
  a.li(7, 0);
  a.st64(7, P, 0);
  a.st64(6, P, 8);
  a.st64(4, P, 16);
  a.mov(kArg1, P);
  a.li(kArg2, 24);
  a.hook(HookId::kReply, 8, kArg1);
  a.ret();
}

// Collective-suite reduction — emit_collective_reduce(). One kernel, two
// message kinds discriminated by payload word 0:
//   fan-out    [0][base][span][parent][lane][op][root]  (56 bytes)
//   contribute [1][lane][value]                         (24 bytes)
// Fan-out descends the halving tree: every split forwards the lower half's
// twin to its midpoint peer and counts a child; a node that delegated
// children parks {acc = own value, expected, arrived = 0, parent, op} in
// its per-lane cell, a childless leaf contributes straight to its parent.
// Contributions fold into the cell (sum/min/max; count folds ones) and,
// when the last child has reported, climb to the parent — or, at the root
// (parent == ~0), reply [1][lane][acc] to the chain origin.
void lower_collective_reduce(Assembler& a, const ir::KernelOptions& o) {
  const auto contribute = a.make_label();
  const auto floop = a.make_label();
  const auto ffin = a.make_label();
  const auto have_one = a.make_label();
  const auto leaf = a.make_label();
  const auto send_up = a.make_label();
  const auto reply_out = a.make_label();
  const auto cmin = a.make_label();
  const auto cmax = a.make_label();
  const auto fold = a.make_label();
  const auto store = a.make_label();
  const auto climb = a.make_label();
  const auto quiet = a.make_label();

  a.ld64(2, P, 0);                 // kind
  a.brnz(2, contribute);

  // --- fan-out ---------------------------------------------------------------
  a.ld64(2, P, 8);                 // base (tree position)
  a.ld64(3, P, 16);                // span
  a.ld64(15, P, 24);               // parent (actual peer index, ~0 at root)
  a.li(4, 0);                      // children
  a.li(10, 1);
  a.li(11, 2);
  a.hook(HookId::kSelfPeer, 5);
  a.hook(HookId::kPeerCount, 9);
  a.bind(floop);
  a.alu(Opcode::kCule, 6, 3, 10);  // leaf when span <= 1
  a.brnz(6, ffin);
  guard(a, o);
  a.alu(Opcode::kAdd, 6, 3, 10);
  a.alu(Opcode::kUdiv, 6, 6, 11);  // mid
  a.alu(Opcode::kAdd, 7, 2, 6);    // right_base
  a.alu(Opcode::kSub, 8, 3, 6);    // right_span
  a.st64(7, P, 8);
  a.st64(8, P, 16);
  a.st64(5, P, 24);                // child's parent = self
  a.ld64(8, P, 48);                // root
  a.alu(Opcode::kAdd, 7, 7, 8);
  a.alu(Opcode::kUrem, 7, 7, 9);   // dest = (right_base + root) % count
  a.mov(kArg0, 7);
  a.mov(kArg1, P);
  a.mov(kArg2, N);
  a.hook(HookId::kForward, 7, kArg0);
  a.alu(Opcode::kAdd, 4, 4, 10);   // ++children
  a.mov(3, 6);                     // span = mid
  a.br(floop);
  a.bind(ffin);
  a.hook(HookId::kTarget, 5);
  a.ld64(6, P, 32);                // lane
  a.li(7, workloads::kLaneCellBytes);
  a.alu(Opcode::kMul, 6, 6, 7);
  a.alu(Opcode::kAdd, 5, 5, 6);    // cell = target + lane * 64
  // Own contribution: 1 for op kCount (3), cell.contrib otherwise.
  a.ld64(7, P, 40);                // op
  a.li(8, 3);
  a.alu(Opcode::kCeq, 8, 7, 8);
  a.li(6, 1);
  a.brnz(8, have_one);
  a.ld64(6, 5, 16);                // cell.contrib
  a.bind(have_one);
  a.brz(4, leaf);
  // Internal node: park the partial state and wait for contributions.
  a.st64(6, 5, 24);                // cell.acc = own value
  a.st64(4, 5, 32);                // cell.expected = children
  a.li(7, 0);
  a.st64(7, 5, 40);                // cell.arrived = 0
  a.st64(15, 5, 48);               // cell.parent
  a.ld64(7, P, 40);
  a.st64(7, 5, 56);                // cell.op
  a.ret();
  a.bind(leaf);
  // Childless: contribute [1][lane][value] straight to the parent (or
  // reply to the origin when this leaf is also the root: N == 1).
  a.ld64(7, P, 32);                // lane (before rewriting words 0..2)
  a.li(8, 1);
  a.st64(8, P, 0);
  a.st64(7, P, 8);
  a.st64(6, P, 16);
  a.alu(Opcode::kAdd, 8, 15, 10);  // parent + 1 == 0  <=>  root
  a.brz(8, reply_out);
  a.mov(kArg0, 15);
  a.mov(kArg1, P);
  a.li(kArg2, 24);
  a.hook(HookId::kForward, 7, kArg0);
  a.ret();
  a.bind(reply_out);
  a.mov(kArg1, P);
  a.li(kArg2, 24);
  a.hook(HookId::kReply, 7, kArg1);
  a.ret();

  // --- contribute ------------------------------------------------------------
  a.bind(contribute);
  a.hook(HookId::kTarget, 5);
  a.ld64(6, P, 8);                 // lane
  a.li(7, workloads::kLaneCellBytes);
  a.alu(Opcode::kMul, 6, 6, 7);
  a.alu(Opcode::kAdd, 5, 5, 6);    // cell
  guard(a, o);
  a.li(10, 1);
  a.ld64(6, P, 16);                // v
  a.ld64(7, 5, 56);                // op
  a.ld64(8, 5, 24);                // acc
  a.alu(Opcode::kCeq, 3, 7, 10);   // op == kMin
  a.brnz(3, cmin);
  a.li(2, 2);
  a.alu(Opcode::kCeq, 3, 7, 2);    // op == kMax
  a.brnz(3, cmax);
  a.bind(fold);
  a.alu(Opcode::kAdd, 8, 8, 6);    // sum / count
  a.br(store);
  a.bind(cmin);
  a.alu(Opcode::kCult, 3, 8, 6);   // acc < v: keep acc
  a.brnz(3, store);
  a.mov(8, 6);
  a.br(store);
  a.bind(cmax);
  a.alu(Opcode::kCult, 3, 8, 6);   // acc < v: take v
  a.brz(3, store);
  a.mov(8, 6);
  a.bind(store);
  a.st64(8, 5, 24);                // cell.acc
  a.ld64(6, 5, 40);
  a.alu(Opcode::kAdd, 6, 6, 10);
  a.st64(6, 5, 40);                // ++cell.arrived
  a.ld64(7, 5, 32);                // cell.expected
  a.alu(Opcode::kCeq, 7, 6, 7);
  a.brz(7, quiet);
  a.bind(climb);
  a.st64(8, P, 16);                // payload value = folded acc
  a.ld64(15, 5, 48);               // parent
  a.alu(Opcode::kAdd, 2, 15, 10);
  a.brz(2, reply_out);             // root: reply [1][lane][acc] to origin
  a.mov(kArg0, 15);
  a.mov(kArg1, P);
  a.li(kArg2, 24);
  a.hook(HookId::kForward, 3, kArg0);
  a.bind(quiet);
  a.ret();
}

// Ordered search over the sharded skip-list index — emit_ordered_search().
// Payload: [target:u64][node:u64][level:u64][tag:u64]; 10-word node
// records [key][value][(next_id, next_key) x 4 levels]. The stored finger
// keys make the descent locally decidable: in-shard hops loop, cross-shard
// down-links forward. Replies [value|~0][tag].
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
void lower_ordered_search(Assembler& a, const ir::KernelOptions& o) {
  const auto fwd = a.make_label();
  const auto take = a.make_label();
  const auto down = a.make_label();
  const auto fin = a.make_label();
  // Entry: shard-info hook, arrival math, owner side exit, record
  // address, finger probe.
  a.li(10, workloads::kIndexRecordWords);
  a.mov(11, 10);                   // dead copy, kept: the sim charges it
  a.hook(HookId::kShardInfo, 2);   // r2 size, r3 self, r4 base (count: r5)
  a.alu(Opcode::kUdiv, 8, 2, 10);  // nodes per shard
  a.ld64(5, P, 0);   // target (the unused peer count is overwritten)
  a.ld64(6, P, 8);   // node
  a.ld64(7, P, 16);  // level
  a.li(10, workloads::kIndexFingerBytes);
  a.alu(Opcode::kMul, 7, 7, 10);   // r7 = finger offset, 16 * level
  a.alu(Opcode::kAdd, 4, 4, 10);   // bias the base: records' finger arrays
  a.alu(Opcode::kMul, 15, 3, 8);   // first owned node id, self * nps
  a.alu(Opcode::kSub, 9, 6, 15);   // local rank (wraps when not ours)
  a.alu(Opcode::kCult, 11, 9, 8);
  a.brz(11, fwd);                  // side exit: arrived at the wrong shard
  guard(a, o);
  a.li(10, workloads::kIndexRecordBytes);
  a.alu(Opcode::kMul, 9, 9, 10);
  a.alu(Opcode::kAdd, 9, 4, 9);    // finger-array address of the record
  a.alu(Opcode::kAdd, 11, 9, 7);
  a.ld64(kArg1, 11, 8);            // next_key (~0 for NIL links)
  a.ld64(2, 11, 0);                // next_id
  a.alu(Opcode::kCule, 11, kArg1, 5);
  a.brnz(11, take);
  a.br(down);
  // Link take, three hops unrolled: `mul node, next_id, 1` moves the
  // taken link into the node register (kArg0 stays 1 across the bodies),
  // and each body re-checks ownership (side exit to the forward path),
  // recomputes the record address, and probes the same level's finger —
  // up to three in-shard horizontal hops before the back edge.
  a.bind(take);
  a.li(kArg0, 1);
  for (int unroll = 0; unroll < 3; ++unroll) {
    a.alu(Opcode::kMul, 6, 2, kArg0);  // node = next_id
    a.alu(Opcode::kSub, 9, 6, 15);     // local rank
    a.alu(Opcode::kCult, 11, 9, 8);
    a.brz(11, fwd);                  // side exit: the link left the shard
    guard(a, o);
    a.li(10, workloads::kIndexRecordBytes);
    a.alu(Opcode::kMul, 9, 9, 10);
    a.alu(Opcode::kAdd, 9, 4, 9);
    a.alu(Opcode::kAdd, 11, 9, 7);
    a.ld64(kArg1, 11, 8);            // next_key
    a.ld64(2, 11, 0);                // next_id
    a.alu(Opcode::kCule, 11, kArg1, 5);
    if (unroll < 2) {
      a.brz(11, down);               // side exit: overshoot or NIL, descend
    } else {
      a.brnz(11, take);              // back edge; falls through to descend
    }
  }
  // Descend, four levels unrolled: each body tests the level floor
  // (side exit to the reply), steps the cached finger offset down one
  // level, and probes that level's finger on the same record.
  a.bind(down);
  a.li(10, workloads::kIndexFingerBytes);
  for (int unroll = 0; unroll < 4; ++unroll) {
    a.alu(Opcode::kCult, 11, 7, 10);  // offset < 16 means level 0
    a.brnz(11, fin);                 // side exit: bottomed out
    a.alu(Opcode::kSub, 7, 7, 10);   // --level
    a.alu(Opcode::kAdd, 11, 9, 7);
    a.ld64(kArg1, 11, 8);            // next_key
    a.ld64(2, 11, 0);                // next_id
    a.alu(Opcode::kCule, 11, kArg1, 5);
    a.brnz(11, take);
  }
  a.br(down);
  // Branch-free reply: hit = (landing key == target); hit - 1 is 0 on a
  // hit and ~0 on a miss, so `or(value, hit - 1)` is the reply word.
  a.bind(fin);
  a.li(10, workloads::kIndexFingerBytes);
  a.alu(Opcode::kSub, kArg0, 9, 10);  // un-bias: the record's key address
  a.ld64(2, kArg0, 8);             // value (speculative)
  a.ld64(kArg0, kArg0, 0);         // landing key
  a.alu(Opcode::kCeq, kArg0, kArg0, 5);
  a.li(10, 1);
  a.alu(Opcode::kSub, kArg0, kArg0, 10);
  a.alu(Opcode::kOr, 2, 2, kArg0);  // value on a hit, ~0 on a miss
  a.li(11, 24);
  a.alu(Opcode::kAdd, 11, P, 11);  // &payload[24]
  a.st64(2, P, 0);
  a.ld64(11, 11, 0);               // tag
  a.st64(11, P, 8);
  a.mov(kArg1, P);
  a.li(kArg2, 16);
  a.hook(HookId::kReply, 2, kArg1);
  a.ret();
  // Forward: refresh the in-place descent state (dividing the cached
  // finger offset back into the level the payload carries), ship to the
  // owning server.
  a.bind(fwd);
  a.li(kArg0, 8);
  a.alu(Opcode::kAdd, kArg0, P, kArg0);  // &payload[8]
  a.st64(6, kArg0, 0);
  a.li(10, workloads::kIndexFingerBytes);
  a.alu(Opcode::kUdiv, 11, 7, 10);  // level = finger offset / 16
  a.st64(11, kArg0, 8);
  a.alu(Opcode::kUdiv, kArg0, 6, 8);  // owner = node / nps
  a.mov(kArg1, P);
  a.mov(kArg2, N);
  a.hook(HookId::kForward, 11, kArg0);
  a.ret();
}

// Self-propagating BFS frontier expansion — emit_bfs_frontier(). Two
// message kinds discriminated by payload word 0:
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
void lower_bfs_frontier(Assembler& a, const ir::KernelOptions& o) {
  const auto visit_kind = a.make_label();
  const auto quiet = a.make_label();
  const auto reply_origin = a.make_label();
  const auto run = a.make_label();
  const auto wloop = a.make_label();
  const auto visit = a.make_label();
  const auto eloop = a.make_label();
  const auto push = a.make_label();
  const auto next_edge = a.make_label();
  const auto done = a.make_label();
  const auto complete_now = a.make_label();
  const auto ack_now = a.make_label();
  const auto send_ack = a.make_label();
  a.hook(HookId::kTarget, 5);
  a.ld64(11, P, 8);  // lane
  a.li(15, workloads::kLaneCellBytes);
  a.alu(Opcode::kMul, 11, 11, 15);
  a.alu(Opcode::kAdd, 5, 5, 11);   // cell = target + lane * 64
  a.ld64(2, P, 0);   // kind
  a.brz(2, visit_kind);
  // --- ack from a child server -----------------------------------------------
  a.ld64(10, 5, 40);               // deficit
  a.li(15, 1);
  a.alu(Opcode::kSub, 10, 10, 15);
  a.st64(10, 5, 40);
  a.brnz(10, quiet);               // children still outstanding
  a.li(15, 0);
  a.st64(15, 5, 24);               // disengage
  a.ld64(10, 5, 32);               // parent
  a.li(11, ~0ull);
  a.alu(Opcode::kCeq, 11, 10, 11);
  a.brnz(11, reply_origin);        // engagement root: origin completes
  a.br(send_ack);                  // cascade: ack our own parent
  a.bind(quiet);
  a.ret();
  // --- visit -----------------------------------------------------------------
  a.bind(visit_kind);
  a.hook(HookId::kShardBase, 2);
  a.hook(HookId::kSelfPeer, 3);
  a.ld64(4, 2, 0);   // vps = shard word 0
  a.ld64(10, P, 16); // vertex
  a.alu(Opcode::kUdiv, 11, 10, 4);
  a.alu(Opcode::kCeq, 15, 11, 3);
  a.brnz(15, run);
  a.mov(kArg0, 11);  // mis-routed: ship to the owning server
  a.mov(kArg1, P);
  a.mov(kArg2, N);
  a.hook(HookId::kForward, 15, kArg0);
  a.ret();
  a.bind(run);
  a.ld64(15, P, 24);
  a.st64(15, 5, 48); // park `from`: the expansion overwrites payload word 3
  a.ld64(6, 5, 8);   // visited bitmap base
  a.ld64(7, 5, 16);  // worklist base
  a.st64(10, 7, 0);  // worklist[0] = vertex
  a.li(8, 1);        // sp
  a.li(9, 0);        // spawned
  a.bind(wloop);
  a.brz(8, done);
  a.li(15, 1);
  a.alu(Opcode::kSub, 8, 8, 15);   // --sp
  a.li(15, 8);
  a.alu(Opcode::kMul, 10, 8, 15);
  a.alu(Opcode::kAdd, 10, 7, 10);
  a.ld64(10, 10);                  // u = worklist[sp]
  a.alu(Opcode::kUrem, 10, 10, 4); // local vertex index
  a.li(15, 6);
  a.alu(Opcode::kShr, 11, 10, 15);
  a.li(15, 8);
  a.alu(Opcode::kMul, 11, 11, 15);
  a.alu(Opcode::kAdd, 11, 6, 11);  // bitmap word address
  a.li(15, 63);
  a.alu(Opcode::kAnd, 12, 10, 15);
  a.li(15, 1);
  a.alu(Opcode::kShl, 13, 15, 12); // bit = 1 << (lu & 63)
  a.ld64(14, 11);                  // bitmap word
  a.alu(Opcode::kAnd, 15, 14, 13);
  a.brnz(15, wloop);               // already visited
  a.bind(visit);
  guard(a, o);
  a.alu(Opcode::kOr, 14, 14, 13);
  a.st64(14, 11);                  // mark visited
  a.ld64(15, 5, 0);
  a.li(13, 1);
  a.alu(Opcode::kAdd, 15, 15, 13);
  a.st64(15, 5, 0);                // ++cell.visited_count
  a.li(15, 8);
  a.alu(Opcode::kMul, 11, 10, 15);
  a.alu(Opcode::kAdd, 11, 2, 11);  // &row_offsets[lu] - 8
  a.ld64(10, 11, 8);               // e = row_offsets[lu]
  a.ld64(11, 11, 16);              // row_offsets[lu + 1]
  a.bind(eloop);
  a.alu(Opcode::kCult, 15, 10, 11);
  a.brz(15, wloop);
  a.alu(Opcode::kAdd, 14, 4, 10);  // vps + e
  a.li(15, 2);
  a.alu(Opcode::kAdd, 14, 14, 15);
  a.li(15, 8);
  a.alu(Opcode::kMul, 14, 14, 15);
  a.alu(Opcode::kAdd, 14, 2, 14);
  a.ld64(13, 14);                  // nb = cols[e]
  a.alu(Opcode::kUdiv, 14, 13, 4); // nb owner
  a.alu(Opcode::kCeq, 15, 14, 3);
  a.brnz(15, push);
  // Frontier leaves the shard: forward, stamping ourselves as its `from`.
  a.li(15, 16);
  a.alu(Opcode::kAdd, 15, P, 15);  // &payload[16]
  a.st64(13, 15, 0);
  a.st64(3, 15, 8);
  a.mov(kArg0, 14);
  a.mov(kArg1, P);
  a.li(kArg2, 32);
  a.hook(HookId::kForward, 15, kArg0);
  a.li(15, 1);
  a.alu(Opcode::kAdd, 9, 9, 15);   // ++spawned
  a.br(next_edge);
  a.bind(push);
  a.li(15, 8);
  a.alu(Opcode::kMul, 14, 8, 15);
  a.alu(Opcode::kAdd, 14, 7, 14);
  a.st64(13, 14);                  // worklist[sp] = nb
  a.li(15, 1);
  a.alu(Opcode::kAdd, 8, 8, 15);   // ++sp
  a.bind(next_edge);
  a.li(15, 1);
  a.alu(Opcode::kAdd, 10, 10, 15); // ++e
  a.br(eloop);
  a.bind(done);
  a.ld64(10, 5, 40);
  a.alu(Opcode::kAdd, 10, 10, 9);
  a.st64(10, 5, 40);               // deficit += spawned
  a.ld64(11, 5, 24);               // engaged?
  a.brnz(11, ack_now);
  a.brz(9, complete_now);          // spawned == 0: resolve immediately
  a.ld64(10, 5, 48);               // the parked `from`
  a.st64(10, 5, 32);               // parent = from
  a.li(11, 1);
  a.st64(11, 5, 24);               // engage (ack deferred to disengage)
  a.ret();
  a.bind(complete_now);            // neutral, childless: resolve now
  a.ld64(10, 5, 48);               // the parked `from`
  a.li(11, ~0ull);
  a.alu(Opcode::kCeq, 11, 10, 11);
  a.brnz(11, reply_origin);        // the seed itself resolved in one shot
  a.br(send_ack);
  a.bind(ack_now);                 // already engaged: ack the sender now
  a.ld64(10, 5, 48);               // the parked `from`
  a.bind(send_ack);                // r10 = destination peer
  a.li(15, 1);
  a.st64(15, P, 0);                // kind = ack ([1][lane])
  a.mov(kArg0, 10);
  a.mov(kArg1, P);
  a.li(kArg2, 16);
  a.hook(HookId::kForward, 15, kArg0);
  a.ret();
  a.bind(reply_origin);
  a.ld64(15, P, 8);                // reply [lane][0] to the chain origin
  a.st64(15, P, 0);
  a.li(15, 0);
  a.st64(15, P, 8);
  a.mov(kArg1, P);
  a.li(kArg2, 16);
  a.hook(HookId::kReply, 15, kArg1);
  a.ret();
}

// The kernels without a KIR definition; kir::has_kernel_def routes the
// rest through kir::emit_vm before this switch is reached.
StatusOr<Program> lower_unported(ir::KernelKind kind,
                                 const ir::KernelOptions& options) {
  Assembler a;
  switch (kind) {
    case ir::KernelKind::kSaxpy: lower_saxpy(a, options); break;
    case ir::KernelKind::kSpawner: lower_spawner(a, options); break;
    case ir::KernelKind::kSinSum: lower_sin_sum(a, options); break;
    case ir::KernelKind::kRemoteStore: lower_remote_store(a, options); break;
    case ir::KernelKind::kStatsSummary:
      lower_stats_summary(a, options);
      break;
    case ir::KernelKind::kTreeBroadcast:
      lower_tree_broadcast(a, options);
      break;
    case ir::KernelKind::kCollectiveBroadcast:
      lower_collective_broadcast(a, options);
      break;
    case ir::KernelKind::kCollectiveReduce:
      lower_collective_reduce(a, options);
      break;
    case ir::KernelKind::kOrderedSearch:
      lower_ordered_search(a, options);
      break;
    case ir::KernelKind::kBfsFrontier: lower_bfs_frontier(a, options); break;
    default:
      return internal_error(std::string("vm: ") + ir::kernel_name(kind) +
                            " has a KIR definition, not a hand lowering");
  }
  return a.finish(kRegs);
}

}  // namespace

StatusOr<Program> lower_kernel(ir::KernelKind kind,
                               const ir::KernelOptions& options) {
  TC_RETURN_IF_ERROR(ir::check_kernel_options(kind, options));
  if (!kir::has_kernel_def(kind)) return lower_unported(kind, options);
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
