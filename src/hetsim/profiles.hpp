// Hardware profiles for the paper's two testbeds (three configurations).
//
// Each profile pins the virtual-time constants of one platform, calibrated
// against the paper's own measurements (Tables I-VI):
//
//   Ookami    — Fujitsu A64FX FX700 nodes, ConnectX-6 100 Gb/s IB
//   Thor BF2  — BlueField-2 DPUs (Cortex-A72) on Thor, 100 Gb/s IB
//   Thor Xeon — Xeon E5-2697A hosts on Thor, 100 Gb/s IB
//
// Calibration sources:
//   * link latency/bandwidth — cached vs uncached transmission times
//     (Tables I-III) and their message-rate gaps (Tables IV-VI);
//   * JIT cost — the measured one-time compile (6.59 ms / 4.50 ms / 0.83 ms);
//   * exec costs — the Lookup+Exec rows;
//   * AM injection gap — the AM vs cached-ifunc message-rate difference.
#pragma once

#include <cstdint>
#include <string>

#include "fabric/link_model.hpp"

namespace tc::hetsim {

enum class Platform { kOokami, kThorBF2, kThorXeon };

const char* platform_name(Platform platform);

struct HwProfile {
  std::string name;
  fabric::LinkModel link;

  /// Compute-time multiplier for server nodes; >1 models slower cores (the
  /// BF2's Cortex-A72 vs the Xeon host). Client nodes, the hosts every
  /// profile's timings are measured on, run at 1.0.
  double server_compute_scale = 1.0;

  /// One-time bitcode JIT compile of the TSI-sized ifunc (Tables I-III).
  std::int64_t jit_cost_ns = 0;
  /// Binary (object) representation link-only deployment cost.
  std::int64_t link_cost_ns = 0;
  /// Cached-ifunc lookup+execute per invocation.
  std::int64_t ifunc_exec_ns = 0;
  /// Active-Message handler dispatch+execute per invocation.
  std::int64_t am_exec_ns = 0;
  /// Per-guard cost of the high-level-language (Julia-analogue) frontend.
  std::int64_t hll_guard_ns = 0;

  /// Interpreter tier (portable bytecode). Per-executed-instruction cost,
  /// calibrated per core type from interpreter microbenchmarks
  /// (switch-dispatch interpreters run ~10-30 cycles/op; slower on the
  /// in-order-leaning A64FX and the BF2's Cortex-A72 than on the Xeon).
  /// <0 matches the RuntimeOptions sentinel: charge measured wall time —
  /// an uncalibrated profile falls back to measurement instead of running
  /// the interpreter for free.
  std::int64_t interp_op_ns = -1;
  /// One-time decode+validate of a portable program on first arrival — the
  /// cold-path cost that replaces the JIT compile (µs, not ms).
  std::int64_t vm_load_ns = -1;

  /// Frame-batching overheads (protocol v2 coalesced sends). Injection of
  /// each additional sub-frame in a batched message costs the NIC a
  /// doorbell/descriptor update but not the full per-message gap
  /// (link.gap_batch_item_ns carries the link-side share); the receiver
  /// pays this per-sub-frame decode charge when unpacking the container.
  /// Calibrated alongside interp_op_ns: the unpack is a short header walk,
  /// tens of ns on a Xeon, ~4x that on the weaker A64FX/A72 cores.
  std::int64_t batch_unpack_ns = 0;

  /// DAPC per-hop request-processing costs. The paper's DAPC hops carry
  /// more per-message server work than the bare TSI ping (frame decode,
  /// payload rewrite, forward-frame assembly, heavier polling) — these are
  /// calibrated from the Fig. 5-7 Get-vs-Bitcode gaps and are applied by
  /// hetsim::Cluster (used for DAPC experiments), while the plain TSI
  /// constants above reproduce Tables I-VI.
  std::int64_t dapc_ifunc_hop_ns = 0;
  std::int64_t dapc_am_hop_ns = 0;
};

const HwProfile& profile_for(Platform platform);

}  // namespace tc::hetsim
