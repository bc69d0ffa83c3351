#include "hetsim/profiles.hpp"

namespace tc::hetsim {

const char* platform_name(Platform platform) {
  switch (platform) {
    case Platform::kOokami: return "ookami_a64fx";
    case Platform::kThorBF2: return "thor_bf2";
    case Platform::kThorXeon: return "thor_xeon";
  }
  return "unknown";
}

namespace {

// Ookami (Table I / IV): AM 2.58 µs & 1.32 M msg/s, cached bitcode 2.67 µs &
// 1.669 M msg/s, uncached 5.12 µs & 405 K msg/s, JIT 6.59 ms.
HwProfile make_ookami() {
  HwProfile p;
  p.name = platform_name(Platform::kOokami);
  p.link.latency_ns = 2500;
  p.link.per_op_ns = 105;
  p.link.ns_per_byte = 0.42;     // (5.02-2.62) µs over 5159 B ≈ 0.46; tuned
  p.link.gap_ns_per_byte = 0.36;  // rate gap uncached-cached over code bytes
  p.link.gap_send_ns = 585;       // 1/1.669 M - 31 B payload share
  p.link.gap_am_ns = 742;         // 1/1.32 M - 33 B share
  p.server_compute_scale = 1.0;   // A64FX on both ends
  p.jit_cost_ns = 6'590'000;
  p.link_cost_ns = 180'000;       // object link: no IR work, ~3% of JIT
  p.ifunc_exec_ns = 50;           // Table I Lookup+Exec, cached
  p.am_exec_ns = 80;
  p.hll_guard_ns = 400;
  p.interp_op_ns = 18;            // A64FX: weak single-thread dispatch
  p.vm_load_ns = 6'000;
  // Batching: one descriptor update per extra sub-frame (~1/4 of the full
  // per-message gap) on the wire; header walk + dispatch on unpack.
  p.link.gap_batch_item_ns = 150;
  p.batch_unpack_ns = 120;
  p.dapc_ifunc_hop_ns = 1400;     // Fig. 6: Get-Bitcode gap ~= +30% @64 srv
  p.dapc_am_hop_ns = 1300;
  return p;
}

// Thor BF2 (Table II / V): AM 1.88 µs & 974 K msg/s, cached 1.87 µs &
// 1.311 M msg/s, uncached 3.49 µs & 417 K msg/s, JIT 4.50 ms.
HwProfile make_thor_bf2() {
  HwProfile p;
  p.name = platform_name(Platform::kThorBF2);
  p.link.latency_ns = 1750;
  p.link.per_op_ns = 90;
  p.link.ns_per_byte = 0.31;      // (3.45-1.85) µs over 5159 B
  p.link.gap_ns_per_byte = 0.316;
  p.link.gap_send_ns = 755;
  p.link.gap_am_ns = 1015;
  p.server_compute_scale = 3.0;   // Cortex-A72 vs Xeon single-thread
  p.jit_cost_ns = 4'500'000;
  p.link_cost_ns = 150'000;
  p.ifunc_exec_ns = 10;           // Table II Lookup+Exec
  p.am_exec_ns = 10;
  p.hll_guard_ns = 700;
  p.interp_op_ns = 25;            // Cortex-A72 switch-dispatch cost
  p.vm_load_ns = 8'000;
  // Batching: the A72 receive path makes unpack the costlier share.
  p.link.gap_batch_item_ns = 180;
  p.batch_unpack_ns = 150;
  // Raw (unscaled) per-hop cost of the A72 receive path, calibrated to the
  // Fig. 5 Get-Bitcode gap of ~+20% at 32 servers.
  p.dapc_ifunc_hop_ns = 1200;
  p.dapc_am_hop_ns = 1100;
  return p;
}

// Thor Xeon (Table III / VI): AM 1.56 µs & 6.754 M msg/s, cached 1.53 µs &
// 7.302 M msg/s, uncached 3.59 µs & 2.037 M msg/s, JIT 0.83 ms.
HwProfile make_thor_xeon() {
  HwProfile p;
  p.name = platform_name(Platform::kThorXeon);
  p.link.latency_ns = 1400;
  p.link.per_op_ns = 100;
  p.link.ns_per_byte = 0.40;      // (3.58-1.51) µs over 5159 B
  p.link.gap_ns_per_byte = 0.068;  // rate path runs near line rate on Xeon
  p.link.gap_send_ns = 125;        // 1/7.302 M
  p.link.gap_am_ns = 136;          // 1/6.754 M
  p.server_compute_scale = 1.0;
  p.jit_cost_ns = 830'000;
  p.link_cost_ns = 60'000;
  p.ifunc_exec_ns = 15;
  p.am_exec_ns = 10;
  p.hll_guard_ns = 250;
  p.interp_op_ns = 6;             // Xeon: ~15 cycles/op at 2.6 GHz
  p.vm_load_ns = 2'000;
  // Batching: Xeon runs near line rate, so both shares are small.
  p.link.gap_batch_item_ns = 45;
  p.batch_unpack_ns = 30;
  p.dapc_ifunc_hop_ns = 200;      // Fig. 7: gap ~= +75% @16 srv
  p.dapc_am_hop_ns = 150;
  return p;
}

}  // namespace

const HwProfile& profile_for(Platform platform) {
  static const HwProfile ookami = make_ookami();
  static const HwProfile bf2 = make_thor_bf2();
  static const HwProfile xeon = make_thor_xeon();
  switch (platform) {
    case Platform::kOokami: return ookami;
    case Platform::kThorBF2: return bf2;
    case Platform::kThorXeon: return xeon;
  }
  return xeon;
}

}  // namespace tc::hetsim
