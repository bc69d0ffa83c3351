// Ablation: how the shipped-code size drives the caching win. Sweeps
// synthetic archive sizes from 64 B to 64 KiB on each platform's link model
// and reports cached vs uncached latency and message rate — the crossover
// behind the paper's "shipping such a large amount of extra data could have
// a significant negative impact".
#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "fabric/link_model.hpp"
#include "hetsim/profiles.hpp"

using namespace tc;

int main() {
  constexpr std::size_t kSizes[] = {64, 256, 1024, 5159, 16384, 65536};
  constexpr std::size_t kTruncated = 31;  // header + 1 B payload + MAGIC

  for (auto platform :
       {hetsim::Platform::kOokami, hetsim::Platform::kThorBF2,
        hetsim::Platform::kThorXeon}) {
    const auto& profile = hetsim::profile_for(platform);
    const fabric::LinkModel& link = profile.link;
    std::printf("=== caching ablation on %s ===\n", profile.name.c_str());
    std::printf("%-10s %14s %14s %14s %14s %10s\n", "code_B", "lat_full_us",
                "lat_trunc_us", "rate_full", "rate_trunc", "saving");
    for (std::size_t size : kSizes) {
      const double lat_full =
          static_cast<double>(link.transmit_ns(kTruncated + size)) * 1e-3;
      const double lat_trunc =
          static_cast<double>(link.transmit_ns(kTruncated)) * 1e-3;
      const double rate_full =
          1e9 / static_cast<double>(
                    link.occupancy_ns(kTruncated + size,
                                      fabric::OpClass::kSend));
      const double rate_trunc =
          1e9 / static_cast<double>(
                    link.occupancy_ns(kTruncated, fabric::OpClass::kSend));
      std::printf("%-10zu %11.2f us %11.2f us %10.0f m/s %10.0f m/s %9.1fx\n",
                  size, lat_full, lat_trunc, rate_full, rate_trunc,
                  rate_trunc / rate_full);
    }
    std::printf("\n");
  }
  std::printf("(pure link-model sweep; end-to-end confirmation in the "
              "table benches)\n");
  return 0;
}
