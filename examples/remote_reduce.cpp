// Remote reduction on DPUs: ship a vector-sum kernel *with its data* to a
// set of DPU nodes, let each reduce its slice near the (virtual) memory it
// lives in, and collect the partial sums — the "move compute to the data"
// motivation of the paper, using the VecReduce kernel.
//
// Also demonstrates µarch-aware codegen: the same portable bitcode is
// optimized for the local CPU by each receiving ORC engine.
//
// Run: ./remote_reduce [dpus] [elements]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/ifunc.hpp"
#include "core/runtime.hpp"

using namespace tc;

int main(int argc, char** argv) {
  const std::size_t dpus = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4;
  const std::uint64_t elements =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 100'000;

  fabric::Fabric fabric;
  fabric.set_default_link(fabric::LinkModel{1800, 0.31, 90, 0.31, 755, 1015});
  const fabric::NodeId host = fabric.add_node("host");
  std::vector<fabric::NodeId> dpu_nodes;
  for (std::size_t i = 0; i < dpus; ++i) {
    dpu_nodes.push_back(fabric.add_node("dpu" + std::to_string(i), 3.0));
  }

  auto rt_host = core::Runtime::create(fabric, host);
  if (!rt_host.is_ok()) return 1;
  std::vector<std::unique_ptr<core::Runtime>> rt_dpus;
  std::vector<double> partials(dpus, 0.0);
  for (std::size_t i = 0; i < dpus; ++i) {
    auto rt = core::Runtime::create(fabric, dpu_nodes[i]);
    if (!rt.is_ok()) return 1;
    (*rt)->set_target_ptr(&partials[i]);
    rt_dpus.push_back(std::move(*rt));
  }

  auto library = core::IfuncLibrary::from_kernel(ir::KernelKind::kVecReduce);
  if (!library.is_ok()) return 1;
  auto id = (*rt_host)->register_ifunc(std::move(*library));
  if (!id.is_ok()) return 1;

  // Build per-DPU payloads: [n][doubles...] — data travels WITH the code.
  const std::uint64_t per_dpu = elements / dpus;
  double expected = 0.0;
  std::vector<Bytes> payloads;
  for (std::size_t d = 0; d < dpus; ++d) {
    ByteWriter w;
    w.u64(per_dpu);
    for (std::uint64_t i = 0; i < per_dpu; ++i) {
      const double v = 1e-3 * static_cast<double>(d * per_dpu + i);
      expected += v;
      w.f64(v);
    }
    payloads.push_back(std::move(w).take());
  }

  std::printf("shipping vec_reduce ifunc + %llu doubles to %zu DPUs...\n",
              static_cast<unsigned long long>(per_dpu * dpus), dpus);
  for (std::size_t d = 0; d < dpus; ++d) {
    if (Status s =
            (*rt_host)->send_ifunc(dpu_nodes[d], *id, as_span(payloads[d]));
        !s.is_ok()) {
      std::fprintf(stderr, "send failed: %s\n", s.to_string().c_str());
      return 1;
    }
  }
  fabric.run_until_idle();

  double total = 0.0;
  for (std::size_t d = 0; d < dpus; ++d) {
    std::printf("  dpu%zu partial sum = %.3f (jit %.2f ms real)\n", d,
                partials[d],
                static_cast<double>(rt_dpus[d]->stats().real_jit_ns_total) *
                    1e-6);
    total += partials[d];
  }
  std::printf("reduced total = %.3f, expected = %.3f\n", total, expected);
  std::printf("virtual completion time: %.1f us (payload bytes dominated "
              "the wire: %.1f KB per DPU)\n",
              static_cast<double>(fabric.now()) * 1e-3,
              static_cast<double>(payloads[0].size()) / 1024.0);

  return (total > expected - 1e-6 && total < expected + 1e-6) ? 0 : 1;
}
