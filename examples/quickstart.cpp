// Quickstart: the smallest complete Three-Chains program.
//
// Builds a two-node virtual cluster, registers the Target-Side Increment
// ifunc on the "client" node, and injects it into the "server" node three
// times. The first message carries the multi-ISA fat-bitcode archive and is
// JIT-compiled by ORC on arrival; the next two are truncated (code cached)
// and execute immediately. This is the paper's Fig. 1 workflow end to end.
//
// Run: ./quickstart
#include <cstdio>

#include "core/ifunc.hpp"
#include "core/runtime.hpp"

using namespace tc;

int main() {
  // 1. A fabric with two nodes. instant_link() means we only care about
  //    functional behaviour here, not modeled wire time.
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  const fabric::NodeId client = fabric.add_node("client");
  const fabric::NodeId server = fabric.add_node("server");

  // 2. A Three-Chains runtime on each node.
  auto rt_client = core::Runtime::create(fabric, client);
  auto rt_server = core::Runtime::create(fabric, server);
  if (!rt_client.is_ok() || !rt_server.is_ok()) {
    std::fprintf(stderr, "runtime creation failed\n");
    return 1;
  }

  // 3. Build the TSI ifunc library: LLVM bitcode for x86_64 AND aarch64,
  //    packed into one fat archive (the toolchain step of the paper).
  auto library = core::IfuncLibrary::from_kernel(
      ir::KernelKind::kTargetSideIncrement);
  if (!library.is_ok()) {
    std::fprintf(stderr, "kernel build failed: %s\n",
                 library.status().to_string().c_str());
    return 1;
  }
  std::printf("built ifunc '%s': %zu bytes of fat-bitcode for %zu ISAs\n",
              library->name().c_str(), library->archive().code_size(),
              library->archive().entries().size());

  auto id = (*rt_client)->register_ifunc(std::move(*library));
  if (!id.is_ok()) return 1;

  // 4. The server exposes a counter as the user-defined target pointer.
  std::uint64_t counter = 0;
  (*rt_server)->set_target_ptr(&counter);

  // 5. Inject the function (with a 1-byte payload) three times.
  Bytes payload{0};
  for (int i = 0; i < 3; ++i) {
    if (Status s = (*rt_client)->send_ifunc(server, *id, as_span(payload));
        !s.is_ok()) {
      std::fprintf(stderr, "send failed: %s\n", s.to_string().c_str());
      return 1;
    }
  }
  fabric.run_until_idle();

  // 6. Observe what happened.
  const auto& tx = (*rt_client)->stats();
  const auto& rx = (*rt_server)->stats();
  std::printf("server counter = %llu (expected 3)\n",
              static_cast<unsigned long long>(counter));
  std::printf("client sent: %llu full frame(s), %llu truncated frame(s), "
              "%llu code bytes saved by caching\n",
              static_cast<unsigned long long>(tx.frames_sent_full),
              static_cast<unsigned long long>(tx.frames_sent_truncated),
              static_cast<unsigned long long>(tx.code_bytes_saved));
  std::printf("server: %llu JIT compile(s), %llu execution(s), real JIT "
              "time %.2f ms\n",
              static_cast<unsigned long long>(rx.jit_compiles),
              static_cast<unsigned long long>(rx.frames_executed),
              static_cast<double>(rx.real_jit_ns_total) * 1e-6);
  return counter == 3 ? 0 : 1;
}
