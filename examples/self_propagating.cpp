// Self-propagating code: the paper's headline capability — "the remotely
// injected code can recursively propagate itself to other remote machines".
//
// An eight-node ring. The client launches one RingHop ifunc with a TTL; on
// every node the JIT'd code decrements the TTL and re-injects *itself* to
// the next peer, carrying its own fat-bitcode on first contact and a
// truncated frame on revisits. When the TTL expires it replies to the
// origin. Watch the JIT-compile count: exactly one per node, no matter how
// many laps the code runs.
//
// Run: ./self_propagating [ttl]
#include <cstdio>
#include <cstdlib>

#include "core/ifunc.hpp"
#include "core/runtime.hpp"

using namespace tc;

int main(int argc, char** argv) {
  const std::uint64_t ttl = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 21;
  constexpr std::size_t kNodes = 8;

  fabric::Fabric fabric;
  // A realistic-ish fabric: 2 µs links.
  fabric.set_default_link(fabric::LinkModel{2000, 0.4, 100, 0.4, 100, 150});

  std::vector<fabric::NodeId> nodes;
  std::vector<std::unique_ptr<core::Runtime>> runtimes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(fabric.add_node("node" + std::to_string(i)));
  }
  for (auto node : nodes) {
    auto rt = core::Runtime::create(fabric, node);
    if (!rt.is_ok()) return 1;
    (*rt)->set_peers(nodes);
    runtimes.push_back(std::move(*rt));
  }

  auto library = core::IfuncLibrary::from_kernel(ir::KernelKind::kRingHop);
  if (!library.is_ok()) return 1;
  auto id = runtimes[0]->register_ifunc(std::move(*library));
  if (!id.is_ok()) return 1;

  bool done = false;
  std::uint64_t hops = 0;
  runtimes[0]->set_result_handler([&](ByteSpan data, fabric::NodeId from) {
    ByteReader r(data);
    std::uint64_t final_ttl = 0;
    (void)r.u64(final_ttl);
    (void)r.u64(hops);
    std::printf("result returned by node %u: ttl=%llu hops=%llu\n", from,
                static_cast<unsigned long long>(final_ttl),
                static_cast<unsigned long long>(hops));
    done = true;
  });

  ByteWriter w;
  w.u64(ttl);
  w.u64(0);
  std::printf("launching self-propagating ifunc with ttl=%llu into an "
              "%zu-node ring...\n",
              static_cast<unsigned long long>(ttl), kNodes);
  if (Status s = runtimes[0]->send_ifunc(nodes[1], *id, as_span(w.bytes()));
      !s.is_ok()) {
    std::fprintf(stderr, "send failed: %s\n", s.to_string().c_str());
    return 1;
  }
  if (Status s = fabric.run_until([&] { return done; }); !s.is_ok()) {
    std::fprintf(stderr, "simulation stalled: %s\n", s.to_string().c_str());
    return 1;
  }

  std::printf("\nper-node view (the code moved, the JIT ran once per node):\n");
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto& st = runtimes[i]->stats();
    std::printf("  node%zu: executed=%llu jit_compiles=%llu sent_full=%llu "
                "sent_truncated=%llu\n",
                i, static_cast<unsigned long long>(st.frames_executed),
                static_cast<unsigned long long>(st.jit_compiles),
                static_cast<unsigned long long>(st.frames_sent_full),
                static_cast<unsigned long long>(st.frames_sent_truncated));
  }
  std::printf("virtual time elapsed: %.1f us\n",
              static_cast<double>(fabric.now()) * 1e-3);
  return hops == ttl ? 0 : 1;
}
