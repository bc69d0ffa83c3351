// tc_inspect — command-line inspector for Three-Chains wire artifacts.
//
//   tc_inspect demo                      build the TSI demo archive and dump it
//   tc_inspect archive <file>            dump a serialized fat archive
//                                        (TCFB bitcode / TCFO object / TCFP portable)
//   tc_inspect frame <file>              decode an ifunc message frame
//   tc_inspect trace <file> [n]          digest a Chrome trace-event JSON
//                                        (fig_workloads --trace output):
//                                        per-request hop chains with node,
//                                        tier, repr and service time
//   tc_inspect disas <file> [triple]     disassemble one archive entry —
//                                        portable entries print vm mnemonics,
//                                        bitcode entries print .ll (needs LLVM)
//   tc_inspect emit-demo <file>          write the TSI demo archive to a file
//   tc_inspect emit-vm-demo <file>       write the portable TSI archive
//   tc_inspect kernels                   list the stock KernelKind catalogue
//                                        (wire name + one-line description)
//   tc_inspect kir <kernel> [--hll] [--tagged]
//                                        dump a KIR-sourced kernel: the KIR
//                                        definition, the generated bytecode,
//                                        the legacy lowering, and a
//                                        BYTE-IDENTICAL / DIFFERS verdict
//                                        (exit 0 only when identical)
//
// Useful when debugging what actually travels on the wire: entry triples,
// code sizes, deps manifests, header fields, delimiter placement.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/frame.hpp"
#include "ir/fat_bitcode.hpp"
#include "ir/kernels.hpp"
#include "kir/kernels.hpp"
#include "kir/kir.hpp"
#include "kir/vm_backend.hpp"
#include "obs/export.hpp"
#include "vm/bytecode.hpp"
#include "vm/lower.hpp"

#if TC_WITH_LLVM
#include "ir/kernel_builder.hpp"
#include "ir/textual.hpp"
#endif

using namespace tc;

namespace {

StatusOr<Bytes> read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return not_found(std::string("cannot open ") + path);
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  return data;
}

int dump_archive(const ir::FatBitcode& archive) {
  std::printf("fat archive: repr=%s entries=%zu deps=%zu code=%zu bytes "
              "(serialized %zu bytes)\n",
              ir::code_repr_name(archive.repr()), archive.entries().size(),
              archive.dependencies().size(), archive.code_size(),
              archive.serialize().size());
  for (const ir::ArchiveEntry& entry : archive.entries()) {
    std::printf("  entry: triple=%-28s cpu=%-12s %zu bytes\n",
                entry.target.triple.c_str(),
                entry.target.cpu.empty() ? "(generic)"
                                         : entry.target.cpu.c_str(),
                entry.code.size());
  }
  for (const std::string& dep : archive.dependencies()) {
    std::printf("  dep: %s\n", dep.c_str());
  }
  return 0;
}

int cmd_archive(const char* path) {
  auto data = read_file(path);
  if (!data.is_ok()) {
    std::fprintf(stderr, "%s\n", data.status().to_string().c_str());
    return 1;
  }
  auto archive = ir::FatBitcode::deserialize(as_span(*data));
  if (!archive.is_ok()) {
    std::fprintf(stderr, "not a fat archive: %s\n",
                 archive.status().to_string().c_str());
    return 1;
  }
  return dump_archive(*archive);
}

int cmd_frame(const char* path) {
  auto data = read_file(path);
  if (!data.is_ok()) {
    std::fprintf(stderr, "%s\n", data.status().to_string().c_str());
    return 1;
  }
  auto header = core::Frame::peek_header(as_span(*data));
  if (!header.is_ok()) {
    std::fprintf(stderr, "bad frame header: %s\n",
                 header.status().to_string().c_str());
    return 1;
  }
  auto has_code = core::Frame::validate(as_span(*data));
  std::printf("ifunc frame: id=%016llx repr=%s%s origin=node%u\n",
              static_cast<unsigned long long>(header->ifunc_id),
              ir::code_repr_name(static_cast<ir::CodeRepr>(header->repr)),
              header->code_only ? " (code-only)" : "",
              header->origin_node);
  if (header->traced()) {
    std::printf("  trace:   id=%llu hop=%u parent_span=%u\n",
                static_cast<unsigned long long>(header->trace.trace_id),
                header->trace.hop, header->trace.parent_span);
  }
  std::printf("  payload: %u bytes\n", header->payload_size);
  std::printf("  code:    %u bytes (%s)\n", header->code_size,
              has_code.is_ok() && *has_code ? "present"
                                            : "truncated / not delivered");
  std::printf("  sizes:   truncated=%zu full=%zu\n",
              header->prefix_size() + header->payload_size + core::kMagicSize,
              header->prefix_size() + header->payload_size + core::kMagicSize +
                  header->code_size + core::kMagicSize);
  if (has_code.is_ok() && *has_code) {
    auto archive = ir::FatBitcode::deserialize(
        core::Frame::code_view(as_span(*data), *header));
    if (archive.is_ok()) {
      std::printf("  embedded ");
      dump_archive(*archive);
    }
  }
  return 0;
}

int disas_portable(const ir::ArchiveEntry& entry) {
  auto program = vm::Program::deserialize(as_span(entry.code));
  if (!program.is_ok()) {
    std::fprintf(stderr, "bad portable program: %s\n",
                 program.status().to_string().c_str());
    return 1;
  }
  std::fputs(vm::disassemble(*program).c_str(), stdout);
  return 0;
}

int cmd_disas(const char* path, const char* triple) {
  auto data = read_file(path);
  if (!data.is_ok()) {
    std::fprintf(stderr, "%s\n", data.status().to_string().c_str());
    return 1;
  }
  auto archive = ir::FatBitcode::deserialize(as_span(*data));
  if (!archive.is_ok()) {
    std::fprintf(stderr, "not a fat archive: %s\n",
                 archive.status().to_string().c_str());
    return 1;
  }
  // Portable archives (or an explicit "portable" triple) disassemble to vm
  // mnemonics — no LLVM involved.
  if (triple != nullptr && std::string(triple) == ir::kTriplePortable) {
    auto entry = archive->select_portable();
    if (!entry.is_ok()) {
      std::fprintf(stderr, "%s\n", entry.status().to_string().c_str());
      return 1;
    }
    return disas_portable(**entry);
  }
  if (triple == nullptr && archive->repr() == ir::CodeRepr::kPortable) {
    if (auto entry = archive->select_portable(); entry.is_ok()) {
      return disas_portable(**entry);
    }
  }
#if TC_WITH_LLVM
  const std::string want = triple != nullptr ? triple : ir::host_triple();
  auto entry = archive->select(want);
  if (!entry.is_ok()) {
    std::fprintf(stderr, "%s\n", entry.status().to_string().c_str());
    return 1;
  }
  auto text = ir::bitcode_to_ll(as_span((*entry)->code));
  if (!text.is_ok()) {
    std::fprintf(stderr, "%s\n", text.status().to_string().c_str());
    return 1;
  }
  std::fputs(text->c_str(), stdout);
  return 0;
#else
  std::fprintf(stderr,
               "bitcode disassembly needs LLVM (built with TC_WITH_LLVM=OFF); "
               "only portable entries can be shown\n");
  return 1;
#endif
}

int write_archive(const ir::FatBitcode& archive, const char* path) {
  const Bytes wire = archive.serialize();
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(wire.data()),
            static_cast<std::streamsize>(wire.size()));
  std::printf("wrote %zu bytes to %s\n", wire.size(), path);
  return out ? 0 : 1;
}

// The TSI demo archive: multi-ISA bitcode when the toolchain is available,
// the portable representation otherwise.
StatusOr<ir::FatBitcode> demo_archive() {
#if TC_WITH_LLVM
  return ir::build_default_fat_kernel(ir::KernelKind::kTargetSideIncrement);
#else
  return vm::build_portable_kernel(ir::KernelKind::kTargetSideIncrement);
#endif
}

int cmd_demo() {
  auto archive = demo_archive();
  if (!archive.is_ok()) {
    std::fprintf(stderr, "%s\n", archive.status().to_string().c_str());
    return 1;
  }
  return dump_archive(*archive);
}

int cmd_emit_demo(const char* path) {
  auto archive = demo_archive();
  if (!archive.is_ok()) {
    std::fprintf(stderr, "%s\n", archive.status().to_string().c_str());
    return 1;
  }
  return write_archive(*archive, path);
}

int cmd_kernels() {
  std::printf("%d stock ifunc kernels (wire name: description):\n",
              ir::kKernelKindCount);
  for (int k = 0; k < ir::kKernelKindCount; ++k) {
    const auto kind = static_cast<ir::KernelKind>(k);
    std::printf("  %-16s %s\n", ir::kernel_name(kind),
                ir::kernel_description(kind));
  }
  return 0;
}

int cmd_emit_vm_demo(const char* path) {
  auto archive = vm::build_portable_kernel(ir::KernelKind::kTargetSideIncrement);
  if (!archive.is_ok()) {
    std::fprintf(stderr, "%s\n", archive.status().to_string().c_str());
    return 1;
  }
  return write_archive(*archive, path);
}

// The conformance lens CI attaches on a kir_test byte-diff failure: shows
// exactly what the KIR vm backend produced next to the legacy lowering.
int cmd_kir(const char* kernel, bool hll, bool tagged) {
  int found = -1;
  for (int k = 0; k < ir::kKernelKindCount; ++k) {
    if (std::strcmp(ir::kernel_name(static_cast<ir::KernelKind>(k)),
                    kernel) == 0) {
      found = k;
      break;
    }
  }
  if (found < 0) {
    std::fprintf(stderr, "unknown kernel '%s' (see: tc_inspect kernels)\n",
                 kernel);
    return 2;
  }
  const auto kind = static_cast<ir::KernelKind>(found);
  if (ir::kernel_source(kind) != ir::KernelSource::kKir) {
    std::fprintf(stderr, "%s is still on the legacy emitters (source=%s)\n",
                 kernel, ir::kernel_source_name(ir::kernel_source(kind)));
    return 2;
  }
  ir::KernelOptions options;
  options.hll_guards = hll;
  options.chaser_tagged = tagged;

  auto raw = kir::kernel_def(kind, options);
  if (!raw.is_ok()) {
    std::fprintf(stderr, "%s\n", raw.status().to_string().c_str());
    return 1;
  }
  std::printf("--- KIR definition (raw: guard/trace markers in place) ---\n");
  std::fputs(kir::dump(*raw).c_str(), stdout);

  auto prepared = kir::prepared_def(kind, options);
  if (!prepared.is_ok()) {
    std::fprintf(stderr, "%s\n", prepared.status().to_string().c_str());
    return 1;
  }
  auto generated = kir::emit_vm(*prepared);
  if (!generated.is_ok()) {
    std::fprintf(stderr, "kir→vm: %s\n",
                 generated.status().to_string().c_str());
    return 1;
  }
  auto legacy = vm::lower_kernel_legacy(kind, options);
  if (!legacy.is_ok()) {
    std::fprintf(stderr, "legacy lowering: %s\n",
                 legacy.status().to_string().c_str());
    return 1;
  }
  std::printf("--- generated bytecode (kir→vm) ---\n");
  std::fputs(vm::disassemble(*generated).c_str(), stdout);
  std::printf("--- legacy bytecode (vm/lower.cpp) ---\n");
  std::fputs(vm::disassemble(*legacy).c_str(), stdout);

  const Bytes gen_wire = generated->serialize();
  const Bytes leg_wire = legacy->serialize();
  const bool identical = gen_wire == leg_wire;
  std::printf("--- verdict: %s (%zu vs %zu wire bytes) ---\n",
              identical ? "BYTE-IDENTICAL" : "DIFFERS", gen_wire.size(),
              leg_wire.size());
  return identical ? 0 : 1;
}

int cmd_trace(const char* path, const char* max_traces_arg) {
  auto data = read_file(path);
  if (!data.is_ok()) {
    std::fprintf(stderr, "%s\n", data.status().to_string().c_str());
    return 1;
  }
  std::size_t max_traces = 0;
  if (max_traces_arg != nullptr) {
    max_traces = static_cast<std::size_t>(std::strtoull(max_traces_arg,
                                                        nullptr, 10));
  }
  const std::string json(reinterpret_cast<const char*>(data->data()),
                         data->size());
  obs::ParsedSummary summary = obs::summarize_chrome_trace(json, max_traces);
  if (summary.events == 0) {
    std::fprintf(stderr, "no trace events found in %s (expected "
                 "chrome_trace_json output, e.g. fig_workloads --trace)\n",
                 path);
    return 1;
  }
  std::fputs(summary.text.c_str(), stdout);
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: tc_inspect demo\n"
               "       tc_inspect archive <file>\n"
               "       tc_inspect frame <file>\n"
               "       tc_inspect trace <file> [max_traces]\n"
               "       tc_inspect disas <file> [triple|portable]\n"
               "       tc_inspect emit-demo <file>\n"
               "       tc_inspect emit-vm-demo <file>\n"
               "       tc_inspect kernels\n"
               "       tc_inspect kir <kernel> [--hll] [--tagged]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "demo") == 0) return cmd_demo();
  if (std::strcmp(cmd, "archive") == 0 && argc >= 3) {
    return cmd_archive(argv[2]);
  }
  if (std::strcmp(cmd, "frame") == 0 && argc >= 3) return cmd_frame(argv[2]);
  if (std::strcmp(cmd, "trace") == 0 && argc >= 3) {
    return cmd_trace(argv[2], argc >= 4 ? argv[3] : nullptr);
  }
  if (std::strcmp(cmd, "disas") == 0 && argc >= 3) {
    return cmd_disas(argv[2], argc >= 4 ? argv[3] : nullptr);
  }
  if (std::strcmp(cmd, "emit-demo") == 0 && argc >= 3) {
    return cmd_emit_demo(argv[2]);
  }
  if (std::strcmp(cmd, "emit-vm-demo") == 0 && argc >= 3) {
    return cmd_emit_vm_demo(argv[2]);
  }
  if (std::strcmp(cmd, "kernels") == 0) return cmd_kernels();
  if (std::strcmp(cmd, "kir") == 0 && argc >= 3) {
    bool hll = false;
    bool tagged = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--hll") == 0) hll = true;
      if (std::strcmp(argv[i], "--tagged") == 0) tagged = true;
    }
    return cmd_kir(argv[2], hll, tagged);
  }
  usage();
  return 2;
}
