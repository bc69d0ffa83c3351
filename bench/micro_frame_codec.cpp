// Micro/ablation benchmarks for the wire layer (google-benchmark):
// frame assembly/validation cost, the warm (truncated) encode, the size
// effect of truncation (the §III-D caching ablation), and fat-bitcode
// archive handling vs entry count.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/frame.hpp"
#include "core/ifunc.hpp"
#include "ir/fat_bitcode.hpp"
#include "kir/llvm_backend.hpp"

namespace {

using namespace tc;

Bytes random_bytes(std::size_t n, std::uint64_t seed = 42) {
  Xoshiro256 rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

void BM_FrameBuild(benchmark::State& state) {
  const Bytes code = random_bytes(static_cast<std::size_t>(state.range(0)));
  const Bytes payload = random_bytes(64, 7);
  for (auto _ : state) {
    auto frame = core::Frame::build(1, ir::CodeRepr::kBitcode, as_span(code),
                                    as_span(payload), 0);
    benchmark::DoNotOptimize(frame);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(code.size()));
}
BENCHMARK(BM_FrameBuild)->Arg(65)->Arg(5159)->Arg(65536);

// A warm send's encode: only the bytes that ship (header, payload, MAGIC1)
// for the real hash-probe bitcode archive, which it never copies.
void BM_FrameEncodeTruncated(benchmark::State& state) {
  auto lib = core::IfuncLibrary::from_kernel(ir::KernelKind::kHashProbe);
  if (!lib.is_ok()) {
    state.SkipWithError(lib.status().to_string().c_str());
    return;
  }
  const Bytes payload = random_bytes(32, 7);
  core::FrameParts parts;
  parts.ifunc_id = lib->id();
  parts.repr = lib->repr();
  parts.code_archive = as_span(lib->serialized_archive());
  parts.payload = as_span(payload);
  for (auto _ : state) {
    auto wire = core::Frame::encode(parts, /*include_code=*/false);
    benchmark::DoNotOptimize(wire);
    benchmark::ClobberMemory();
  }
  state.counters["archive_bytes"] =
      static_cast<double>(parts.code_archive.size());
}
BENCHMARK(BM_FrameEncodeTruncated);

void BM_FrameValidateFull(benchmark::State& state) {
  const Bytes code = random_bytes(static_cast<std::size_t>(state.range(0)));
  auto frame = core::Frame::build(1, ir::CodeRepr::kBitcode, as_span(code),
                                  as_span(random_bytes(64, 9)), 0);
  for (auto _ : state) {
    auto ok = core::Frame::validate(frame->full_view());
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_FrameValidateFull)->Arg(5159)->Arg(65536);

void BM_FrameValidateTruncated(benchmark::State& state) {
  auto frame =
      core::Frame::build(1, ir::CodeRepr::kBitcode, as_span(random_bytes(5159)),
                         as_span(random_bytes(64, 9)), 0);
  for (auto _ : state) {
    auto ok = core::Frame::validate(frame->truncated_view());
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_FrameValidateTruncated);

void BM_HeaderPeek(benchmark::State& state) {
  auto frame =
      core::Frame::build(1, ir::CodeRepr::kBitcode, as_span(random_bytes(512)),
                         as_span(random_bytes(16, 3)), 0);
  for (auto _ : state) {
    auto header = core::Frame::peek_header(frame->full_view());
    benchmark::DoNotOptimize(header);
  }
}
BENCHMARK(BM_HeaderPeek);

// Ablation: the caching protocol's wire saving — bytes of a truncated vs a
// full send for the real TSI archive.
void BM_TruncationSaving(benchmark::State& state) {
  auto archive =
      kir::build_default_kir_fat_kernel(ir::KernelKind::kTargetSideIncrement);
  const Bytes serialized = archive->serialize();
  auto frame = core::Frame::build(1, ir::CodeRepr::kBitcode,
                                  as_span(serialized), as_span(Bytes{0}), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame->full_size());
    benchmark::DoNotOptimize(frame->truncated_size());
  }
  state.counters["full_bytes"] = static_cast<double>(frame->full_size());
  state.counters["truncated_bytes"] =
      static_cast<double>(frame->truncated_size());
  state.counters["saving_ratio"] =
      static_cast<double>(frame->full_size()) /
      static_cast<double>(frame->truncated_size());
}
BENCHMARK(BM_TruncationSaving);

// Ablation: fat-bitcode archive size/serialize cost vs number of ISAs.
void BM_FatArchiveSerialize(benchmark::State& state) {
  ir::FatBitcode archive;
  const int entries = static_cast<int>(state.range(0));
  const char* triples[] = {"x86_64-pc-linux-gnu", "aarch64-unknown-linux-gnu",
                           "riscv64-unknown-linux-gnu",
                           "powerpc64le-unknown-linux-gnu"};
  for (int i = 0; i < entries; ++i) {
    (void)archive.add_entry({triples[i], "", ""}, random_bytes(2048, i + 1));
  }
  for (auto _ : state) {
    Bytes wire = archive.serialize();
    benchmark::DoNotOptimize(wire);
  }
  state.counters["archive_bytes"] =
      static_cast<double>(archive.serialize().size());
}
BENCHMARK(BM_FatArchiveSerialize)->Arg(1)->Arg(2)->Arg(4);

void BM_FatArchiveSelect(benchmark::State& state) {
  auto archive = kir::build_default_kir_fat_kernel(ir::KernelKind::kChaser);
  for (auto _ : state) {
    auto entry = archive->select(ir::host_triple());
    benchmark::DoNotOptimize(entry);
  }
}
BENCHMARK(BM_FatArchiveSelect);

}  // namespace

BENCHMARK_MAIN();
