// The single source of truth for the shard word layouts shared between the
// data-structure builders (workloads/{hash_table,ordered_index,graph}.hpp),
// the kernel definitions (src/kir/) and the AM handlers' payload gates.
// These used to live as comments plus magic numbers duplicated across
// all of those files;
// every consumer now derives its offsets from here, so a layout change
// breaks loudly at compile time instead of silently desynchronizing one
// kernel backend from the rest.
//
// All layouts are expressed in 64-bit *words* — the unit Runtime::set_shard
// exposes — with byte offsets derived via kShardWordBytes.
#pragma once

#include <cstdint>

namespace tc::workloads {

/// Bytes per shard word (every shard is a u64 array).
inline constexpr std::uint64_t kShardWordBytes = 8;

/// The lookup-miss sentinel every workload reply uses (values never
/// collide with it: builders mask stored values below 2^63).
inline constexpr std::uint64_t kMiss = ~0ull;

// --- sharded open-addressing hash table (hash_table.hpp) ---------------------
// One logical bucket array split bucket-major across servers; bucket i of a
// shard occupies words [kHashBucketWords*i, kHashBucketWords*(i+1)).
/// Words per bucket: {key, value}.
inline constexpr std::uint64_t kHashBucketWords = 2;
inline constexpr std::uint64_t kHashKeyWord = 0;    ///< 0 = empty bucket
inline constexpr std::uint64_t kHashValueWord = 1;
inline constexpr std::uint64_t kHashBucketBytes =
    kHashBucketWords * kShardWordBytes;
/// Bucket keys are nonzero; a zero key marks an empty (chain-ending) slot.
inline constexpr std::uint64_t kHashEmptyKey = 0;

// --- sharded sorted index (ordered_index.hpp) --------------------------------
// Static skip list, rank-major across servers. Each node record is
// kIndexRecordWords words: [key][value][(next_id, next_key) x kIndexLevels].
inline constexpr std::uint64_t kIndexLevels = 4;
inline constexpr std::uint64_t kIndexKeyWord = 0;
inline constexpr std::uint64_t kIndexValueWord = 1;
/// Finger pair of level l sits at words {2 + 2l, 3 + 2l}.
inline constexpr std::uint64_t kIndexFingerBaseWord = 2;
inline constexpr std::uint64_t kIndexRecordWords =
    kIndexFingerBaseWord + 2 * kIndexLevels;
inline constexpr std::uint64_t kIndexRecordBytes =
    kIndexRecordWords * kShardWordBytes;
/// Bytes per (next_id, next_key) finger pair — the per-level stride the
/// ordered-search kernel caches in a register.
inline constexpr std::uint64_t kIndexFingerBytes = 2 * kShardWordBytes;
/// NIL link id; NIL fingers carry ~0 as their key too, and real keys stay
/// below 2^63, so `next_key <= target` alone rejects them.
inline constexpr std::uint64_t kIndexNil = ~0ull;

// --- distributed CSR graph (graph.hpp) ---------------------------------------
// word 0 = vertices_per_shard; words 1..vps+1 = row offsets; then global
// column indices.
inline constexpr std::uint64_t kCsrVpsWord = 0;
inline constexpr std::uint64_t kCsrRowOffsetWord = 1;
/// Column indices start at word kCsrColBaseWords + vps.
inline constexpr std::uint64_t kCsrColBaseWords = 2;

// --- collective / workload lane cells ----------------------------------------
/// Per-(server, lane) cell size shared by the collective suite and the BFS
/// workload: the target pointer is an array of 64-byte cells indexed by
/// lane (see xrdma/collectives.hpp and workloads::WorkloadCell).
inline constexpr std::uint64_t kLaneCellBytes = 64;

// --- DAPC pointer table (xrdma/pointer_table.hpp) ----------------------------
/// The chaser's shard is a flat value array: one word per entry.
inline constexpr std::uint64_t kChaseEntryWords = 1;

}  // namespace tc::workloads
