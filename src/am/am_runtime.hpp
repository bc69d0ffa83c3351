// Active-Message baseline (paper §IV-A): handlers are *predeployed* —
// compiled into the application on every node — and requests carry only a
// function index plus the payload. This is the semantics GASNet-style AM
// provides, and the paper uses it as the lower bound on ifunc overhead:
// no code motion, no JIT, no dynamic linking.
//
// Frame layout: u16 am magic | u16 handler index | u32 origin | payload.
//
// Dispatch is re-entrant and the handler table is lock-guarded: a handler
// body may send further AMs, reply, or register new handlers while other
// progress threads (shm backend) dispatch concurrently.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "fabric/fabric.hpp"
#include "fabric/transport.hpp"

namespace tc::am {

inline constexpr std::uint16_t kAmFrameMagic = 0x7C41;  // "A|"
inline constexpr std::size_t kAmHeaderSize = 8;
inline constexpr fabric::AmId kAmChannel = 17;  ///< fabric AM id used

/// Handler context mirroring the ifunc ExecContext surface, so the same
/// application logic can run in AM and ifunc modes.
struct AmContext {
  class AmRuntime* runtime = nullptr;
  fabric::NodeId node = 0;
  fabric::NodeId origin_node = 0;
  void* target_ptr = nullptr;
  std::uint64_t* shard_base = nullptr;
  std::uint64_t shard_size = 0;
  const std::vector<fabric::NodeId>* peers = nullptr;
  std::uint64_t self_peer = ~0ull;
  std::uint16_t handler_index = 0;
};

/// A predeployed handler: payload is mutable (in-place updates before
/// re-sending are allowed, as with ifuncs).
using AmHandlerFn = std::function<void(AmContext&, std::uint8_t* payload,
                                       std::uint64_t size)>;

struct AmOptions {
  /// Per-invocation compute charge (<0 = measured real time).
  std::int64_t exec_cost_ns = -1;
};

class AmRuntime {
 public:
  using Options = AmOptions;

  /// Attaches to a node of any Transport backend (the simulated
  /// fabric::Fabric, shm or socket). The transport must outlive the
  /// runtime.
  static StatusOr<std::unique_ptr<AmRuntime>> create(
      fabric::Transport& transport, fabric::NodeId node, Options options = {});
  ~AmRuntime();

  fabric::NodeId node_id() const { return node_; }
  fabric::Transport& transport() { return *transport_; }

  /// Registers a handler; the returned index must be identical on every
  /// node (predeployment discipline — register in the same order).
  StatusOr<std::uint16_t> register_handler(AmHandlerFn handler);

  /// Sends an AM request: index + payload (no code!).
  Status send(fabric::NodeId dst, std::uint16_t index, ByteSpan payload,
              std::uint32_t origin_node);
  Status send(fabric::NodeId dst, std::uint16_t index, ByteSpan payload) {
    return send(dst, index, payload, node_);
  }

  // Target-side configuration (same surface as core::Runtime).
  void set_target_ptr(void* target) { target_ptr_ = target; }
  void set_shard(std::uint64_t* base, std::uint64_t size) {
    shard_base_ = base;
    shard_size_ = size;
  }
  void set_peers(std::vector<fabric::NodeId> peers);
  using ResultHandler = std::function<void(ByteSpan, fabric::NodeId)>;
  void set_result_handler(ResultHandler handler) {
    result_handler_ = std::move(handler);
  }

  /// Sends a result frame back to `origin` (the AM ReturnResult analogue).
  Status reply(const AmContext& ctx, ByteSpan data);

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t executed = 0;
    std::uint64_t replies = 0;
    std::uint64_t results_received = 0;
    std::uint64_t errors = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  AmRuntime(fabric::Transport& transport, fabric::NodeId node,
            Options options);
  void on_am(ByteSpan frame, fabric::NodeId source);

  fabric::Transport* transport_;
  fabric::NodeId node_;
  Options options_;
  /// Guards the handler table; dispatch pins the handler (shared_ptr copy,
  /// not a function copy) under the lock and invokes it unlocked
  /// (re-entrancy).
  mutable std::shared_mutex handlers_mu_;
  std::vector<std::shared_ptr<const AmHandlerFn>> handlers_;

  void* target_ptr_ = nullptr;
  std::uint64_t* shard_base_ = nullptr;
  std::uint64_t shard_size_ = 0;
  std::vector<fabric::NodeId> peers_;
  std::uint64_t self_peer_ = ~0ull;
  ResultHandler result_handler_;
  Stats stats_;
};

}  // namespace tc::am
