// Registered-memory domain: the simulated analogue of ibv_reg_mr / UCP
// memory mapping. Remote one-sided operations (PUT/GET) must name a region
// by rkey and stay within its bounds; violations surface as kOutOfRange,
// mirroring a remote-access fault on real hardware.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace tc::fabric {

using NodeId = std::uint32_t;
using RKey = std::uint64_t;

/// A remotely addressable location: (node, registered region, byte offset).
struct RemoteAddr {
  NodeId node = 0;
  RKey rkey = 0;
  std::uint64_t offset = 0;
};

/// Registration record returned to the owner of the memory.
struct MemRegion {
  RKey rkey = 0;
  std::uint8_t* base = nullptr;
  std::size_t length = 0;

  RemoteAddr remote_addr(NodeId node, std::uint64_t offset = 0) const {
    return {node, rkey, offset};
  }
};

/// Per-node registry of exposed memory. Not synchronized: the sim calls it
/// from its one event loop, and the wall-clock backends hold
/// NodeState::mem_mu around every call.
class MemoryDomain {
 public:
  /// Registers [base, base+length) for remote access and mints an rkey.
  StatusOr<MemRegion> register_memory(void* base, std::size_t length);

  /// Revokes an rkey. In-flight operations targeting it will fault.
  Status deregister(RKey rkey);

  /// Validates an access and returns the local pointer it maps to.
  StatusOr<std::uint8_t*> translate(RKey rkey, std::uint64_t offset,
                                    std::size_t length) const;

  std::size_t region_count() const { return regions_.size(); }

 private:
  std::unordered_map<RKey, MemRegion> regions_;
  RKey next_rkey_ = 1;
};

}  // namespace tc::fabric
