// Transport conformance suite — the reusable TEST_P bodies every
// fabric::Transport backend must pass, parameterized over a backend
// factory. The contract under test is the part of fabric::Transport the
// protocol layers rely on: per-link FIFO ordering of two-sided sends (and
// the same bytes from both post_send overloads), AM dispatch (including
// miss reporting), PUT/GET visibility into registered windows, segment
// publication, and the runtime-level NACK redelivery protocol riding on
// all of it.
//
// Usage (one instantiation per test binary; separate binaries, so the
// header-defined TEST_P bodies never collide):
//
//   #include "transport_conformance.hpp"
//   INSTANTIATE_TEST_SUITE_P(
//       Backends, TransportConformance,
//       ::testing::Values(
//           tc::conformance::ConformanceParam{
//               "shm", /*deterministic=*/false,
//               [](std::size_t n) {
//                 auto shm = std::make_shared<fabric::ShmTransport>(n);
//                 return tc::conformance::BackendInstance{shm, shm.get()};
//               }}),
//       tc::conformance::param_name);
//
// transport_test.cpp instantiates sim + shm; socket_test.cpp instantiates
// the socket backend in threaded mode; tools/tc_launch reuses the same
// bodies (via mp_launch's conformance role) across real processes.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/ifunc.hpp"
#include "core/runtime.hpp"
#include "fabric/transport.hpp"

namespace tc::conformance {

/// A constructed backend plus whatever owns it. `holder` keeps the backend
/// alive for the fixture's lifetime; `transport` is the surface under test.
struct BackendInstance {
  std::shared_ptr<void> holder;
  fabric::Transport* transport = nullptr;
};

struct ConformanceParam {
  /// Expected Transport::name() (also the gtest parameter label).
  std::string name;
  /// Expected Transport::deterministic().
  bool deterministic = false;
  std::function<BackendInstance(std::size_t node_count)> factory;
};

inline std::string param_name(
    const ::testing::TestParamInfo<ConformanceParam>& info) {
  return info.param.name;
}

/// gtest's default printer dumps the parameter's raw bytes, which hold
/// ASLR-randomized pointers; gtest_discover_tests copies that printout into
/// the ctest name, so it would change on every build.
inline void PrintTo(const ConformanceParam& param, std::ostream* os) {
  *os << param.name;
}

class TransportConformance
    : public ::testing::TestWithParam<ConformanceParam> {
 protected:
  static constexpr std::size_t kNodes = 3;

  void SetUp() override {
    instance_ = GetParam().factory(kNodes);
    ASSERT_NE(instance_.transport, nullptr)
        << "backend factory returned no transport";
    transport_ = instance_.transport;
  }

  void TearDown() override {
    transport_ = nullptr;
    instance_ = {};
  }

  /// Pumps every node's progress from this thread until `pred` holds.
  /// Valid on every backend: the test thread is each node's progress
  /// context in turn.
  void drive_until(const std::function<bool()>& pred) {
    for (int spin = 0; spin < 1'000'000; ++spin) {
      if (pred()) return;
      for (fabric::NodeId n = 0; n < transport_->node_count(); ++n) {
        (void)transport_->progress(n);
      }
    }
    FAIL() << "drive_until: predicate not reached on " << GetParam().name;
  }

  BackendInstance instance_;
  fabric::Transport* transport_ = nullptr;
};

TEST_P(TransportConformance, ReportsIdentityAndTopology) {
  EXPECT_EQ(transport_->node_count(), kNodes);
  EXPECT_STREQ(transport_->name(), GetParam().name.c_str());
  EXPECT_EQ(transport_->deterministic(), GetParam().deterministic);
}

TEST_P(TransportConformance, SendsDeliverInFifoOrderPerLink) {
  constexpr int kMessages = 32;
  for (int i = 0; i < kMessages; ++i) {
    Bytes msg{static_cast<std::uint8_t>(i)};
    transport_->post_send(0, 1, as_span(msg), 1, {});
  }
  int received = 0;
  drive_until([&]() -> bool {
    while (auto msg = transport_->try_recv(1)) {
      EXPECT_EQ(msg->data.size(), 1u);
      EXPECT_EQ(msg->data[0], received) << "out-of-order delivery";
      EXPECT_EQ(msg->source, 0u);
      ++received;
    }
    return received == kMessages;
  });
}

TEST_P(TransportConformance, SendCompletionReportsDelivery) {
  Bytes msg{1, 2, 3};
  bool completed = false;
  Status status = internal_error("never fired");
  transport_->post_send(0, 2, as_span(msg), 1, [&](Status s) {
    completed = true;
    status = std::move(s);
  });
  drive_until([&] { return completed; });
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  auto delivered = transport_->try_recv(2);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->data, msg);
}

TEST_P(TransportConformance, SpanAndBufferSendsDeliverIdenticalBytes) {
  // post_send takes the buffer it ships; the span overload copies once for
  // a caller that holds only a view. Both must put the same bytes on the
  // wire.
  Bytes original(300);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  transport_->post_send(0, 1, as_span(original), 1, {});
  transport_->post_send(0, 1, Bytes(original), 1, {});
  std::vector<Bytes> delivered;
  drive_until([&]() -> bool {
    while (auto msg = transport_->try_recv(1)) {
      delivered.push_back(std::move(msg->data));
    }
    return delivered.size() == 2;
  });
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], original) << "span overload";
  EXPECT_EQ(delivered[1], original) << "buffer overload";
}

TEST_P(TransportConformance, AmDispatchesToRegisteredHandler) {
  Bytes seen;
  fabric::NodeId seen_source = ~0u;
  int dispatched = 0;
  ASSERT_TRUE(transport_
                  ->register_am_handler(
                      1, 7,
                      [&](ByteSpan payload, fabric::NodeId source) {
                        seen.assign(payload.begin(), payload.end());
                        seen_source = source;
                        ++dispatched;
                      })
                  .is_ok());
  // Double registration of the same AM id must be refused.
  EXPECT_EQ(transport_->register_am_handler(1, 7, [](ByteSpan, fabric::NodeId) {})
                .code(),
            ErrorCode::kAlreadyExists);

  Bytes payload{9, 8, 7};
  transport_->post_am(2, 1, 7, as_span(payload), {});
  drive_until([&] { return dispatched == 1; });
  EXPECT_EQ(seen, payload);
  EXPECT_EQ(seen_source, 2u);
}

TEST_P(TransportConformance, AmToUnregisteredIdReportsMiss) {
  Bytes payload{1};
  bool completed = false;
  Status status = Status::ok();
  transport_->post_am(0, 1, 99, as_span(payload), [&](Status s) {
    completed = true;
    status = std::move(s);
  });
  drive_until([&] { return completed; });
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  // The message rides the ack back from the target's Worker::deliver_am.
  EXPECT_EQ(status.message(), "no AM handler for id 99");
}

TEST_P(TransportConformance, PutThenGetObservesWrittenBytes) {
  std::vector<std::uint8_t> window(64, 0);
  auto region = transport_->register_window(1, window.data(), window.size());
  ASSERT_TRUE(region.is_ok()) << region.status().to_string();

  Bytes data{0xAA, 0xBB, 0xCC, 0xDD};
  const fabric::RemoteAddr addr = region->remote_addr(1, /*offset=*/8);
  bool put_done = false;
  transport_->post_put(0, addr, as_span(data), [&](Status s) {
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    put_done = true;
  });
  drive_until([&] { return put_done; });
  // Visibility in the shared window itself (the paper's MAGIC-poll path).
  EXPECT_EQ(window[8], 0xAA);
  EXPECT_EQ(window[11], 0xDD);

  StatusOr<Bytes> got = internal_error("pending");
  bool get_done = false;
  transport_->post_get(2, addr, data.size(), [&](StatusOr<Bytes> r) {
    got = std::move(r);
    get_done = true;
  });
  drive_until([&] { return get_done; });
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(*got, data);
}

TEST_P(TransportConformance, OutOfBoundsOneSidedAccessFaults) {
  std::vector<std::uint8_t> window(16, 0);
  auto region = transport_->register_window(1, window.data(), window.size());
  ASSERT_TRUE(region.is_ok());
  // The target's MemoryDomain::translate refuses both, and its message
  // rides the ack back unchanged: the 8-byte GET's error ack must not be
  // read as an inline reply on shm.
  const std::string fault = "remote access [12, 20) exceeds region 16";

  StatusOr<Bytes> got = Status::ok();
  bool done = false;
  transport_->post_get(0, region->remote_addr(1, /*offset=*/12), 8,
                       [&](StatusOr<Bytes> r) {
                         got = std::move(r);
                         done = true;
                       });
  drive_until([&] { return done; });
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(got.status().message(), fault);

  const Bytes data(8, 0xEE);
  Status put = Status::ok();
  done = false;
  transport_->post_put(2, region->remote_addr(1, /*offset=*/12), as_span(data),
                       [&](Status s) {
                         put = std::move(s);
                         done = true;
                       });
  drive_until([&] { return done; });
  EXPECT_EQ(put.code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(put.message(), fault);
  EXPECT_EQ(window, std::vector<std::uint8_t>(16, 0)) << "a faulted PUT wrote";
}

// Shm carries a GET reply of at most 16 bytes in its ack op and a longer
// one in a buffer; every length on either side of that boundary reads
// exactly the window's bytes.
TEST_P(TransportConformance, GetsAcrossTheInlineBoundaryReadExactBytes) {
  std::vector<std::uint8_t> window(80);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = static_cast<std::uint8_t>(i + 1);
  }
  auto region = transport_->register_window(1, window.data(), window.size());
  ASSERT_TRUE(region.is_ok()) << region.status().to_string();

  constexpr std::size_t kOffset = 3;
  const std::vector<std::size_t> lengths{0, 1, 7, 8, 15, 16, 17, 24, 64};
  std::vector<StatusOr<Bytes>> got(lengths.size(), internal_error("pending"));
  std::size_t done = 0;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    transport_->post_get(0, region->remote_addr(1, kOffset), lengths[i],
                         [&, i](StatusOr<Bytes> r) {
                           got[i] = std::move(r);
                           ++done;
                         });
  }
  drive_until([&] { return done == lengths.size(); });
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    ASSERT_TRUE(got[i].is_ok())
        << lengths[i] << "-byte GET: " << got[i].status().to_string();
    const auto first = window.begin() + kOffset;
    EXPECT_EQ(*got[i], Bytes(first, first + static_cast<std::ptrdiff_t>(
                                                lengths[i])))
        << lengths[i] << "-byte GET";
  }
}

// A failed GET short enough for shm to carry inline still returns the
// target's error, with translate's message in place of reply bytes.
TEST_P(TransportConformance, GetWithUnknownRkeyFailsNotFound) {
  std::vector<std::uint8_t> window(16, 0x5A);
  auto region = transport_->register_window(1, window.data(), window.size());
  ASSERT_TRUE(region.is_ok()) << region.status().to_string();

  const fabric::RKey unknown = region->rkey + 1000;
  StatusOr<Bytes> got = Bytes{};
  bool done = false;
  transport_->post_get(0, fabric::RemoteAddr{1, unknown, 0}, 16,
                       [&](StatusOr<Bytes> r) {
                         got = std::move(r);
                         done = true;
                       });
  drive_until([&] { return done; });
  ASSERT_FALSE(got.is_ok()) << "read " << got->size() << " bytes";
  EXPECT_EQ(got.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(got.status().message(),
            "translate: unknown rkey " + std::to_string(unknown));
}

// A GET longer than 4 GiB, which no window here can serve, fails
// kOutOfRange on every backend: shm refuses it at post time (its ring op's
// length is 32 bits), sim and socket at the target's translate.
TEST_P(TransportConformance, GetLongerThanFourGibFailsOutOfRange) {
  std::vector<std::uint8_t> window(64, 0x11);
  auto region = transport_->register_window(1, window.data(), window.size());
  ASSERT_TRUE(region.is_ok()) << region.status().to_string();

  StatusOr<Bytes> got = Bytes{};
  bool done = false;
  transport_->post_get(0, region->remote_addr(1), (std::size_t{1} << 32) + 8,
                       [&](StatusOr<Bytes> r) {
                         got = std::move(r);
                         done = true;
                       });
  drive_until([&] { return done; });
  ASSERT_FALSE(got.is_ok()) << "read " << got->size() << " bytes";
  EXPECT_EQ(got.status().code(), ErrorCode::kOutOfRange)
      << got.status().to_string();
}

TEST_P(TransportConformance, ExposedSegmentPublishesOnce) {
  std::vector<std::uint8_t> segment(32, 0);
  EXPECT_FALSE(transport_->exposed_segment(2).has_value());
  ASSERT_TRUE(
      transport_->expose_segment(2, segment.data(), segment.size()).is_ok());
  auto published = transport_->exposed_segment(2);
  ASSERT_TRUE(published.has_value());
  EXPECT_EQ(published->length, segment.size());
  EXPECT_EQ(transport_->expose_segment(2, segment.data(), segment.size())
                .code(),
            ErrorCode::kAlreadyExists);
}

// A NodeId read off the wire (a frame's origin, an AM's source) must never
// index a node table: every post_* naming a node outside the cluster, as
// source or destination, fails its completion with kInvalidArgument and
// posts nothing.
TEST_P(TransportConformance, OutOfRangeNodeIdsFailWithoutPosting) {
  std::vector<std::uint8_t> window(8, 0);
  auto region = transport_->register_window(1, window.data(), window.size());
  ASSERT_TRUE(region.is_ok()) << region.status().to_string();
  const Bytes payload{0x77};
  std::vector<Status> refused;
  const auto record = [&](Status s) { refused.push_back(std::move(s)); };
  const auto record_get = [&](StatusOr<Bytes> r) {
    refused.push_back(r.status());
  };
  for (const fabric::NodeId bad : {fabric::NodeId{kNodes}, fabric::NodeId{9}}) {
    transport_->post_send(0, bad, as_span(payload), 1, record);
    transport_->post_send(bad, 1, as_span(payload), 1, record);
    transport_->post_am(0, bad, 7, as_span(payload), record);
    transport_->post_am(bad, 1, 7, as_span(payload), record);
    transport_->post_put(0, region->remote_addr(bad), as_span(payload),
                         record);
    transport_->post_put(bad, region->remote_addr(1), as_span(payload),
                         record);
    transport_->post_get(0, region->remote_addr(bad), 1, record_get);
    transport_->post_get(bad, region->remote_addr(1), 1, record_get);
  }
  drive_until([&] { return refused.size() == 16; });
  for (const Status& status : refused) {
    EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument) << status.to_string();
  }
  // Nothing was delivered, dispatched or written anywhere.
  for (int spin = 0; spin < 100; ++spin) {
    for (fabric::NodeId n = 0; n < kNodes; ++n) (void)transport_->progress(n);
  }
  for (fabric::NodeId n = 0; n < kNodes; ++n) {
    EXPECT_FALSE(transport_->try_recv(n).has_value()) << "node " << n;
  }
  EXPECT_EQ(window[0], 0);
  EXPECT_EQ(refused.size(), 16u);
}

// The full cache-miss recovery protocol over each backend: a truncated
// frame for an unknown ifunc must raise a NACK, the sender must re-ship
// the code, and the stashed payload must then execute exactly once.
TEST_P(TransportConformance, NackRecoveryRedeliversTruncatedFrame) {
  auto rt_a = core::Runtime::create(*transport_, 0);
  auto rt_b = core::Runtime::create(*transport_, 1);
  ASSERT_TRUE(rt_a.is_ok());
  ASSERT_TRUE(rt_b.is_ok());

  auto lib = core::IfuncLibrary::from_portable_kernel(
      ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
  auto id = (*rt_a)->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  std::uint64_t counter = 0;
  (*rt_b)->set_target_ptr(&counter);

  // Ship a *truncated* frame for code b has never seen — the restarted-
  // receiver scenario.
  auto frame = (*rt_a)->create_message(*id, as_span(Bytes{0}));
  ASSERT_TRUE(frame.is_ok());
  transport_->post_send(0, 1, frame->truncated_view(), 1, {});

  drive_until([&] { return counter == 1; });
  EXPECT_EQ((*rt_b)->stats().nacks_sent, 1u);
  EXPECT_EQ((*rt_a)->stats().nacks_received, 1u);
  EXPECT_EQ((*rt_b)->stats().frames_executed, 1u);
  EXPECT_EQ((*rt_b)->stats().portable_loads, 1u);
  EXPECT_EQ((*rt_b)->stats().protocol_errors, 0u);
}

// End-to-end ifunc send over each backend (the regular, untruncated path),
// asserting the runtimes are fully transport-generic.
TEST_P(TransportConformance, IfuncSendExecutesOnTarget) {
  auto rt_a = core::Runtime::create(*transport_, 0);
  auto rt_b = core::Runtime::create(*transport_, 1);
  ASSERT_TRUE(rt_a.is_ok());
  ASSERT_TRUE(rt_b.is_ok());

  auto lib = core::IfuncLibrary::from_portable_kernel(
      ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(lib.is_ok());
  auto id = (*rt_a)->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  std::uint64_t counter = 0;
  (*rt_b)->set_target_ptr(&counter);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*rt_a)->send_ifunc(1, *id, as_span(Bytes{0})).is_ok());
  }
  drive_until([&] { return counter == 3; });
  EXPECT_EQ((*rt_b)->stats().frames_executed, 3u);
  EXPECT_EQ((*rt_a)->stats().frames_sent_full, 1u);
  EXPECT_EQ((*rt_a)->stats().frames_sent_truncated, 2u);
}

}  // namespace tc::conformance
