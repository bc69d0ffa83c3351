// Tests for the simulated RDMA fabric: memory registration, link timing
// models, the discrete-event engine, and the verbs it carries as the
// simulated Transport.
#include <gtest/gtest.h>

#include "fabric/fabric.hpp"
#include "fabric/link_model.hpp"
#include "fabric/memory.hpp"

namespace tc::fabric {
namespace {

// --- MemoryDomain ---------------------------------------------------------------

TEST(MemoryDomain, RegisterAndTranslate) {
  MemoryDomain domain;
  std::uint64_t data[8] = {};
  auto region = domain.register_memory(data, sizeof(data));
  ASSERT_TRUE(region.is_ok());
  EXPECT_NE(region->rkey, 0u);

  auto ptr = domain.translate(region->rkey, 8, 8);
  ASSERT_TRUE(ptr.is_ok());
  EXPECT_EQ(*ptr, reinterpret_cast<std::uint8_t*>(&data[1]));
}

TEST(MemoryDomain, RejectsNullAndEmpty) {
  MemoryDomain domain;
  EXPECT_EQ(domain.register_memory(nullptr, 8).status().code(),
            ErrorCode::kInvalidArgument);
  int x;
  EXPECT_EQ(domain.register_memory(&x, 0).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(MemoryDomain, BoundsChecked) {
  MemoryDomain domain;
  std::uint8_t data[16] = {};
  auto region = domain.register_memory(data, sizeof(data));
  ASSERT_TRUE(region.is_ok());
  EXPECT_EQ(domain.translate(region->rkey, 8, 9).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(domain.translate(region->rkey, 17, 0).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_TRUE(domain.translate(region->rkey, 16, 0).is_ok());
}

TEST(MemoryDomain, UnknownRkeyFails) {
  MemoryDomain domain;
  EXPECT_EQ(domain.translate(99, 0, 1).status().code(), ErrorCode::kNotFound);
}

TEST(MemoryDomain, DeregisterRevokesAccess) {
  MemoryDomain domain;
  std::uint8_t data[16] = {};
  auto region = domain.register_memory(data, sizeof(data));
  ASSERT_TRUE(region.is_ok());
  ASSERT_TRUE(domain.deregister(region->rkey).is_ok());
  EXPECT_EQ(domain.translate(region->rkey, 0, 1).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(domain.deregister(region->rkey).code(), ErrorCode::kNotFound);
}

TEST(MemoryDomain, RkeysAreUnique) {
  MemoryDomain domain;
  std::uint8_t a[4], b[4];
  auto ra = domain.register_memory(a, 4);
  auto rb = domain.register_memory(b, 4);
  ASSERT_TRUE(ra.is_ok());
  ASSERT_TRUE(rb.is_ok());
  EXPECT_NE(ra->rkey, rb->rkey);
  EXPECT_EQ(domain.region_count(), 2u);
}

// --- LinkModel -------------------------------------------------------------------

TEST(LinkModel, TransmitTimeComposition) {
  LinkModel m{1000, 0.5, 100, 0.5, 0, 0};
  EXPECT_EQ(m.transmit_ns(0), 1100);
  EXPECT_EQ(m.transmit_ns(200), 1100 + 100);
}

TEST(LinkModel, RoundTripIsRequestPlusResponse) {
  LinkModel m{1000, 0.5, 100, 0.5, 0, 0};
  EXPECT_EQ(m.round_trip_ns(8), m.transmit_ns(0) + m.transmit_ns(8));
}

TEST(LinkModel, OccupancyDistinguishesClasses) {
  LinkModel m;
  m.gap_ns_per_byte = 0.1;
  m.gap_send_ns = 100;
  m.gap_am_ns = 300;
  EXPECT_EQ(m.occupancy_ns(100, OpClass::kSend), 110);
  EXPECT_EQ(m.occupancy_ns(100, OpClass::kAm), 310);
}

TEST(LinkModel, InstantLinkIsFree) {
  constexpr LinkModel m = instant_link();
  EXPECT_EQ(m.transmit_ns(1 << 20), 0);
  EXPECT_EQ(m.occupancy_ns(1 << 20, OpClass::kSend), 0);
}

// --- Fabric event engine -----------------------------------------------------------

TEST(Fabric, TimeAdvancesMonotonically) {
  Fabric fabric;
  std::vector<VirtTime> stamps;
  fabric.schedule_at(50, [&] { stamps.push_back(fabric.now()); });
  fabric.schedule_at(10, [&] { stamps.push_back(fabric.now()); });
  fabric.schedule_at(30, [&] { stamps.push_back(fabric.now()); });
  fabric.run_until_idle();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_EQ(stamps[0], 10);
  EXPECT_EQ(stamps[1], 30);
  EXPECT_EQ(stamps[2], 50);
}

TEST(Fabric, EqualTimestampsFireInInsertionOrder) {
  Fabric fabric;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    fabric.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  fabric.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Fabric, HandlersCanScheduleMoreEvents) {
  Fabric fabric;
  int fired = 0;
  fabric.schedule_at(10, [&] {
    ++fired;
    fabric.schedule_after(5, [&] { ++fired; });
  });
  EXPECT_EQ(fabric.run_until_idle(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(fabric.now(), 15);
}

TEST(Fabric, RunUntilPredicate) {
  Fabric fabric;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    fabric.schedule_at(i * 10, [&] { ++count; });
  }
  ASSERT_TRUE(fabric.run_until([&] { return count == 3; }).is_ok());
  EXPECT_EQ(fabric.now(), 30);
  fabric.run_until_idle();
  EXPECT_EQ(count, 5);
}

TEST(Fabric, RunUntilFailsWhenIdleBeforePredicate) {
  Fabric fabric;
  Status s = fabric.run_until([] { return false; });
  EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
}

TEST(Fabric, RunUntilRespectsEventBudget) {
  Fabric fabric;
  // Self-perpetuating event chain.
  std::function<void()> loop = [&] { fabric.schedule_after(1, loop); };
  fabric.schedule_at(0, loop);
  Status s = fabric.run_until([] { return false; }, 100);
  EXPECT_EQ(s.code(), ErrorCode::kResourceExhausted);
}

TEST(Fabric, ConsumeComputeSerializesNode) {
  Fabric fabric;
  const NodeId n = fabric.add_node("n");
  std::vector<VirtTime> stamps;
  fabric.schedule_at(0, [&] { fabric.consume_compute(n, 100); });
  fabric.schedule_at(10, [&] {
    fabric.execute_on(n, 50, [&] { stamps.push_back(fabric.now()); });
  });
  fabric.run_until_idle();
  ASSERT_EQ(stamps.size(), 1u);
  // Node busy until 100, then 50 more of charged work -> effects at 150.
  EXPECT_EQ(stamps[0], 150);
}

TEST(Fabric, ComputeScaleMultipliesCost) {
  Fabric fabric;
  const NodeId slow = fabric.add_node("dpu", 3.0);
  VirtTime done = -1;
  fabric.schedule_at(0, [&] {
    fabric.execute_on(slow, 100, [&] { done = fabric.now(); });
  });
  fabric.run_until_idle();
  EXPECT_EQ(done, 300);
}

TEST(Fabric, PerLinkOverridesBothDirections) {
  Fabric fabric;
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  LinkModel fast = instant_link();
  LinkModel slow{9999, 0, 0, 0, 0, 0};
  fabric.set_default_link(slow);
  fabric.set_link(a, b, fast);
  EXPECT_EQ(fabric.link(a, b).latency_ns, 0);
  EXPECT_EQ(fabric.link(b, a).latency_ns, 0);
}

TEST(Fabric, InjectionSerialization) {
  Fabric fabric;
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  LinkModel m = instant_link();
  m.gap_send_ns = 100;
  fabric.set_default_link(m);
  EXPECT_EQ(fabric.reserve_injection(a, b, 0), 0);
  EXPECT_EQ(fabric.reserve_injection(a, b, 0), 100);
  EXPECT_EQ(fabric.reserve_injection(a, b, 0), 200);
  // The reverse direction is an independent channel.
  EXPECT_EQ(fabric.reserve_injection(b, a, 0), 0);
}

// --- Worker ----------------------------------------------------------------------

TEST(Worker, AmRegistrationLifecycle) {
  Worker worker;
  EXPECT_FALSE(worker.has_am(3));
  ASSERT_TRUE(worker.register_am(3, [](ByteSpan, NodeId) {}).is_ok());
  EXPECT_TRUE(worker.has_am(3));
  EXPECT_EQ(worker.register_am(3, [](ByteSpan, NodeId) {}).code(),
            ErrorCode::kAlreadyExists);
  ASSERT_TRUE(worker.unregister_am(3).is_ok());
  EXPECT_EQ(worker.unregister_am(3).code(), ErrorCode::kNotFound);
}

TEST(Worker, AmDispatchMissCounted) {
  Worker worker;
  EXPECT_EQ(worker.deliver_am(9, {}, 0).code(), ErrorCode::kNotFound);
  EXPECT_EQ(worker.stats().am_dispatch_misses, 1u);
}

TEST(Worker, RecvQueueFifo) {
  Worker worker;
  worker.deliver_message({1}, 5);
  worker.deliver_message({2}, 6);
  auto m1 = worker.try_recv();
  auto m2 = worker.try_recv();
  ASSERT_TRUE(m1.has_value());
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(m1->data[0], 1);
  EXPECT_EQ(m1->source, 5u);
  EXPECT_EQ(m2->data[0], 2);
  EXPECT_FALSE(worker.try_recv().has_value());
}

// --- Verbs between a pair of nodes (a UCX endpoint's traffic) ---------------

class EndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_.set_default_link(LinkModel{1000, 1.0, 0, 1.0, 0, 0});
    a_ = fabric_.add_node("a");
    b_ = fabric_.add_node("b");
  }
  Fabric fabric_;
  NodeId a_, b_;
};

TEST_F(EndpointTest, PutWritesRemoteMemoryAfterWireTime) {
  std::uint64_t remote_value = 0;
  auto region = fabric_.node(b_).memory.register_memory(&remote_value, 8);
  ASSERT_TRUE(region.is_ok());

  std::uint64_t payload = 0x1122334455667788ull;
  ByteSpan data(reinterpret_cast<const std::uint8_t*>(&payload), 8);
  Status completion = internal_error("not called");
  fabric_.schedule_at(0, [&] {
    fabric_.post_put(a_, region->remote_addr(b_), data,
                     [&](Status s) { completion = s; });
  });
  fabric_.run_until_idle();
  EXPECT_TRUE(completion.is_ok());
  EXPECT_EQ(remote_value, payload);
  EXPECT_EQ(fabric_.now(), 1008);  // latency 1000 + 8 bytes at 1 ns/B
}

TEST_F(EndpointTest, PutOutOfBoundsFaults) {
  std::uint8_t buf[4];
  auto region = fabric_.node(b_).memory.register_memory(buf, 4);
  ASSERT_TRUE(region.is_ok());
  Bytes big(16, 0xff);
  Status completion;
  fabric_.schedule_at(0, [&] {
    fabric_.post_put(a_, region->remote_addr(b_), as_span(big),
                     [&](Status s) { completion = s; });
  });
  fabric_.run_until_idle();
  EXPECT_EQ(completion.code(), ErrorCode::kOutOfRange);
}

TEST_F(EndpointTest, GetReadsRemoteMemoryRoundTrip) {
  std::uint64_t remote_value = 0xABCDEF;
  auto region = fabric_.node(b_).memory.register_memory(&remote_value, 8);
  ASSERT_TRUE(region.is_ok());

  std::uint64_t got = 0;
  fabric_.schedule_at(0, [&] {
    fabric_.post_get(a_, region->remote_addr(b_), 8,
                     [&](StatusOr<Bytes> data) {
                       ASSERT_TRUE(data.is_ok());
                       std::memcpy(&got, data->data(), 8);
                     });
  });
  fabric_.run_until_idle();
  EXPECT_EQ(got, 0xABCDEFull);
  EXPECT_EQ(fabric_.now(), 2008);  // two legs: 1000 + (1000 + 8)
}

TEST_F(EndpointTest, AmInvokesRemoteHandler) {
  std::uint64_t seen_from = 99;
  Bytes seen_payload;
  ASSERT_TRUE(fabric_.node(b_).worker
                  .register_am(7,
                               [&](ByteSpan p, NodeId src) {
                                 seen_payload.assign(p.begin(), p.end());
                                 seen_from = src;
                               })
                  .is_ok());
  Bytes payload{9, 8, 7};
  fabric_.schedule_at(0,
                      [&] { fabric_.post_am(a_, b_, 7, as_span(payload), {}); });
  fabric_.run_until_idle();
  EXPECT_EQ(seen_from, a_);
  EXPECT_EQ(seen_payload, payload);
}

TEST_F(EndpointTest, AmToUnregisteredHandlerReportsError) {
  Status completion;
  Bytes payload{1};
  fabric_.schedule_at(0, [&] {
    fabric_.post_am(a_, b_, 42, as_span(payload),
                    [&](Status s) { completion = s; });
  });
  fabric_.run_until_idle();
  EXPECT_EQ(completion.code(), ErrorCode::kNotFound);
}

TEST_F(EndpointTest, SendLandsInRemoteQueue) {
  Bytes msg{1, 2, 3, 4};
  fabric_.schedule_at(0,
                      [&] { fabric_.post_send(a_, b_, as_span(msg), 1, {}); });
  fabric_.run_until_idle();
  auto received = fabric_.node(b_).worker.try_recv();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->data, msg);
  EXPECT_EQ(received->source, a_);
}

TEST_F(EndpointTest, StatsCountOps) {
  std::uint64_t remote = 0;
  auto region = fabric_.node(b_).memory.register_memory(&remote, 8);
  ASSERT_TRUE(region.is_ok());
  Bytes data(8, 1);
  fabric_.schedule_at(0, [&] {
    fabric_.post_put(a_, region->remote_addr(b_), as_span(data), {});
    fabric_.post_get(a_, region->remote_addr(b_), 8, [](StatusOr<Bytes>) {});
    fabric_.post_send(a_, b_, as_span(data), 1, {});
  });
  fabric_.run_until_idle();
  EXPECT_EQ(fabric_.stats().puts, 1u);
  EXPECT_EQ(fabric_.stats().gets, 1u);
  EXPECT_EQ(fabric_.stats().sends, 1u);
  EXPECT_EQ(fabric_.stats().bytes_on_wire, 24u);  // 8 put + 8 got + 8 sent
}

TEST_F(EndpointTest, BackToBackSendsSerializeOnInjection) {
  LinkModel m = instant_link();
  m.gap_send_ns = 500;
  fabric_.set_default_link(m);
  Bytes msg{1};
  std::vector<VirtTime> deliveries;
  fabric_.schedule_at(0, [&] {
    for (int i = 0; i < 3; ++i) {
      fabric_.post_send(a_, b_, as_span(msg), 1,
                        [&](Status) { deliveries.push_back(fabric_.now()); });
    }
  });
  fabric_.run_until_idle();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], 0);
  EXPECT_EQ(deliveries[1], 500);
  EXPECT_EQ(deliveries[2], 1000);
}

class ManyNodesP : public ::testing::TestWithParam<int> {};

TEST_P(ManyNodesP, AllPairsDeliver) {
  const int n = GetParam();
  Fabric fabric;
  fabric.set_default_link(instant_link());
  std::vector<NodeId> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(fabric.add_node("n"));

  int delivered = 0;
  fabric.schedule_at(0, [&] {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        Bytes msg{static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(j)};
        fabric.post_send(nodes[i], nodes[j], as_span(msg), 1,
                         [&delivered](Status s) {
                           if (s.is_ok()) ++delivered;
                         });
      }
    }
  });
  fabric.run_until_idle();
  EXPECT_EQ(delivered, n * (n - 1));
  std::uint64_t queued = 0;
  for (auto id : nodes) queued += fabric.node(id).worker.rx_queue_depth();
  EXPECT_EQ(queued, static_cast<std::uint64_t>(n * (n - 1)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ManyNodesP, ::testing::Values(2, 3, 8, 16));

}  // namespace
}  // namespace tc::fabric
