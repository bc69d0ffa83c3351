// Tests for the Active-Message baseline runtime.
#include <gtest/gtest.h>

#include "am/am_runtime.hpp"

namespace tc::am {
namespace {

using fabric::Fabric;
using fabric::NodeId;

class AmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_.set_default_link(fabric::instant_link());
    a_ = fabric_.add_node("a");
    b_ = fabric_.add_node("b");
    rt_a_ = create(a_);
    rt_b_ = create(b_);
  }

  std::unique_ptr<AmRuntime> create(NodeId node, AmOptions options = {}) {
    auto rt = AmRuntime::create(fabric_, node, options);
    EXPECT_TRUE(rt.is_ok()) << rt.status().to_string();
    return std::move(rt).value();
  }

  Fabric fabric_;
  NodeId a_ = 0, b_ = 0;
  std::unique_ptr<AmRuntime> rt_a_, rt_b_;
};

TEST_F(AmTest, HandlerInvocationWithPayload) {
  std::uint64_t counter = 0;
  rt_b_->set_target_ptr(&counter);
  // Predeployment: register the identical handler on both nodes.
  auto increment = [](AmContext& ctx, std::uint8_t*, std::uint64_t) {
    ++*static_cast<std::uint64_t*>(ctx.target_ptr);
  };
  auto idx_a = rt_a_->register_handler(increment);
  auto idx_b = rt_b_->register_handler(increment);
  ASSERT_TRUE(idx_a.is_ok());
  ASSERT_TRUE(idx_b.is_ok());
  ASSERT_EQ(*idx_a, *idx_b);

  Bytes payload{0};
  ASSERT_TRUE(rt_a_->send(b_, *idx_a, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(counter, 1u);
  EXPECT_EQ(rt_b_->stats().executed, 1u);
  EXPECT_EQ(rt_a_->stats().sent, 1u);
}

TEST_F(AmTest, UnregisteredIndexRejectedAtSender) {
  Bytes payload{0};
  EXPECT_EQ(rt_a_->send(b_, 9, as_span(payload)).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(AmTest, MissingHandlerAtTargetCountsError) {
  // a registers two handlers, b registers only one — index 1 is missing on b.
  auto nop = [](AmContext&, std::uint8_t*, std::uint64_t) {};
  ASSERT_TRUE(rt_a_->register_handler(nop).is_ok());
  ASSERT_TRUE(rt_a_->register_handler(nop).is_ok());
  ASSERT_TRUE(rt_b_->register_handler(nop).is_ok());

  Bytes payload{0};
  ASSERT_TRUE(rt_a_->send(b_, 1, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(rt_b_->stats().errors, 1u);
  EXPECT_EQ(rt_b_->stats().executed, 0u);
}

TEST_F(AmTest, ReplyRoutesToOrigin) {
  auto echo = [](AmContext& ctx, std::uint8_t* payload, std::uint64_t size) {
    (void)ctx.runtime->reply(ctx, ByteSpan(payload, size));
  };
  ASSERT_TRUE(rt_a_->register_handler(echo).is_ok());
  auto idx = rt_b_->register_handler(echo);
  ASSERT_TRUE(idx.is_ok());

  Bytes got;
  rt_a_->set_result_handler(
      [&](ByteSpan data, NodeId) { got.assign(data.begin(), data.end()); });

  Bytes payload{1, 2, 3};
  ASSERT_TRUE(rt_a_->send(b_, *idx, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  EXPECT_EQ(got, payload);
  EXPECT_EQ(rt_b_->stats().replies, 1u);
  EXPECT_EQ(rt_a_->stats().results_received, 1u);
}

TEST_F(AmTest, HandlerMayMutatePayloadAndResend) {
  const NodeId c = fabric_.add_node("c");
  auto rt_c = create(c);
  std::vector<NodeId> peers{a_, b_, c};
  rt_a_->set_peers(peers);
  rt_b_->set_peers(peers);
  rt_c->set_peers(peers);

  // Hop handler: decrement payload[0]; forward to next peer or reply.
  auto hop = [](AmContext& ctx, std::uint8_t* payload, std::uint64_t size) {
    if (payload[0] == 0) {
      (void)ctx.runtime->reply(ctx, ByteSpan(payload, size));
      return;
    }
    --payload[0];
    const std::uint64_t next = (ctx.self_peer + 1) % ctx.peers->size();
    (void)ctx.runtime->send((*ctx.peers)[next], ctx.handler_index,
                            ByteSpan(payload, size), ctx.origin_node);
  };
  std::uint16_t idx = 0;
  for (auto* rt : {rt_a_.get(), rt_b_.get(), rt_c.get()}) {
    auto i = rt->register_handler(hop);
    ASSERT_TRUE(i.is_ok());
    idx = *i;
  }

  bool done = false;
  rt_a_->set_result_handler([&](ByteSpan, NodeId) { done = true; });
  Bytes payload{5};
  ASSERT_TRUE(rt_a_->send(b_, idx, as_span(payload)).is_ok());
  ASSERT_TRUE(fabric_.run_until([&] { return done; }).is_ok());
}

TEST_F(AmTest, SenderDestroyedWithAmOnTheWire) {
  // The message belongs to the fabric once it is posted: destroying the
  // sending runtime before it lands must neither lose it nor leave an
  // in-flight event pointing into the destroyed sender.
  std::uint64_t counter = 0;
  rt_b_->set_target_ptr(&counter);
  auto increment = [](AmContext& ctx, std::uint8_t*, std::uint64_t) {
    ++*static_cast<std::uint64_t*>(ctx.target_ptr);
  };
  auto idx = rt_a_->register_handler(increment);
  ASSERT_TRUE(idx.is_ok());
  ASSERT_TRUE(rt_b_->register_handler(increment).is_ok());

  Bytes payload{0};
  ASSERT_TRUE(rt_a_->send(b_, *idx, as_span(payload)).is_ok());
  rt_a_.reset();
  fabric_.run_until_idle();
  EXPECT_EQ(counter, 1u);
  EXPECT_EQ(rt_b_->stats().executed, 1u);
  EXPECT_EQ(rt_b_->stats().errors, 0u);
}

TEST_F(AmTest, ExecCostChargedToNode) {
  rt_b_.reset();
  AmOptions options;
  options.exec_cost_ns = 1000;
  auto rt_b2 = create(b_, options);
  auto nop = [](AmContext&, std::uint8_t*, std::uint64_t) {};
  ASSERT_TRUE(rt_a_->register_handler(nop).is_ok());
  auto idx = rt_b2->register_handler(nop);
  ASSERT_TRUE(idx.is_ok());

  Bytes payload{0};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(rt_a_->send(b_, *idx, as_span(payload)).is_ok());
  }
  fabric_.run_until_idle();
  EXPECT_GE(fabric_.node(b_).busy_until, 5000);
}

TEST_F(AmTest, MalformedFrameCounted) {
  Bytes junk{0x00, 0x11, 0x22};
  fabric_.schedule_at(
      0, [&] { fabric_.post_am(a_, b_, kAmChannel, as_span(junk), {}); });
  fabric_.run_until_idle();
  EXPECT_EQ(rt_b_->stats().errors, 1u);
}

}  // namespace
}  // namespace tc::am
