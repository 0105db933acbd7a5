// Partition-server behaviour under tricky interleavings: head-of-line
// blocking, S-SMR variable exchange details, move edge cases, exactly-once
// replies.
#include <gtest/gtest.h>

#include <map>

#include "harness/deployment.h"
#include "smr/kv.h"
#include "testing/cluster.h"
#include "testing/dssmr_fixture.h"

namespace dssmr::core {
namespace {

using harness::Deployment;
using smr::ReplyCode;
using namespace dssmr::testing;

std::unique_ptr<Deployment> kv_deployment(std::size_t parts, Strategy strategy,
                                          std::size_t vars = 8, std::size_t clients = 4) {
  auto cfg = small_config(parts, strategy, clients);
  auto d = std::make_unique<Deployment>(
      cfg, kv::kv_app_factory(),
      [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); });
  for (std::size_t i = 0; i < vars; ++i) {
    d->preload_var(VarId{i}, d->partition_gid(i % parts),
                   kv::KvValue{static_cast<std::int64_t>(i), ""});
  }
  d->start();
  d->settle();
  return d;
}

TEST(ServerExec, MultiPartitionCommandBlocksLaterCommands) {
  // Under S-SMR, a cross-partition command delivered first must complete
  // before a later single-partition command on the same partition executes.
  auto d = kv_deployment(2, Strategy::kStaticSsmr);
  std::vector<int> completion_order;
  d->client(0).issue(kv_sum({VarId{0}, VarId{1}}, VarId{0}),
                     [&](ReplyCode c, const net::MessagePtr&) {
                       ASSERT_EQ(c, ReplyCode::kOk);
                       completion_order.push_back(1);
                     });
  // Give the first command a head start into the log, then a local read.
  d->engine().run_for(msec(1));
  d->client(1).issue(kv_get(VarId{2}), [&](ReplyCode c, const net::MessagePtr&) {
    ASSERT_EQ(c, ReplyCode::kOk);
    completion_order.push_back(2);
  });
  d->engine().run_for(sec(2));
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order[0], 1);
  EXPECT_EQ(completion_order[1], 2);
}

TEST(ServerExec, CrossPartitionReadGetsRemoteValue) {
  auto d = kv_deployment(4, Strategy::kStaticSsmr);
  // Sum vars on partitions 1,2,3 into var on partition 0: partition 0 needs
  // three remote values shipped in.
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{1}, VarId{2}, VarId{3}}, VarId{0}), &reply),
            ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 1 + 2 + 3);
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 6);
}

TEST(ServerExec, CrossPartitionWriteAppliesAtOwnerOnly) {
  auto d = kv_deployment(2, Strategy::kStaticSsmr);
  // kSet writes both vars; each partition applies only its own.
  EXPECT_EQ(run_op(*d, 0, kv_set({VarId{0}, VarId{1}}, "w")), ReplyCode::kOk);
  EXPECT_TRUE(d->server(0, 0).owns(VarId{0}));
  EXPECT_FALSE(d->server(0, 0).owns(VarId{1}));
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, kv_get(VarId{1}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_data(reply), "w");
}

TEST(ServerMove, MoveToPartitionAlreadyHoldingSomeVars) {
  auto d = kv_deployment(2, Strategy::kDssmr);
  // {v0,v2} @P0, {v1} @P1 -> most-held dest is P0; P0 is both source-holder
  // and destination.
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{2}, VarId{1}}, VarId{0}), &reply),
            ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 0 + 2 + 1);
  EXPECT_TRUE(d->server(0, 0).owns(VarId{1}));
  EXPECT_FALSE(d->server(1, 0).owns(VarId{1}));
  // Store value travelled with the move.
  EXPECT_EQ(run_op(*d, 1, kv_get(VarId{1}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 1);
}

TEST(ServerMove, ConcurrentOverlappingCollocationsStayConsistent) {
  auto d = kv_deployment(2, Strategy::kDssmr, 8, 4);
  // Two clients concurrently collocate overlapping variable sets.
  int done = 0;
  d->client(0).issue(kv_sum({VarId{0}, VarId{1}}, VarId{0}),
                     [&](ReplyCode c, const net::MessagePtr&) {
                       EXPECT_EQ(c, ReplyCode::kOk);
                       ++done;
                     });
  d->client(1).issue(kv_sum({VarId{1}, VarId{2}}, VarId{2}),
                     [&](ReplyCode c, const net::MessagePtr&) {
                       EXPECT_EQ(c, ReplyCode::kOk);
                       ++done;
                     });
  const Time deadline = d->engine().now() + sec(20);
  while (done < 2 && d->engine().now() < deadline) d->engine().run_for(msec(10));
  ASSERT_EQ(done, 2);
  d->engine().run_for(sec(1));
  const auto violations = d->audit_consistency();
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST(ServerMove, MoveIsExactlyOnceUnderRetransmission) {
  // Aggressive client timeouts force duplicated move submissions; the store
  // must neither lose nor duplicate the variable.
  auto cfg = small_config(2, Strategy::kDssmr, 2);
  cfg.client_timeout = msec(20);
  cfg.net.intra_rack_latency = msec(8);
  cfg.net.inter_rack_latency = msec(15);
  auto d = std::make_unique<Deployment>(
      cfg, kv::kv_app_factory(),
      [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); });
  for (std::size_t i = 0; i < 4; ++i) {
    d->preload_var(VarId{i}, d->partition_gid(i % 2),
                   kv::KvValue{static_cast<std::int64_t>(i), ""});
  }
  d->start();
  d->settle();
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{2}, VarId{1}}, VarId{1}), &reply),
            ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 3);
  d->engine().run_for(sec(1));
  const auto violations = d->audit_consistency();
  for (const auto& v : violations) ADD_FAILURE() << v;
}

// Regression (lost variable at high concurrency): an inbound move whose
// source never held the variable fails at execution and gives up the
// destination's claim on it. If a second inbound move of the same variable
// was delivered in between, the claim is that move's: giving it up left the
// destination holding the value without owning it, and the next outbound move
// shipped nothing. Replicas reach the failed execution at different points of
// the delivery sequence, so this used to depend on each replica's timing;
// here the second move reaches every replica before the stale one executes.
TEST(ServerMove, StaleInboundMoveLeavesLaterClaimStanding) {
  auto d = kv_deployment(3, Strategy::kDssmr);  // VarId{0} lives on partition 0
  testing::RecordingClient rc;
  d->network().add_process(rc, 0);
  rc.init_client_node(d->network(), d->server(0, 0).directory());
  const std::size_t replicas = d->config().replicas_per_partition;

  const auto move = [&](std::uint64_t seq, GroupId from, GroupId to) {
    smr::Command cmd;
    cmd.type = smr::CommandType::kMove;
    cmd.requester = rc.pid();
    cmd.id = MsgId{(static_cast<std::uint64_t>(rc.pid().value) << 32) | seq};
    cmd.write_set = {VarId{0}};
    cmd.move_sources = {from};
    cmd.move_dest = to;
    rc.amcast({from, to, d->oracle_gid()}, net::make_msg<smr::CommandMsg>(std::move(cmd)));
  };
  std::vector<std::uint64_t> delivered0;
  std::vector<std::uint64_t> executed0;
  for (std::size_t r = 0; r < replicas; ++r) {
    delivered0.push_back(d->server(1, r).amcast_delivered());
    executed0.push_back(d->server(1, r).executed_count());
  }
  move(1, d->partition_gid(2), d->partition_gid(1));  // stale: partition 2 never held it
  move(2, d->partition_gid(0), d->partition_gid(1));

  // Per destination replica: moves executed when the second one was delivered.
  std::vector<std::uint64_t> executed_at_second(replicas, 2);
  const auto done = [&] {
    for (std::size_t r = 0; r < replicas; ++r) {
      if (d->server(1, r).executed_count() < executed0[r] + 2) return false;
    }
    return true;
  };
  const Time deadline = d->engine().now() + sec(5);
  while (!done() && d->engine().now() < deadline && d->engine().step()) {
    for (std::size_t r = 0; r < replicas; ++r) {
      if (d->server(1, r).amcast_delivered() == delivered0[r] + 2 &&
          executed_at_second[r] == 2) {
        executed_at_second[r] = d->server(1, r).executed_count() - executed0[r];
      }
    }
  }
  ASSERT_TRUE(done());
  for (std::size_t r = 0; r < replicas; ++r) {
    ASSERT_EQ(executed_at_second[r], 0u) << "replica " << r;
  }
  d->engine().run_for(msec(100));

  std::map<std::uint64_t, ReplyCode> codes;  // by sequence number
  for (const net::MessagePtr& m : rc.replies) {
    const auto& reply = net::msg_as<smr::ReplyMsg>(m);
    codes[reply.cmd_id.value & 0xffffffffu] = reply.code;
  }
  EXPECT_EQ(codes, (std::map<std::uint64_t, ReplyCode>{{1, ReplyCode::kRetry},
                                                       {2, ReplyCode::kOk}}));
  for (std::size_t r = 0; r < replicas; ++r) {
    EXPECT_TRUE(d->server(1, r).owns(VarId{0})) << "replica " << r;
    EXPECT_TRUE(d->server(1, r).store().contains(VarId{0})) << "replica " << r;
  }
  for (const auto& v : d->audit_consistency()) ADD_FAILURE() << v;
}

TEST(ServerExec, ExecutedCountAndBusyTimeAdvance) {
  auto d = kv_deployment(2, Strategy::kDssmr);
  const auto before = d->server(0, 0).executed_count();
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0})), ReplyCode::kOk);
  d->engine().run_for(msec(100));
  EXPECT_GT(d->server(0, 0).executed_count(), before);
  EXPECT_GT(d->server(0, 0).busy_time(), 0);
}

TEST(ServerExec, StoreReflectsPreloadedBytes) {
  auto d = kv_deployment(2, Strategy::kDssmr);
  EXPECT_EQ(d->server(0, 0).owned_count(), 4u);
  EXPECT_GT(d->server(0, 0).store().total_bytes(), 0u);
}

TEST(ServerFallback, FallbackExecutesDespiteScatteredVars) {
  // With retries disabled, a stale-cache access goes straight to the S-SMR
  // fall-back across all partitions and still returns the right value.
  auto cfg = small_config(2, Strategy::kDssmr, 4);
  cfg.client_max_retries = -1;
  auto d = std::make_unique<Deployment>(
      cfg, kv::kv_app_factory(),
      [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); });
  for (std::size_t i = 0; i < 4; ++i) {
    d->preload_var(VarId{i}, d->partition_gid(i % 2),
                   kv::KvValue{static_cast<std::int64_t>(10 * i), ""});
  }
  d->start();
  d->settle();
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1})), ReplyCode::kOk);  // cache v1@P1
  EXPECT_EQ(run_op(*d, 1, kv_sum({VarId{0}, VarId{2}, VarId{1}}, VarId{3})), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 10);
  EXPECT_EQ(d->metrics().counter("client.fallbacks"), 1u);
}

}  // namespace
}  // namespace dssmr::core
