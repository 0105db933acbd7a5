// Fine-grained oracle behaviour, observed through the full stack: prophecy
// contents, destination recommendations, hint accounting, signal-gated
// create replies.
#include <gtest/gtest.h>

#include "core/dynastar_policy.h"
#include "harness/deployment.h"
#include "smr/kv.h"
#include "testing/dssmr_fixture.h"

namespace dssmr::core {
namespace {

using harness::Deployment;
using smr::ReplyCode;
using namespace dssmr::testing;

/// A test client that exposes raw consult/prophecy interaction.
class ProbingClient : public multicast::ClientNode {
 public:
  std::vector<std::shared_ptr<const smr::ProphecyMsg>> prophecies;

  void consult(GroupId oracle, const smr::Command& cmd) {
    const MsgId id = fresh_id();
    amcast_with_id(id, {oracle},
                   net::make_msg<smr::ConsultMsg>(id, std::make_shared<const smr::Command>(cmd)));
  }

 protected:
  void on_reply(ProcessId, const net::MessagePtr& m) override {
    if (auto p = std::dynamic_pointer_cast<const smr::ProphecyMsg>(m)) {
      prophecies.push_back(std::move(p));
    }
  }
};

struct OracleFixture : ::testing::Test {
  OracleFixture()
      : d(small_config(2, Strategy::kDssmr, 1), kv::kv_app_factory(),
          [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); }) {
    for (std::size_t i = 0; i < 6; ++i) {
      d.preload_var(VarId{i}, d.partition_gid(i % 2), kv::KvValue{0, ""});
    }
    d.start();
    d.settle();
    d.network().add_process(probe, 0);
    probe.init_client_node(d.network(), directory());
  }

  const multicast::Directory& directory() {
    // The probing client reuses the deployment's directory via a client proxy.
    return d.client(0).directory();
  }

  const smr::ProphecyMsg& last_prophecy() {
    DSSMR_ASSERT(!probe.prophecies.empty());
    return *probe.prophecies.back();
  }

  void run_until_prophecy(std::size_t count) {
    const Time deadline = d.engine().now() + sec(5);
    while (probe.prophecies.size() < count && d.engine().now() < deadline) {
      d.engine().run_for(msec(5));
    }
    ASSERT_EQ(probe.prophecies.size(), count);
  }

  Deployment d;
  ProbingClient probe;
};

TEST_F(OracleFixture, ProphecyListsEveryVariableLocation) {
  smr::Command cmd = kv_sum({VarId{0}, VarId{1}, VarId{2}}, VarId{0});
  probe.consult(d.oracle_gid(), cmd);
  run_until_prophecy(1);
  const auto& p = last_prophecy();
  EXPECT_EQ(p.code, ReplyCode::kOk);
  ASSERT_EQ(p.locations.size(), 3u);
  for (const auto& [v, loc] : p.locations) {
    EXPECT_EQ(loc, d.partition_gid(v.value % 2));
  }
  // Two of three variables on partition 0 -> most-held recommends partition 0.
  EXPECT_EQ(p.dest, d.partition_gid(0));
  EXPECT_FALSE(p.oracle_moved);
}

TEST_F(OracleFixture, SinglePartitionProphecyHasNoMoveDestNeeded) {
  probe.consult(d.oracle_gid(), kv_get(VarId{0}));
  run_until_prophecy(1);
  const auto& p = last_prophecy();
  EXPECT_EQ(p.code, ReplyCode::kOk);
  ASSERT_EQ(p.locations.size(), 1u);
  EXPECT_EQ(p.dest, d.partition_gid(0));
}

TEST_F(OracleFixture, UnknownVariableProphecyIsNok) {
  probe.consult(d.oracle_gid(), kv_get(VarId{555}));
  run_until_prophecy(1);
  EXPECT_EQ(last_prophecy().code, ReplyCode::kNok);
  EXPECT_TRUE(last_prophecy().locations.empty());
}

TEST_F(OracleFixture, CreateProphecyAssignsAPartition) {
  probe.consult(d.oracle_gid(), make_create(VarId{100}));
  run_until_prophecy(1);
  const auto& p = last_prophecy();
  EXPECT_EQ(p.code, ReplyCode::kOk);
  EXPECT_NE(p.dest, kNoGroup);
  // Existing variable -> nok.
  probe.consult(d.oracle_gid(), make_create(VarId{0}));
  run_until_prophecy(2);
  EXPECT_EQ(last_prophecy().code, ReplyCode::kNok);
}

TEST_F(OracleFixture, ConsultsDoNotMutateTheMapping) {
  const auto before = d.oracle(0).mapping().entries();
  probe.consult(d.oracle_gid(), kv_sum({VarId{0}, VarId{1}}, VarId{0}));
  run_until_prophecy(1);
  EXPECT_EQ(d.oracle(0).mapping().entries(), before);
}

TEST_F(OracleFixture, MappingVarCountTracksCreatesAndDeletes) {
  EXPECT_EQ(d.oracle(0).mapping().var_count(), 6u);
  EXPECT_EQ(run_op(d, 0, make_create(VarId{50})), ReplyCode::kOk);
  EXPECT_EQ(d.oracle(0).mapping().var_count(), 7u);
  EXPECT_EQ(run_op(d, 0, make_delete(VarId{50})), ReplyCode::kOk);
  EXPECT_EQ(d.oracle(0).mapping().var_count(), 6u);
}

TEST_F(OracleFixture, OracleBusyTimeAccrues) {
  EXPECT_EQ(run_op(d, 0, kv_get(VarId{0})), ReplyCode::kOk);
  Duration busy = 0;
  for (std::size_t r = 0; r < 3; ++r) busy += d.oracle(r).busy_time();
  EXPECT_GT(busy, 0);
}

TEST(OracleHints, HintsReachEveryOracleReplicaIdentically) {
  auto cfg = small_config(2, Strategy::kDynaStar, 1);
  cfg.client_hints = true;
  cfg.oracle.oracle_issues_moves = true;
  DynaStarPolicy::Config pc;
  pc.repartition_every_hints = 1000000;  // never, for this test
  pc.partitioner.k = 2;
  harness::Deployment d{cfg, kv::kv_app_factory(),
                        [pc] { return std::make_unique<DynaStarPolicy>(pc); }};
  for (std::size_t i = 0; i < 4; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % 2), kv::KvValue{0, ""});
  }
  d.start();
  d.settle();

  // A command carrying hint edges; the client forwards them after success.
  smr::Command cmd = kv_get(VarId{0});
  cmd.hint_edges = {{VarId{0}, VarId{1}}, {VarId{1}, VarId{2}}};
  EXPECT_EQ(run_op(d, 0, cmd), ReplyCode::kOk);
  d.engine().run_for(msec(200));

  for (std::size_t r = 0; r < 3; ++r) {
    auto& policy = dynamic_cast<DynaStarPolicy&>(d.oracle(r).policy());
    EXPECT_EQ(policy.graph_edge_count(), 2u) << "oracle replica " << r;
  }
}

}  // namespace
}  // namespace dssmr::core
