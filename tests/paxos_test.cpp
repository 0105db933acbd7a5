#include "consensus/paxos.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "sim/engine.h"
#include "testing/cluster.h"

namespace dssmr::consensus {
namespace {

using testing::IntMsg;
using testing::TestPaxosNode;

struct PaxosCluster {
  explicit PaxosCluster(std::size_t n, double drop = 0.0, std::uint64_t seed = 5)
      : network(engine, make_net(drop), seed) {
    std::vector<ProcessId> members;
    for (std::size_t i = 0; i < n; ++i) {
      auto node = std::make_unique<TestPaxosNode>();
      members.push_back(network.add_process(*node, static_cast<int>(i % 2)));
      nodes.push_back(std::move(node));
    }
    PaxosConfig cfg;
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i]->init(network, GroupId{0}, members, cfg, seed + i);
      nodes[i]->core->start();
    }
  }

  static net::NetworkConfig make_net(double drop) {
    net::NetworkConfig c;
    c.drop_probability = drop;
    return c;
  }

  /// Submits through whichever node currently leads; retries until accepted.
  MsgId submit(std::int64_t value, std::uint64_t salt = 0) {
    const MsgId id{0x1000 + static_cast<std::uint64_t>(value) + (salt << 40)};
    for (auto& n : nodes) {
      if (n->core->is_leader() && n->core->submit({id, net::make_msg<IntMsg>(value)})) {
        return id;
      }
    }
    return MsgId{0};  // nobody leads yet
  }

  sim::Engine engine;
  net::Network network;
  std::vector<std::unique_ptr<TestPaxosNode>> nodes;
};

TEST(Paxos, ElectsInitialLeader) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  EXPECT_TRUE(c.nodes[0]->core->is_leader());
  EXPECT_FALSE(c.nodes[1]->core->is_leader());
  EXPECT_FALSE(c.nodes[2]->core->is_leader());
  for (auto& n : c.nodes) EXPECT_EQ(n->core->leader_hint(), c.nodes[0]->core->members()[0]);
}

TEST(Paxos, DecidesSubmittedValueEverywhere) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  c.submit(7);
  c.engine.run_for(msec(50));
  for (auto& n : c.nodes) {
    ASSERT_EQ(n->decided.size(), 1u);
    EXPECT_EQ(net::msg_as<IntMsg>(n->decided[0].payload).value, 7);
  }
}

TEST(Paxos, NonLeaderRejectsSubmit) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  EXPECT_FALSE(c.nodes[1]->core->submit({MsgId{1}, net::make_msg<IntMsg>(1)}));
}

TEST(Paxos, AllReplicasDeliverSameSequence) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  for (int i = 0; i < 50; ++i) {
    c.engine.schedule(usec(i * 100), [&, i] { c.submit(i); });
  }
  c.engine.run_for(msec(200));
  ASSERT_EQ(c.nodes[0]->decided.size(), 50u);
  for (std::size_t r = 1; r < 3; ++r) {
    ASSERT_EQ(c.nodes[r]->decided.size(), 50u);
    for (std::size_t i = 0; i < 50; ++i) {
      EXPECT_EQ(c.nodes[r]->decided[i].id, c.nodes[0]->decided[i].id);
    }
  }
}

TEST(Paxos, BatchesManySubmissionsIntoFewSlots) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  for (int i = 0; i < 64; ++i) c.submit(i);  // all at the same instant
  c.engine.run_for(msec(50));
  ASSERT_EQ(c.nodes[0]->decided.size(), 64u);
  // With max_batch = 64 these should occupy very few slots.
  EXPECT_LE(c.nodes[0]->decided_slots.back(), 3u);
}

TEST(Paxos, DuplicateEntryIdsDedupAtLeader) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  const MsgId id = c.submit(42);
  c.nodes[0]->core->submit({id, net::make_msg<IntMsg>(42)});  // duplicate
  c.engine.run_for(msec(50));
  EXPECT_EQ(c.nodes[0]->decided.size(), 1u);
}

TEST(Paxos, SurvivesLeaderCrash) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  c.submit(1);
  c.engine.run_for(msec(50));

  // Crash the leader; a follower must take over.
  c.network.crash(c.nodes[0]->core->members()[0]);
  c.nodes[0]->core->halt();
  c.engine.run_for(msec(800));

  TestPaxosNode* leader = nullptr;
  for (auto& n : c.nodes) {
    if (&*n != c.nodes[0].get() && n->core->is_leader()) leader = n.get();
  }
  ASSERT_NE(leader, nullptr);

  leader->core->submit({MsgId{0x999}, net::make_msg<IntMsg>(2)});
  c.engine.run_for(msec(100));
  for (std::size_t r = 1; r < 3; ++r) {
    ASSERT_EQ(c.nodes[r]->decided.size(), 2u) << "replica " << r;
    EXPECT_EQ(net::msg_as<IntMsg>(c.nodes[r]->decided[0].payload).value, 1);
    EXPECT_EQ(net::msg_as<IntMsg>(c.nodes[r]->decided[1].payload).value, 2);
  }
}

TEST(Paxos, NewLeaderPreservesDecidedPrefix) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  for (int i = 0; i < 10; ++i) c.submit(i);
  c.engine.run_for(msec(50));
  auto prefix = c.nodes[1]->decided;

  c.network.crash(c.nodes[0]->core->members()[0]);
  c.nodes[0]->core->halt();
  c.engine.run_for(msec(800));

  // Submit through the new leader.
  for (auto& n : c.nodes) {
    if (n->core->is_leader()) n->core->submit({MsgId{0x777}, net::make_msg<IntMsg>(99)});
  }
  c.engine.run_for(msec(100));

  for (std::size_t r = 1; r < 3; ++r) {
    ASSERT_GE(c.nodes[r]->decided.size(), prefix.size());
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_EQ(c.nodes[r]->decided[i].id, prefix[i].id) << "replica " << r << " slot " << i;
    }
  }
}

TEST(Paxos, MakesProgressUnderMessageLoss) {
  PaxosCluster c{3, /*drop=*/0.10, /*seed=*/11};
  c.engine.run_for(msec(300));
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    c.engine.schedule(msec(i * 5), [&, i] {
      if (c.submit(i, static_cast<std::uint64_t>(i)) != MsgId{0}) ++accepted;
    });
  }
  c.engine.run_for(sec(3));
  // Everything the leader accepted must eventually decide on live replicas.
  for (auto& n : c.nodes) {
    EXPECT_EQ(static_cast<int>(n->decided.size()), accepted);
  }
  EXPECT_GT(accepted, 0);
}

TEST(Paxos, SubmitDedupSetStaysBoundedOverALongLeadership) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  PaxosCore& leader = *c.nodes[0]->core;
  ASSERT_TRUE(leader.is_leader());
  constexpr std::size_t kWindow = PaxosCore::kSubmitDedupWindow;
  constexpr int kEntries = static_cast<int>(kWindow + kWindow / 4);
  for (int i = 0; i < kEntries; ++i) {
    ASSERT_NE(c.submit(i), MsgId{0});
    if (i % 256 == 255) {
      c.engine.run_for(msec(1));
      ASSERT_LE(leader.submit_dedup_size(), kWindow);
    }
  }
  c.engine.run_for(msec(50));
  ASSERT_TRUE(leader.is_leader());  // one leadership throughout
  EXPECT_EQ(leader.submit_dedup_size(), kWindow);
  for (auto& n : c.nodes) EXPECT_EQ(n->decided.size(), static_cast<std::size_t>(kEntries));

  // A retransmission inside the window still collapses onto the original.
  const MsgId id = c.submit(kEntries);
  c.engine.run_for(msec(5));
  EXPECT_TRUE(leader.submit({id, net::make_msg<IntMsg>(kEntries)}));
  c.engine.run_for(msec(50));
  for (auto& n : c.nodes) EXPECT_EQ(n->decided.size(), static_cast<std::size_t>(kEntries + 1));
}

TEST(Paxos, FiveReplicaClusterDecides) {
  PaxosCluster c{5};
  c.engine.run_for(msec(50));
  c.submit(123);
  c.engine.run_for(msec(100));
  for (auto& n : c.nodes) ASSERT_EQ(n->decided.size(), 1u);
}

TEST(Paxos, SingleReplicaDegenerateGroup) {
  PaxosCluster c{1};
  c.engine.run_for(msec(50));
  c.submit(5);
  c.engine.run_for(msec(50));
  ASSERT_EQ(c.nodes[0]->decided.size(), 1u);
}

}  // namespace
}  // namespace dssmr::consensus
