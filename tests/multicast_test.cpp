#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "multicast/atomic.h"
#include "multicast/messages.h"
#include "multicast/reliable.h"
#include "testing/cluster.h"

namespace dssmr::multicast {
namespace {

using testing::Fabric;
using testing::IntMsg;

std::vector<std::uint64_t> delivered_ids(const testing::RecordingGroupNode& n) {
  std::vector<std::uint64_t> ids;
  ids.reserve(n.amdelivered.size());
  for (const auto& m : n.amdelivered) ids.push_back(m.id.value);
  return ids;
}

TEST(Amcast, SingleGroupDeliversToAllReplicas) {
  Fabric f{1, 3, 1};
  f.engine.run_for(msec(50));
  f.clients[0]->amcast({GroupId{0}}, net::make_msg<IntMsg>(7));
  f.engine.run_for(msec(100));
  for (std::size_t r = 0; r < 3; ++r) {
    ASSERT_EQ(f.node(0, r).amdelivered.size(), 1u);
    EXPECT_EQ(net::msg_as<IntMsg>(f.node(0, r).amdelivered[0].payload).value, 7);
  }
}

TEST(Amcast, MultiGroupDeliversAtEveryDestination) {
  Fabric f{3, 3, 1};
  f.engine.run_for(msec(50));
  f.clients[0]->amcast({GroupId{0}, GroupId{2}}, net::make_msg<IntMsg>(9));
  f.engine.run_for(msec(300));
  for (std::size_t g : {0u, 2u}) {
    for (std::size_t r = 0; r < 3; ++r) {
      ASSERT_EQ(f.node(g, r).amdelivered.size(), 1u) << "group " << g << " replica " << r;
    }
  }
  for (std::size_t r = 0; r < 3; ++r) EXPECT_TRUE(f.node(1, r).amdelivered.empty());
}

TEST(Amcast, RetriedSubmissionDeliversOnce) {
  Fabric f{2, 3, 1};
  f.engine.run_for(msec(50));
  const MsgId id = f.clients[0]->fresh_id();
  auto payload = net::make_msg<IntMsg>(4);
  f.clients[0]->amcast_with_id(id, {GroupId{0}, GroupId{1}}, payload);
  f.engine.schedule(msec(20), [&] {
    f.clients[0]->amcast_with_id(id, {GroupId{0}, GroupId{1}}, payload);
  });
  f.engine.run_for(msec(300));
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(f.node(g, r).amdelivered.size(), 1u);
    }
  }
}

TEST(Amcast, UniformAgreementWithinGroups) {
  Fabric f{3, 3, 4};
  f.engine.run_for(msec(50));
  Rng rng{21};
  for (int i = 0; i < 120; ++i) {
    f.engine.schedule(usec(1 + i * 137), [&f, &rng, i] {
      auto& cl = *f.clients[static_cast<std::size_t>(i) % f.clients.size()];
      std::vector<GroupId> dests;
      for (std::uint32_t g = 0; g < 3; ++g) {
        if (rng.chance(0.5)) dests.push_back(GroupId{g});
      }
      if (dests.empty()) dests.push_back(GroupId{static_cast<std::uint32_t>(rng.next() % 3u)});
      cl.amcast(dests, net::make_msg<IntMsg>(i));
    });
  }
  f.engine.run_for(sec(2));
  for (std::size_t g = 0; g < 3; ++g) {
    auto ref = delivered_ids(f.node(g, 0));
    EXPECT_FALSE(ref.empty());
    for (std::size_t r = 1; r < 3; ++r) {
      EXPECT_EQ(delivered_ids(f.node(g, r)), ref) << "group " << g << " replica " << r;
    }
  }
}

TEST(Amcast, IntegrityNoDuplicatesNoInvention) {
  Fabric f{2, 3, 2};
  f.engine.run_for(msec(50));
  std::set<std::uint64_t> sent;
  for (int i = 0; i < 60; ++i) {
    f.engine.schedule(usec(i * 211), [&, i] {
      auto& cl = *f.clients[static_cast<std::size_t>(i % 2)];
      const MsgId id =
          cl.amcast({GroupId{static_cast<std::uint32_t>(i % 2)}}, net::make_msg<IntMsg>(i));
      sent.insert(id.value);
    });
  }
  f.engine.run_for(sec(1));
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t r = 0; r < 3; ++r) {
      auto ids = delivered_ids(f.node(g, r));
      std::set<std::uint64_t> unique(ids.begin(), ids.end());
      EXPECT_EQ(unique.size(), ids.size()) << "duplicate delivery";
      for (auto id : ids) EXPECT_TRUE(sent.contains(id)) << "invented message";
    }
  }
}

// Pairwise (prefix-order / acyclicity) check: any two messages delivered by
// two groups in common must be delivered in the same relative order.
TEST(Amcast, PrefixOrderAcrossGroups) {
  Fabric f{3, 3, 5};
  f.engine.run_for(msec(50));
  Rng rng{77};
  for (int i = 0; i < 200; ++i) {
    f.engine.schedule(usec(1 + i * 97), [&f, &rng, i] {
      auto& cl = *f.clients[static_cast<std::size_t>(i) % f.clients.size()];
      std::vector<GroupId> dests;
      for (std::uint32_t g = 0; g < 3; ++g) {
        if (rng.chance(0.6)) dests.push_back(GroupId{g});
      }
      if (dests.empty()) dests.push_back(GroupId{0});
      cl.amcast(dests, net::make_msg<IntMsg>(i));
    });
  }
  f.engine.run_for(sec(3));

  // Build per-group delivery position maps from replica 0 of each group.
  std::vector<std::map<std::uint64_t, std::size_t>> pos(3);
  for (std::size_t g = 0; g < 3; ++g) {
    auto ids = delivered_ids(f.node(g, 0));
    for (std::size_t i = 0; i < ids.size(); ++i) pos[g][ids[i]] = i;
  }
  for (std::size_t g = 0; g < 3; ++g) {
    for (std::size_t h = g + 1; h < 3; ++h) {
      std::vector<std::uint64_t> common;
      for (const auto& [id, p] : pos[g]) {
        (void)p;
        if (pos[h].contains(id)) common.push_back(id);
      }
      for (std::size_t i = 0; i < common.size(); ++i) {
        for (std::size_t j = i + 1; j < common.size(); ++j) {
          const auto a = common[i], b = common[j];
          const bool order_g = pos[g][a] < pos[g][b];
          const bool order_h = pos[h][a] < pos[h][b];
          EXPECT_EQ(order_g, order_h) << "groups " << g << "," << h
                                      << " disagree on relative order";
        }
      }
    }
  }
}

TEST(Amcast, DeliveryUnderMessageLoss) {
  net::NetworkConfig nc;
  nc.drop_probability = 0.05;
  Fabric f{2, 3, 2, nc};
  f.engine.run_for(msec(300));
  for (int i = 0; i < 30; ++i) {
    f.engine.schedule(msec(i * 3), [&, i] {
      f.clients[static_cast<std::size_t>(i % 2)]->amcast({GroupId{0}, GroupId{1}},
                                                         net::make_msg<IntMsg>(i));
    });
  }
  f.engine.run_for(sec(10));
  // With retry + pull recovery, both groups should converge on the same set.
  auto g0 = delivered_ids(f.node(0, 0));
  auto g1 = delivered_ids(f.node(1, 0));
  std::set<std::uint64_t> s0(g0.begin(), g0.end()), s1(g1.begin(), g1.end());
  EXPECT_EQ(s0, s1);
  EXPECT_GT(s0.size(), 20u);  // most submissions survive 5% loss with client-less retries
}

TEST(Amcast, ServerOriginatedMulticast) {
  Fabric f{2, 3, 0};
  f.engine.run_for(msec(50));
  // The leader of group 0 multicasts to both groups (as the oracle does).
  f.engine.schedule(msec(1), [&] {
    for (std::size_t r = 0; r < 3; ++r) {
      if (f.node(0, r).is_leader()) {
        f.node(0, r).amcast({GroupId{0}, GroupId{1}}, net::make_msg<IntMsg>(5));
      }
    }
  });
  f.engine.run_for(msec(300));
  EXPECT_EQ(f.node(0, 0).amdelivered.size(), 1u);
  EXPECT_EQ(f.node(1, 0).amdelivered.size(), 1u);
}

TEST(Rmcast, DeliversToAllMembersOfDestGroups) {
  Fabric f{3, 3, 0};
  f.engine.run_for(msec(50));
  f.engine.schedule(msec(1), [&] {
    f.node(0, 0).rmcast({GroupId{1}, GroupId{2}}, net::make_msg<IntMsg>(3));
  });
  f.engine.run_for(msec(100));
  for (std::size_t g : {1u, 2u}) {
    for (std::size_t r = 0; r < 3; ++r) {
      ASSERT_EQ(f.node(g, r).rmdelivered.size(), 1u);
      EXPECT_EQ(net::msg_as<IntMsg>(f.node(g, r).rmdelivered[0]).value, 3);
    }
  }
  for (std::size_t r = 0; r < 3; ++r) EXPECT_TRUE(f.node(0, r).rmdelivered.empty());
}

TEST(Rmcast, SenderInDestinationSelfDelivers) {
  Fabric f{2, 3, 0};
  f.engine.run_for(msec(50));
  f.engine.schedule(msec(1), [&] {
    f.node(0, 0).rmcast({GroupId{0}}, net::make_msg<IntMsg>(8));
  });
  f.engine.run_for(msec(100));
  for (std::size_t r = 0; r < 3; ++r) EXPECT_EQ(f.node(0, r).rmdelivered.size(), 1u);
}

TEST(Rmcast, RelaySpreadsPartialFlood) {
  // Hand-deliver an RmMsg to a single member; the relay must reach the rest.
  Fabric f{1, 3, 0};
  f.engine.run_for(msec(50));
  auto rm = std::make_shared<const RmMsg>(MsgId{0xdead}, f.node(0, 0).pid(),
                                          std::vector<GroupId>{GroupId{0}},
                                          net::make_msg<IntMsg>(1), /*relayed=*/false);
  f.engine.schedule(msec(1), [&] {
    f.network.send(f.node(0, 0).pid(), f.node(0, 1).pid(), rm);
  });
  f.engine.run_for(msec(100));
  EXPECT_EQ(f.node(0, 1).rmdelivered.size(), 1u);
  EXPECT_EQ(f.node(0, 2).rmdelivered.size(), 1u);  // reached only via relay
}

TEST(Rmcast, DuplicateEnvelopeDeliversOnce) {
  Fabric f{1, 3, 0};
  f.engine.run_for(msec(50));
  auto rm = std::make_shared<const RmMsg>(MsgId{0xbeef}, f.node(0, 0).pid(),
                                          std::vector<GroupId>{GroupId{0}},
                                          net::make_msg<IntMsg>(2), /*relayed=*/true);
  f.engine.schedule(msec(1), [&] {
    f.network.send(f.node(0, 0).pid(), f.node(0, 1).pid(), rm);
    f.network.send(f.node(0, 0).pid(), f.node(0, 1).pid(), rm);
  });
  f.engine.run_for(msec(100));
  EXPECT_EQ(f.node(0, 1).rmdelivered.size(), 1u);
}

TEST(Rmcast, SeenWindowStaysBoundedAndAbsorbsRecentDuplicates) {
  struct Sink : net::Actor {
    void on_message(ProcessId, const net::MessagePtr&) override {}
  };
  sim::Engine engine;
  net::Network network(engine, net::NetworkConfig{}, 1);
  Sink self_actor, origin_actor;
  const ProcessId self = network.add_process(self_actor);
  const ProcessId origin = network.add_process(origin_actor);
  Directory directory;
  const GroupId g = directory.add_group({self, origin});
  std::vector<std::int64_t> delivered;
  constexpr std::size_t kWindow = RmcastEngine::kSeenWindow;
  const auto deliver = [&](ProcessId, const net::MessagePtr& p) {
    delivered.push_back(net::msg_as<IntMsg>(p).value);
  };
  RmcastEngine rm(network, directory, /*relay=*/true, deliver);
  const auto envelope = [&](std::uint64_t id, bool relayed) {
    return std::make_shared<const RmMsg>(MsgId{id}, origin, std::vector<GroupId>{g},
                                         net::make_msg<IntMsg>(static_cast<std::int64_t>(id)),
                                         relayed);
  };

  constexpr std::uint64_t kSent = kWindow + 4096;
  for (std::uint64_t id = 1; id <= kSent; ++id) {
    ASSERT_TRUE(rm.handle(self, envelope(id, /*relayed=*/false)));
    ASSERT_EQ(rm.seen_size(), std::min<std::size_t>(id, kWindow));
  }
  ASSERT_EQ(delivered.size(), kSent);
  // Relayed copies of the oldest remembered and the most recent deliveries are absorbed.
  rm.handle(self, envelope(kSent - kWindow + 1, /*relayed=*/true));
  for (std::uint64_t id = kSent - 63; id <= kSent; ++id) {
    rm.handle(self, envelope(id, /*relayed=*/true));
  }
  EXPECT_EQ(delivered.size(), kSent);
  EXPECT_EQ(rm.seen_size(), kWindow);
  EXPECT_EQ(rm.delivered_count(), kSent);
}

TEST(Amcast, GroupLeaderCrashDoesNotLoseMessages) {
  Fabric f{2, 3, 1};
  f.engine.run_for(msec(50));
  // Find group 0's leader and crash it right after submitting a 2-group message.
  f.clients[0]->amcast({GroupId{0}, GroupId{1}}, net::make_msg<IntMsg>(1));
  f.engine.schedule(msec(2), [&] {
    for (std::size_t r = 0; r < 3; ++r) {
      if (f.node(0, r).is_leader()) {
        f.network.crash(f.node(0, r).pid());
        f.node(0, r).halt_node();
      }
    }
  });
  f.engine.run_for(sec(5));
  // Surviving replicas of group 0 and all of group 1 still deliver it.
  std::size_t g0_deliveries = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    if (!f.network.crashed(f.node(0, r).pid())) {
      g0_deliveries += f.node(0, r).amdelivered.size();
    }
  }
  EXPECT_GE(g0_deliveries, 2u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(f.node(1, r).amdelivered.size(), 1u);
  }
}

}  // namespace
}  // namespace dssmr::multicast
