#include "consensus/paxos.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "sim/engine.h"
#include "stats/metrics.h"
#include "testing/cluster.h"

namespace dssmr::consensus {
namespace {

using testing::IntMsg;
using testing::TestPaxosNode;

struct PaxosCluster {
  explicit PaxosCluster(std::size_t n, double drop = 0.0, std::uint64_t seed = 5,
                        PaxosConfig cfg = {})
      : network(engine, make_net(drop), seed) {
    std::vector<ProcessId> members;
    for (std::size_t i = 0; i < n; ++i) {
      auto node = std::make_unique<TestPaxosNode>();
      members.push_back(network.add_process(*node, static_cast<int>(i % 2)));
      nodes.push_back(std::move(node));
    }
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

  /// Decides `n` more slots, one submission each.
  void decide_slots(int n, std::int64_t first_value) {
    for (int i = 0; i < n; ++i) {
      ASSERT_NE(submit(first_value + i), MsgId{0});
      engine.run_for(msec(1));
    }
  }

  /// The leading node other than `skip` (a halted core keeps its role).
  TestPaxosNode* leader_except(std::size_t skip) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (i != skip && nodes[i]->core->is_leader()) return nodes[i].get();
    }
    return nullptr;
  }

  ProcessId pid(std::size_t i) const { return nodes[i]->core->members()[i]; }

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

// ---- the slot log ------------------------------------------------------------

PaxosConfig small_window(Slot retain) {
  PaxosConfig cfg;
  cfg.retain_window = retain;
  return cfg;
}

BatchPtr one_entry_batch(std::int64_t value) {
  return std::make_shared<const Batch>(
      Batch{{MsgId{static_cast<std::uint64_t>(value)}, net::make_msg<IntMsg>(value)}});
}

/// One PaxosCore driven by hand: the test plays member 0 and member 2,
/// feeding messages in and reading what the core (member 1) sends. Timers
/// fire only when a test runs the engine.
struct LoneCore {
  static constexpr GroupId kGroup{0};
  static inline const std::vector<ProcessId> kMembers{ProcessId{0}, ProcessId{1}, ProcessId{2}};

  explicit LoneCore(PaxosConfig cfg = {}) {
    PaxosCore::Callbacks cb;
    cb.send = [this](ProcessId to, net::MessagePtr m) { sent.emplace_back(to, std::move(m)); };
    cb.on_decide = [this](Slot slot, const Batch& batch) { delivered.emplace_back(slot, &batch); };
    core = std::make_unique<PaxosCore>(engine, kGroup, kMembers, kMembers[1], cfg, std::move(cb),
                                       /*seed=*/7);
  }

  void feed(ProcessId from, const net::MessagePtr& m) { ASSERT_TRUE(core->handle(from, m)); }

  /// Stands for election and wins it with member 0's empty promise; returns
  /// the ballot (0 when the core never stood).
  Ballot elect() {
    core->start();
    engine.run_for(msec(300));  // past the randomized election timeout
    const auto p1a = sent_of<P1a>();
    if (p1a.empty()) return 0;
    const Ballot ballot = p1a.back()->ballot;
    core->handle(kMembers[0], net::make_msg<P1b>(kGroup, ballot, true, 0, AcceptedMap{}));
    return ballot;
  }

  /// The messages of type T sent since the last clear, in send order.
  template <class T>
  std::vector<const T*> sent_of() const {
    std::vector<const T*> out;
    for (const auto& [to, m] : sent) {
      if (const auto* t = net::msg_cast<T>(m)) out.push_back(t);
    }
    return out;
  }

  sim::Engine engine;
  std::unique_ptr<PaxosCore> core;
  std::vector<std::pair<ProcessId, net::MessagePtr>> sent;
  std::vector<std::pair<Slot, const Batch*>> delivered;
};

TEST(PaxosLog, RingWrapsAndTrimsBehindDelivery) {
  constexpr Slot kRetain = 8;
  constexpr int kSlots = 1000;
  PaxosCluster c{3, 0.0, 5, small_window(kRetain)};
  c.engine.run_for(msec(50));
  PaxosCore& leader = *c.nodes[0]->core;
  ASSERT_TRUE(leader.is_leader());
  c.decide_slots(kSlots, 0);
  c.engine.run_for(msec(50));

  for (auto& n : c.nodes) {
    ASSERT_EQ(n->decided.size(), static_cast<std::size_t>(kSlots));
    for (int i = 0; i < kSlots; ++i) {
      ASSERT_EQ(n->decided_slots[i], static_cast<Slot>(i + 1));
      ASSERT_EQ(net::msg_as<IntMsg>(n->decided[i].payload).value, i);
    }
    EXPECT_EQ(n->core->delivered_upto(), static_cast<Slot>(kSlots));
    EXPECT_EQ(n->core->log_base(), kSlots + 1 - kRetain);
  }
  for (Slot s = 1; s <= kSlots; ++s) {
    const BatchPtr b = leader.decided_batch(s);
    if (s < leader.log_base()) {
      ASSERT_EQ(b, nullptr) << "slot " << s;
      continue;
    }
    ASSERT_NE(b, nullptr) << "slot " << s;
    for (auto& n : c.nodes) EXPECT_EQ(n->core->decided_batch(s).get(), b.get());
  }
  EXPECT_EQ(leader.decided_batch(kSlots + 1), nullptr);

  // A catch-up request from slot 1 is served exactly the retained slots, and
  // the trimmed ones are counted.
  std::vector<const CommitMsg*> served;
  std::vector<net::MessagePtr> keep;
  c.nodes[0]->on_send = [&](ProcessId to, const net::MessagePtr& m) {
    if (const auto* commit = net::msg_cast<CommitMsg>(m); commit != nullptr && to == c.pid(1)) {
      served.push_back(commit);
      keep.push_back(m);
    }
  };
  const std::uint64_t gap0 = leader.learn_gap_slots();
  ASSERT_TRUE(leader.handle(c.pid(1), net::make_msg<LearnReq>(GroupId{0}, 1)));
  c.nodes[0]->on_send = nullptr;
  ASSERT_EQ(served.size(), kRetain);
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i]->slot, leader.log_base() + i);
    EXPECT_EQ(served[i]->batch.get(), leader.decided_batch(served[i]->slot).get());
  }
  EXPECT_EQ(leader.learn_gap_slots() - gap0, leader.log_base() - 1);
}

TEST(PaxosLog, OutOfOrderCommitsDeliverInSlotOrder) {
  constexpr Slot kFar = 50;
  LoneCore c;
  std::vector<BatchPtr> batches(kFar + 1);
  for (Slot s = 1; s <= kFar; ++s) batches[s] = one_entry_batch(static_cast<std::int64_t>(s));

  // A commit far ahead is held, not delivered.
  c.feed(ProcessId{0}, net::make_msg<CommitMsg>(LoneCore::kGroup, kFar, batches[kFar]));
  EXPECT_TRUE(c.delivered.empty());
  EXPECT_EQ(c.core->decided_batch(kFar), batches[kFar]);

  // The gap fills in a scrambled order: even slots descending, then odd ones
  // ascending. Whatever is delivered is always a gap-free prefix.
  std::vector<Slot> order;
  for (Slot s = kFar - 2; s >= 2; s -= 2) order.push_back(s);
  for (Slot s = 1; s < kFar; s += 2) order.push_back(s);
  for (Slot s : order) {
    c.feed(ProcessId{0}, net::make_msg<CommitMsg>(LoneCore::kGroup, s, batches[s]));
    for (std::size_t i = 0; i < c.delivered.size(); ++i) {
      ASSERT_EQ(c.delivered[i].first, i + 1) << "after slot " << s;
    }
  }
  ASSERT_EQ(c.delivered.size(), kFar);
  for (Slot s = 1; s <= kFar; ++s) EXPECT_EQ(c.delivered[s - 1].second, batches[s].get());

  // A late duplicate of a delivered slot changes nothing.
  c.feed(ProcessId{2}, net::make_msg<CommitMsg>(LoneCore::kGroup, 10, one_entry_batch(-1)));
  EXPECT_EQ(c.delivered.size(), kFar);
  EXPECT_EQ(c.core->decided_batch(10), batches[10]);
}

TEST(PaxosLog, P2aFarPastDeliveryGrowsTheRing) {
  constexpr Slot kRetain = 8;
  constexpr Slot kFar = 1000;
  LoneCore c{small_window(kRetain)};
  const Ballot b1 = make_ballot(1, 0);
  const BatchPtr far = one_entry_batch(1000);
  c.feed(ProcessId{0}, net::make_msg<P2a>(LoneCore::kGroup, b1, kFar, far));
  const auto p2b = c.sent_of<P2b>();
  ASSERT_EQ(p2b.size(), 1u);
  EXPECT_TRUE(p2b[0]->accepted);
  EXPECT_EQ(p2b[0]->slot, kFar);

  // A candidate learns the far acceptance from this replica's P1b.
  const Ballot b2 = make_ballot(2, 2);
  c.feed(ProcessId{2}, net::make_msg<P1a>(LoneCore::kGroup, b2, 0));
  const auto p1b = c.sent_of<P1b>();
  ASSERT_EQ(p1b.size(), 1u);
  EXPECT_TRUE(p1b[0]->granted);
  ASSERT_EQ(p1b[0]->accepted.size(), 1u);
  EXPECT_EQ(p1b[0]->accepted.begin()->first, kFar);
  EXPECT_EQ(p1b[0]->accepted.begin()->second.first, b1);
  EXPECT_EQ(p1b[0]->accepted.begin()->second.second, far);

  // The new leader commits it, then the whole gap below it.
  c.feed(ProcessId{2}, net::make_msg<CommitMsg>(LoneCore::kGroup, kFar, far));
  EXPECT_TRUE(c.delivered.empty());
  for (Slot s = 1; s < kFar; ++s) {
    c.feed(ProcessId{2}, net::make_msg<CommitMsg>(LoneCore::kGroup, s, one_entry_batch(0)));
  }
  ASSERT_EQ(c.delivered.size(), kFar);
  EXPECT_EQ(c.delivered.back().first, kFar);
  EXPECT_EQ(c.delivered.back().second, far.get());
  EXPECT_EQ(c.core->log_base(), kFar + 1 - kRetain);
  EXPECT_EQ(c.core->decided_batch(kFar), far);
  EXPECT_EQ(c.core->decided_batch(kFar - kRetain), nullptr);
}

TEST(PaxosLog, LeaderElectedAfterManyWrapsKeepsDecidedPrefix) {
  constexpr Slot kRetain = 8;
  PaxosCluster c{3, 0.0, 5, small_window(kRetain)};
  c.engine.run_for(msec(50));
  c.decide_slots(100, 0);
  c.engine.run_for(msec(20));
  const auto prefix = c.nodes[1]->decided;
  ASSERT_EQ(prefix.size(), 100u);

  c.network.crash(c.pid(0));
  c.nodes[0]->core->halt();
  c.engine.run_for(msec(800));
  ASSERT_NE(c.leader_except(0), nullptr);
  c.decide_slots(5, 100);
  c.engine.run_for(msec(50));
  for (std::size_t r = 1; r < 3; ++r) {
    ASSERT_EQ(c.nodes[r]->decided.size(), 105u) << "replica " << r;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      ASSERT_EQ(c.nodes[r]->decided[i].id, prefix[i].id) << "replica " << r << " entry " << i;
    }
    EXPECT_EQ(net::msg_as<IntMsg>(c.nodes[r]->decided.back().payload).value, 104);
  }

  // restart() keeps the log: the retained decisions are the same objects,
  // and the missed tail (inside the new leader's window) is re-learned.
  PaxosCore& old = *c.nodes[0]->core;
  const Slot base = old.log_base();
  std::vector<BatchPtr> retained;
  for (Slot s = base; s <= old.delivered_upto(); ++s) retained.push_back(old.decided_batch(s));
  c.network.recover(c.pid(0));
  old.restart();
  EXPECT_EQ(old.log_base(), base);
  for (Slot s = base; s <= old.delivered_upto(); ++s) {
    EXPECT_EQ(old.decided_batch(s), retained[s - base]) << "slot " << s;
  }
  c.engine.run_for(msec(200));
  ASSERT_EQ(c.nodes[0]->decided.size(), 105u);
  for (std::size_t i = 0; i < 105; ++i) {
    EXPECT_EQ(c.nodes[0]->decided[i].id, c.nodes[1]->decided[i].id) << "entry " << i;
  }
  EXPECT_EQ(old.learn_gap_slots(), 0u);
}

TEST(PaxosLog, ReproposedSlotLearnedPastAGapLeavesThePipeline) {
  LoneCore c;
  const BatchPtr second = one_entry_batch(2);
  // Slot 2's commit arrives; slot 1's never does.
  c.feed(ProcessId{0}, net::make_msg<CommitMsg>(LoneCore::kGroup, 2, second));
  ASSERT_TRUE(c.delivered.empty());

  const Ballot ballot = c.elect();
  ASSERT_TRUE(c.core->is_leader());
  // Slot 1 is re-proposed as a no-op and slot 2 with the batch it learned.
  EXPECT_EQ(c.core->inflight_proposals(), 2u);

  // Slot 1's quorum delivers slot 2 as well, before slot 2's quorum answers.
  c.feed(ProcessId{2}, net::make_msg<P2b>(LoneCore::kGroup, ballot, 1, true));
  ASSERT_EQ(c.delivered.size(), 2u);
  EXPECT_EQ(c.delivered[1].second, second.get());
  EXPECT_EQ(c.core->inflight_proposals(), 0u);
  c.feed(ProcessId{2}, net::make_msg<P2b>(LoneCore::kGroup, ballot, 2, true));
  EXPECT_EQ(c.core->inflight_proposals(), 0u);

  // Nothing is left to resend.
  c.sent.clear();
  c.engine.run_for(msec(200));
  ASSERT_TRUE(c.core->is_leader());
  EXPECT_TRUE(c.sent_of<P2a>().empty());
  EXPECT_FALSE(c.sent_of<HeartbeatMsg>().empty());
}

TEST(PaxosLog, DeposedLeaderKeepsNoProposalBelowDelivery) {
  LoneCore c;
  const Ballot ballot = c.elect();
  ASSERT_TRUE(c.core->is_leader());
  // A successor this replica has not heard from yet commits slots 1..5.
  for (Slot s = 1; s <= 5; ++s) {
    c.feed(ProcessId{2}, net::make_msg<CommitMsg>(LoneCore::kGroup, s, one_entry_batch(0)));
  }
  ASSERT_EQ(c.core->delivered_upto(), 5u);
  ASSERT_TRUE(c.core->is_leader());

  // Its next proposal lands on slot 1, decided already: the P2a goes out,
  // but nothing stays in flight.
  c.sent.clear();
  ASSERT_TRUE(c.core->submit({MsgId{99}, net::make_msg<IntMsg>(99)}));
  c.engine.run_for(msec(1));
  const auto p2a = c.sent_of<P2a>();
  ASSERT_FALSE(p2a.empty());
  EXPECT_EQ(p2a[0]->slot, 1u);
  EXPECT_EQ(c.core->inflight_proposals(), 0u);
  EXPECT_EQ(c.core->decided_batch(1)->size(), 1u);
  EXPECT_EQ(net::msg_as<IntMsg>(c.core->decided_batch(1)->front().payload).value, 0);

  // The acceptors refuse it, and the replica steps down.
  c.feed(ProcessId{2}, net::make_msg<P2b>(LoneCore::kGroup, ballot, 1, false));
  EXPECT_FALSE(c.core->is_leader());
}

TEST(PaxosLog, LearnGapIsCountedForAReplicaBehindTheTrimPoint) {
  constexpr Slot kRetain = 8;
  PaxosCluster c{3, 0.0, 5, small_window(kRetain)};
  c.engine.run_for(msec(50));
  PaxosCore& leader = *c.nodes[0]->core;
  ASSERT_TRUE(leader.is_leader());
  stats::Metrics metrics;
  leader.set_metrics(&metrics);
  c.decide_slots(5, 0);
  c.engine.run_for(msec(20));
  EXPECT_EQ(leader.learn_gap_slots(), 0u);
  EXPECT_EQ(metrics.counters().count("paxos.learn_gap_slots"), 0u);

  // Replica 2 is down while the leader decides more than the window.
  c.network.crash(c.pid(2));
  c.nodes[2]->core->halt();
  c.decide_slots(3 * static_cast<int>(kRetain), 5);
  c.network.recover(c.pid(2));
  c.nodes[2]->core->restart();
  c.engine.run_for(msec(200));

  // Its catch-up requests start below the leader's trim point: counted.
  EXPECT_GT(leader.learn_gap_slots(), 0u);
  EXPECT_EQ(metrics.counter("paxos.learn_gap_slots"), leader.learn_gap_slots());
  // With no snapshot to restart from it never delivers past the gap (the
  // log needs checkpoints for that).
  EXPECT_EQ(c.nodes[2]->decided.size(), 5u);
  EXPECT_EQ(c.nodes[1]->decided.size(), 5u + 3 * kRetain);
}

/// The acceptor and learner semantics of the log as three ordered maps:
/// accepted values, decided values and a delivery cursor, trimmed to
/// `retain` slots behind delivery.
struct ThreeMapLog {
  explicit ThreeMapLog(Slot r) : retain(r) {}

  Slot retain;
  Ballot promised = 0;
  AcceptedMap accepted;
  std::map<Slot, BatchPtr> decided;
  Slot next = 1;
  Slot base = 1;
  std::vector<std::pair<Slot, const Batch*>> delivered;

  bool p2a(Ballot b, Slot s, const BatchPtr& batch) {
    if (b < promised) return false;
    promised = b;
    if (s >= next) accepted[s] = {b, batch};
    return true;
  }
  void commit(Slot s, const BatchPtr& batch) {
    if (s < next) return;
    decided.try_emplace(s, batch);
    for (auto it = decided.find(next); it != decided.end(); it = decided.find(next)) {
      delivered.emplace_back(next++, it->second.get());
    }
    if (next <= retain) return;
    base = std::max(base, next - retain);
    decided.erase(decided.begin(), decided.lower_bound(base));
    accepted.erase(accepted.begin(), accepted.lower_bound(base));
  }
  std::optional<AcceptedMap> p1a(Ballot b, Slot committed) {
    if (b <= promised) return std::nullopt;
    promised = b;
    AcceptedMap acc;
    for (const auto& [s, e] : accepted) {
      if (s > committed) acc[s] = e;
    }
    for (const auto& [s, batch] : decided) {
      if (s > committed) acc[s] = {promised, batch};
    }
    return acc;
  }
  std::vector<std::pair<Slot, const Batch*>> learn(Slot from) const {
    std::vector<std::pair<Slot, const Batch*>> out;
    for (Slot s = from; s < next; ++s) {
      if (auto it = decided.find(s); it != decided.end()) out.emplace_back(s, it->second.get());
    }
    return out;
  }
};

TEST(PaxosLog, MatchesThreeMapModelUnderChurn) {
  for (const Slot retain : {1, 3, 8, 64}) {
    SCOPED_TRACE(retain);
    Rng rng{retain};
    LoneCore c{small_window(retain)};
    ThreeMapLog model{retain};
    std::uint64_t gap = 0;
    // Slots land a little behind delivery up to a few windows past it, so
    // the ring both wraps and grows; ballots hover around the promise so
    // both grants and refusals occur.
    const auto any_slot = [&] {
      return static_cast<Slot>(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(model.next) + rng.range(-6, 40)));
    };
    const auto any_ballot = [&] {
      const std::uint64_t round = ballot_round(model.promised);
      return make_ballot(round + 1 - std::min<std::uint64_t>(round, rng.below(3)),
                         rng.chance(0.5) ? 0 : 2);
    };
    for (std::uint64_t step = 0; step < 20000; ++step) {
      c.sent.clear();
      const ProcessId peer{rng.chance(0.5) ? 0u : 2u};
      switch (rng.below(5)) {
        case 0:
        case 1: {  // commits outnumber the rest so delivery keeps moving
          const Slot s = any_slot();
          const BatchPtr batch = one_entry_batch(static_cast<std::int64_t>(step));
          c.feed(peer, net::make_msg<CommitMsg>(LoneCore::kGroup, s, batch));
          model.commit(s, batch);
          ASSERT_EQ(c.delivered, model.delivered) << "step " << step;
          break;
        }
        case 2: {
          const Ballot b = any_ballot();
          const Slot s = any_slot();
          const BatchPtr batch = one_entry_batch(static_cast<std::int64_t>(step));
          c.feed(peer, net::make_msg<P2a>(LoneCore::kGroup, b, s, batch));
          const auto replies = c.sent_of<P2b>();
          ASSERT_EQ(replies.size(), 1u);
          ASSERT_EQ(replies[0]->accepted, model.p2a(b, s, batch)) << "step " << step;
          break;
        }
        case 3: {
          const Ballot b = any_ballot();
          const Slot committed = model.next - 1 - std::min<Slot>(model.next - 1, rng.below(12));
          c.feed(peer, net::make_msg<P1a>(LoneCore::kGroup, b, committed));
          const auto replies = c.sent_of<P1b>();
          ASSERT_EQ(replies.size(), 1u);
          const std::optional<AcceptedMap> want = model.p1a(b, committed);
          ASSERT_EQ(replies[0]->granted, want.has_value()) << "step " << step;
          ASSERT_EQ(replies[0]->committed, model.next - 1);
          ASSERT_EQ(replies[0]->accepted, want.value_or(AcceptedMap{})) << "step " << step;
          break;
        }
        default: {
          const Slot from = std::max<Slot>(1, model.next - std::min<Slot>(model.next, rng.below(80)));
          c.feed(peer, net::make_msg<LearnReq>(LoneCore::kGroup, from));
          std::vector<std::pair<Slot, const Batch*>> served;
          for (const CommitMsg* m : c.sent_of<CommitMsg>()) served.emplace_back(m->slot, m->batch.get());
          ASSERT_EQ(served, model.learn(from)) << "step " << step;
          gap += from < model.base ? model.base - from : 0;
          ASSERT_EQ(c.core->learn_gap_slots(), gap);
        }
      }
      ASSERT_EQ(c.core->delivered_upto(), model.next - 1);
      ASSERT_EQ(c.core->log_base(), model.base);
      const Slot probe = any_slot();
      const auto it = model.decided.find(probe);
      ASSERT_EQ(c.core->decided_batch(probe), it != model.decided.end() ? it->second : nullptr)
          << "step " << step << " slot " << probe;
    }
    EXPECT_GT(model.next, 1000u);  // the log wrapped many windows
  }
}

}  // namespace
}  // namespace dssmr::consensus
