// Heap-allocation budget of the command path, and the sharing behind it.
//
// Everything immutable on the command path is allocated once and shared by
// reference afterwards: network payloads, a proposal's Paxos batch, the
// delivered command inside server execution closures, and a post's text
// across the timelines it fans out to. This binary links a counting global
// operator new (testing/counting_new.cpp; it is its own executable so no
// other test pays for the counter) and checks both halves: allocations per
// completed command stay under a ceiling, and the sharing those ceilings rely
// on holds where it is cheapest to see.
//
// The counts are exact for a given build and seed: the simulation is
// single-threaded and deterministic, and nothing else runs inside the window.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "chirper/chirper.h"
#include "common/bounded.h"
#include "consensus/paxos.h"
#include "harness/deployment.h"
#include "net/network.h"
#include "sim/engine.h"
#include "smr/execution.h"
#include "testing/cluster.h"
#include "testing/counting_new.h"
#include "testing/dssmr_fixture.h"

namespace dssmr {
namespace {

using chirper::TimelineReply;
using chirper::UserValue;
using harness::Deployment;
using smr::ReplyCode;

// ---- allocation budget --------------------------------------------------------

constexpr std::size_t kPartitions = 2;
constexpr std::size_t kUsersPerPartition = 32;
constexpr std::size_t kUsers = kPartitions * kUsersPerPartition;
constexpr std::size_t kFollowers = 3;
// Longer than the small-string buffer, like the workload's posts, so a
// copied text would cost a heap allocation.
constexpr const char* kText = "a 140-character chirp";

/// Followers of `u`: the next kFollowers users of its own partition's block,
/// so every post is single-partition once the client caches are warm.
std::vector<VarId> followers_of(std::size_t u) {
  const std::size_t base = u / kUsersPerPartition * kUsersPerPartition;
  std::vector<VarId> f;
  f.reserve(kFollowers);
  for (std::size_t i = 1; i <= kFollowers; ++i) {
    f.push_back(VarId{base + (u - base + i) % kUsersPerPartition});
  }
  return f;
}

std::unique_ptr<Deployment> post_deployment() {
  auto cfg = testing::small_config(kPartitions, core::Strategy::kDssmr, /*clients=*/8);
  auto d = std::make_unique<Deployment>(cfg, chirper::chirper_app_factory(),
                                        [] { return std::make_unique<core::DssmrPolicy>(); });
  for (std::size_t u = 0; u < kUsers; ++u) {
    d->preload_var(VarId{u}, d->partition_gid(u / kUsersPerPartition), UserValue{});
  }
  d->start();
  d->settle();
  return d;
}

/// Closed loop over every client of a deployment: each completion issues the
/// client's next command. `timeline_every` = 0 issues posts only; n > 0
/// makes every command a timeline read except each n-th, which posts.
struct ClosedLoop {
  Deployment& d;
  std::size_t timeline_every = 0;
  std::uint64_t completed = 0;
  std::uint64_t issued = 0;

  void kick(std::size_t client) {
    const std::size_t n = issued++;
    const std::size_t user = (n * 7 + client) % kUsers;
    const bool post = timeline_every == 0 || n % timeline_every == 0;
    smr::Command cmd = post ? chirper::make_post(VarId{user}, followers_of(user), kText)
                            : chirper::make_get_timeline(VarId{user});
    d.client(client).issue(std::move(cmd), [this, client](ReplyCode code, const net::MessagePtr&) {
      ASSERT_EQ(code, ReplyCode::kOk);
      ++completed;
      kick(client);
    });
  }
};

/// Allocations per command completed inside a measurement window that
/// follows a warm-up (caches filled, timelines populated, pools grown).
double allocs_per_command(std::size_t timeline_every) {
  auto d = post_deployment();
  ClosedLoop loop{*d, timeline_every};
  for (std::size_t c = 0; c < d->client_count(); ++c) loop.kick(c);
  d->engine().run_for(msec(400));
  const std::uint64_t allocs0 = testing::allocation_count();
  const std::uint64_t done0 = loop.completed;
  d->engine().run_for(msec(400));
  const std::uint64_t allocs = testing::allocation_count() - allocs0;
  const std::uint64_t done = loop.completed - done0;
  EXPECT_GT(done, 1000u);
  return static_cast<double>(allocs) / static_cast<double>(done);
}

// Ceilings: the figure measured once a user's timeline became a ring that
// stops allocating when full (it was a std::deque, which allocates a chunk
// every few posts), plus 10%. History of the same two scenarios, in
// allocations per command:
//   * 9.90 and 7.50 with deque timelines, after the Paxos log became one
//     slot ring (no per-slot tree nodes for accepted, decided and proposed
//     values);
//   * 13.01 and 10.58 with std::map slot tables, after per-replica
//     bookkeeping stopped allocating (flat dedup windows, a flat amcast
//     pending set, inline execution tasks);
//   * 32.86 and 30.43 before that;
//   * 81.97 and 182.49 before the command path shared its immutable objects
//     (batches, commands, stamped messages and post text deep-copied at each
//     hand-off).
constexpr double kPostCeiling = 8.90 * 1.1;
constexpr double kTimelineCeiling = 7.29 * 1.1;

TEST(AllocBudget, PostOnlyDeployment) {
  const double per_cmd = allocs_per_command(/*timeline_every=*/0);
  std::printf("post-only: %.2f allocations per command (ceiling %.2f)\n", per_cmd,
              kPostCeiling);
  EXPECT_LE(per_cmd, kPostCeiling);
}

TEST(AllocBudget, TimelineHeavyDeployment) {
  const double per_cmd = allocs_per_command(/*timeline_every=*/5);
  std::printf("timeline-heavy: %.2f allocations per command (ceiling %.2f)\n", per_cmd,
              kTimelineCeiling);
  EXPECT_LE(per_cmd, kTimelineCeiling);
}

// ---- steady-state bookkeeping -------------------------------------------------

TEST(AllocBudget, WarmBoundedContainersDoNotAllocate) {
  constexpr std::size_t kWindow = 1024;
  BoundedSet<MsgId> set{kWindow};
  BoundedMap<MsgId, std::uint64_t> map{kWindow};
  std::uint64_t next = 0;
  const auto churn = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++next) {
      set.insert(MsgId{next});
      map.put(MsgId{next}, next);
      map.put(MsgId{next}, next + 1);  // overwrite
    }
  };
  churn(4 * kWindow);  // warm: the rings are full and the indexes grown
  const std::uint64_t allocs0 = testing::allocation_count();
  churn(16 * kWindow);
  EXPECT_EQ(testing::allocation_count() - allocs0, 0u);
  EXPECT_EQ(set.size(), kWindow);
  EXPECT_EQ(map.size(), kWindow);
}

TEST(AllocBudget, WarmExecutionEngineEnqueuesInlineClosures) {
  sim::Engine engine;
  smr::ExecutionEngine exec{engine};
  std::uint64_t sum = 0;
  const auto round = [&] {
    for (std::uint64_t i = 0; i < 64; ++i) {
      // 48 bytes of captures: as large as sim::Callback stores inline.
      const std::uint64_t a = i, b = i + 1, c = i + 2, d = i + 3, e = i + 4;
      auto run = [&sum, a, b, c, d, e] { sum += a + b + c + d + e; };
      static_assert(sizeof(run) == sim::Callback::kInlineSize);
      exec.enqueue({.id = MsgId{i}, .on_head = {}, .ready = nullptr, .service = usec(1),
                    .run = std::move(run)});
    }
    engine.run();
  };
  round();  // warm: the task ring and the event queue have grown
  const std::uint64_t allocs0 = testing::allocation_count();
  round();
  EXPECT_EQ(testing::allocation_count() - allocs0, 0u);
  EXPECT_EQ(exec.executed_count(), 128u);
}

TEST(AllocBudget, WarmTimelineAppendDoesNotAllocate) {
  UserValue u;
  for (std::uint64_t i = 0; i < chirper::kTimelineCap; ++i) u.append_post({VarId{1}, i, kText});
  ASSERT_EQ(u.timeline.size(), chirper::kTimelineCap);
  constexpr std::uint64_t kAppends = 4 * chirper::kTimelineCap;
  std::uint64_t seq = chirper::kTimelineCap;

  // Each post builds its text: one allocation, and nothing for the ring.
  std::uint64_t allocs0 = testing::allocation_count();
  for (std::uint64_t i = 0; i < kAppends; ++i) u.append_post({VarId{1}, seq++, kText});
  EXPECT_EQ(testing::allocation_count() - allocs0, kAppends);

  // A fanned-out post shares its text: appending it allocates nothing.
  const chirper::Post post{VarId{2}, 0, kText};
  allocs0 = testing::allocation_count();
  for (std::uint64_t i = 0; i < kAppends; ++i) u.append_post(post);
  EXPECT_EQ(testing::allocation_count() - allocs0, 0u);
  EXPECT_EQ(u.timeline.size(), chirper::kTimelineCap);
}

/// Paxos replica that only counts the entries it delivers.
class CountingPaxosNode : public net::Actor {
 public:
  void init(net::Network& network, std::vector<ProcessId> members, std::uint64_t seed) {
    consensus::PaxosCore::Callbacks cb;
    cb.send = [this, &network](ProcessId to, net::MessagePtr m) {
      network.send(pid(), to, std::move(m));
    };
    cb.on_decide = [this](consensus::Slot, const consensus::Batch& b) { delivered += b.size(); };
    core = std::make_unique<consensus::PaxosCore>(network.engine(), GroupId{0},
                                                  std::move(members), pid(),
                                                  consensus::PaxosConfig{}, std::move(cb), seed);
  }
  void on_message(ProcessId from, const net::MessagePtr& m) override { core->handle(from, m); }

  std::unique_ptr<consensus::PaxosCore> core;
  std::uint64_t delivered = 0;
};

TEST(AllocBudget, WarmPaxosLogDoesNotAllocate) {
  sim::Engine engine;
  net::Network network(engine, net::NetworkConfig{}, 3);
  std::vector<std::unique_ptr<CountingPaxosNode>> nodes;
  std::vector<ProcessId> members;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<CountingPaxosNode>());
    members.push_back(network.add_process(*nodes.back(), i % 2));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i]->init(network, members, 21 + i);
    nodes[i]->core->start();
  }
  engine.run_for(msec(50));
  consensus::PaxosCore& leader = *nodes[0]->core;
  ASSERT_TRUE(leader.is_leader());

  // Each round submits a few entries that the batch timer flushes as one
  // slot; the payload is shared, so only the slot's batch is new.
  constexpr std::size_t kEntriesPerSlot = 16;
  const net::MessagePtr payload = net::make_msg<testing::IntMsg>(1);
  std::uint64_t next_id = 0;
  const auto decide_slots = [&](std::size_t slots) {
    for (std::size_t i = 0; i < slots; ++i) {
      for (std::size_t e = 0; e < kEntriesPerSlot; ++e) {
        ASSERT_TRUE(leader.submit({MsgId{++next_id}, payload}));
      }
      engine.run_for(msec(1));
    }
  };
  // Warm: the log trims behind delivery (more slots than the retained
  // window), and the submission dedup window is full.
  const consensus::PaxosConfig cfg;
  decide_slots(cfg.retain_window + cfg.retain_window / 2);
  ASSERT_GT(next_id, consensus::PaxosCore::kSubmitDedupWindow);
  const consensus::Slot slot0 = leader.delivered_upto();
  const std::uint64_t allocs0 = testing::allocation_count();
  constexpr std::size_t kSlots = 2000;
  decide_slots(kSlots);
  const std::uint64_t allocs = testing::allocation_count() - allocs0;
  ASSERT_EQ(leader.delivered_upto() - slot0, kSlots);
  ASSERT_TRUE(leader.is_leader());
  for (const auto& n : nodes) EXPECT_EQ(n->delivered, next_id);
  // The batch is one allocation for the shared vector and one for its
  // entries; nothing else may allocate per slot.
  std::printf("warm paxos log: %.2f allocations per slot\n",
              static_cast<double>(allocs) / kSlots);
  EXPECT_EQ(allocs, 2 * kSlots);
}

// ---- sharing ------------------------------------------------------------------

/// Paxos replica that keeps every message it sends.
class SpyPaxosNode : public net::Actor {
 public:
  void init(net::Network& network, std::vector<ProcessId> members, std::uint64_t seed) {
    consensus::PaxosCore::Callbacks cb;
    cb.send = [this, &network](ProcessId to, net::MessagePtr m) {
      sent.push_back(m);
      network.send(pid(), to, std::move(m));
    };
    cb.on_decide = [](consensus::Slot, const consensus::Batch&) {};
    core = std::make_unique<consensus::PaxosCore>(network.engine(), GroupId{0},
                                                  std::move(members), pid(),
                                                  consensus::PaxosConfig{}, std::move(cb), seed);
  }
  void on_message(ProcessId from, const net::MessagePtr& m) override { core->handle(from, m); }

  template <class T>
  const T* sent_for_slot(consensus::Slot slot) const {
    for (const net::MessagePtr& m : sent) {
      if (const auto* t = net::msg_cast<T>(m); t != nullptr && t->slot == slot) return t;
    }
    return nullptr;
  }

  std::unique_ptr<consensus::PaxosCore> core;
  std::vector<net::MessagePtr> sent;
};

TEST(Sharing, LeaderP2aCommitAndDecisionShareOneBatch) {
  sim::Engine engine;
  net::Network network(engine, net::NetworkConfig{}, 3);
  std::vector<std::unique_ptr<SpyPaxosNode>> nodes;
  std::vector<ProcessId> members;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<SpyPaxosNode>());
    members.push_back(network.add_process(*nodes.back(), i % 2));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i]->init(network, members, 11 + i);
    nodes[i]->core->start();
  }
  engine.run_for(msec(50));
  SpyPaxosNode& leader = *nodes[0];
  ASSERT_TRUE(leader.core->is_leader());
  ASSERT_TRUE(leader.core->submit({MsgId{77}, net::make_msg<testing::IntMsg>(7)}));
  ASSERT_TRUE(leader.core->submit({MsgId{78}, net::make_msg<testing::IntMsg>(8)}));
  engine.run_for(msec(50));

  const consensus::Slot slot = leader.core->delivered_upto();
  const consensus::BatchPtr decided = leader.core->decided_batch(slot);
  ASSERT_NE(decided, nullptr);
  ASSERT_EQ(decided->size(), 2u);
  const auto* p2a = leader.sent_for_slot<consensus::P2a>(slot);
  const auto* commit = leader.sent_for_slot<consensus::CommitMsg>(slot);
  ASSERT_NE(p2a, nullptr);
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(p2a->batch.get(), decided.get());
  EXPECT_EQ(commit->batch.get(), decided.get());
  // Followers learn the very same object (the simulated wire is a pointer).
  EXPECT_EQ(nodes[1]->core->decided_batch(slot).get(), decided.get());
}

TEST(Sharing, PostFanOutSharesOneTextBufferAcrossTimelines) {
  auto d = post_deployment();
  const std::size_t poster = 5;
  const std::vector<VarId> followers = followers_of(poster);
  EXPECT_EQ(testing::run_op(*d, 0, chirper::make_post(VarId{poster}, followers, kText)),
            ReplyCode::kOk);
  d->engine().run_for(msec(20));  // every replica executes, not only the replying one

  const std::size_t p = poster / kUsersPerPartition;
  for (std::size_t r = 0; r < d->config().replicas_per_partition; ++r) {
    const smr::VariableStore& store = d->server(p, r).store();
    const auto* own = dynamic_cast<const UserValue*>(store.get(VarId{poster}));
    ASSERT_NE(own, nullptr);
    ASSERT_EQ(own->timeline.size(), 1u);
    const chirper::PostText& text = own->timeline.back().text;
    EXPECT_EQ(text, kText);
    for (VarId f : followers) {
      const auto* u = dynamic_cast<const UserValue*>(store.get(f));
      ASSERT_NE(u, nullptr);
      ASSERT_EQ(u->timeline.size(), 1u);
      EXPECT_TRUE(u->timeline.back().text.shares_buffer_with(text)) << "follower " << f.value;
    }
  }

  // A timeline read hands out the stored text, not a copy of it.
  net::MessagePtr reply;
  EXPECT_EQ(testing::run_op(*d, 1, chirper::make_get_timeline(followers[0]), &reply),
            ReplyCode::kOk);
  const auto& posts = net::msg_as<TimelineReply>(reply).posts;
  ASSERT_EQ(posts.size(), 1u);
  bool shared_with_a_replica = false;
  for (std::size_t r = 0; r < d->config().replicas_per_partition; ++r) {
    const auto* u =
        dynamic_cast<const UserValue*>(d->server(p, r).store().get(followers[0]));
    shared_with_a_replica |= posts[0].text.shares_buffer_with(u->timeline.back().text);
  }
  EXPECT_TRUE(shared_with_a_replica);
}

}  // namespace
}  // namespace dssmr
