// Chirper application semantics, from unit level (UserValue) to full-stack
// (posts fanned out across partitions under DS-SMR).
#include "chirper/chirper.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "harness/deployment.h"
#include "testing/dssmr_fixture.h"

namespace dssmr::chirper {
namespace {

using core::Strategy;
using harness::Deployment;
using smr::ReplyCode;
using namespace dssmr::testing;

TEST(UserValue, TimelineCapEnforced) {
  UserValue u;
  for (std::uint64_t i = 0; i < kTimelineCap + 20; ++i) {
    u.append_post({VarId{1}, i, "x"});
  }
  EXPECT_EQ(u.timeline.size(), kTimelineCap);
  EXPECT_EQ(u.timeline.front().seq, 20u);  // oldest were evicted
  EXPECT_EQ(u.timeline.back().seq, kTimelineCap + 19);
}

TEST(UserValue, CloneIsDeep) {
  UserValue u;
  u.followers = {VarId{1}, VarId{2}};
  u.append_post({VarId{9}, 1, "hello"});
  auto c = u.clone();
  auto* cu = dynamic_cast<UserValue*>(c.get());
  ASSERT_NE(cu, nullptr);
  cu->followers.push_back(VarId{3});
  cu->timeline[0].text = "mutated";
  EXPECT_EQ(u.followers.size(), 2u);
  EXPECT_EQ(u.timeline[0].text, "hello");
}

// The timeline is a ring: checked against a deque model (push_back, then
// pop_front past the cap) over three full wraps.
TEST(UserValue, TimelineRingMatchesDequeModel) {
  UserValue u;
  std::deque<std::uint64_t> model;
  for (std::uint64_t i = 0; i < 3 * kTimelineCap; ++i) {
    u.append_post({VarId{i % 7}, i, PostText(std::to_string(i))});
    model.push_back(i);
    if (model.size() > kTimelineCap) model.pop_front();
    ASSERT_EQ(u.timeline.size(), model.size()) << "after append " << i;
    EXPECT_EQ(u.timeline.front().seq, model.front());
    EXPECT_EQ(u.timeline.back().seq, model.back());
    for (std::size_t k = 0; k < model.size(); ++k) {
      ASSERT_EQ(u.timeline[k].seq, model[k]) << "after append " << i << ", index " << k;
      ASSERT_EQ(u.timeline[k].text, std::to_string(model[k]));
    }
    const std::vector<std::uint64_t> iterated = [&] {
      std::vector<std::uint64_t> out;
      for (const Post& p : u.timeline) out.push_back(p.seq);
      return out;
    }();
    ASSERT_EQ(iterated, std::vector<std::uint64_t>(model.begin(), model.end()));
  }
}

TEST(UserValue, CloneAfterWrapIsIndependent) {
  UserValue u;
  for (std::uint64_t i = 0; i < kTimelineCap + 7; ++i) u.append_post({VarId{1}, i, "x"});
  const std::size_t bytes = u.size_bytes();
  auto c = u.clone();
  auto& cu = static_cast<UserValue&>(*c);
  EXPECT_EQ(cu.size_bytes(), bytes);
  ASSERT_EQ(cu.timeline.size(), kTimelineCap);
  EXPECT_EQ(cu.timeline.front().seq, 7u);
  cu.timeline[0].text = "clone";
  EXPECT_EQ(u.timeline[0].text, "x");

  // The original moves on; the clone keeps its own posts, in its own order.
  for (std::uint64_t i = 0; i < 10; ++i) u.append_post({VarId{2}, 1000 + i, "original"});
  cu.append_post({VarId{3}, 5000, "clone"});
  EXPECT_EQ(u.timeline.front().seq, 17u);
  EXPECT_EQ(u.timeline.back().seq, 1009u);
  EXPECT_EQ(u.timeline[kTimelineCap - 11].text, "x");
  EXPECT_EQ(cu.timeline.front().seq, 8u);
  EXPECT_EQ(cu.timeline[kTimelineCap - 2].seq, kTimelineCap + 6);
  EXPECT_EQ(cu.timeline.back().seq, 5000u);
  for (const Post& p : cu.timeline) EXPECT_NE(p.author, VarId{2});
}

TEST(CommandBuilders, PostIncludesFollowersOnce) {
  auto cmd = make_post(VarId{1}, {VarId{2}, VarId{1}, VarId{3}}, "hi");
  EXPECT_EQ(cmd.write_set, (std::vector<VarId>{VarId{1}, VarId{2}, VarId{3}}));
  EXPECT_EQ(cmd.arg, "hi");
}

TEST(CommandBuilders, FollowCarriesHintEdge) {
  auto cmd = make_follow(VarId{4}, VarId{7});
  ASSERT_EQ(cmd.hint_edges.size(), 1u);
  EXPECT_EQ(cmd.hint_edges[0].first, VarId{4});
  EXPECT_EQ(cmd.hint_edges[0].second, VarId{7});
}

// ---- full-stack -------------------------------------------------------------

std::unique_ptr<Deployment> chirper_deployment(std::size_t partitions, Strategy strategy,
                                               std::size_t users = 8) {
  auto cfg = small_config(partitions, strategy);
  auto d = std::make_unique<Deployment>(cfg, chirper_app_factory(),
                                        [] { return std::make_unique<core::DssmrPolicy>(); });
  for (std::size_t u = 0; u < users; ++u) {
    d->preload_var(VarId{u}, d->partition_gid(u % partitions), UserValue{});
  }
  d->start();
  d->settle();
  return d;
}

const TimelineReply& as_timeline(const net::MessagePtr& m) {
  return net::msg_as<TimelineReply>(m);
}

TEST(ChirperE2E, PostAppearsInOwnTimeline) {
  auto d = chirper_deployment(2, Strategy::kDssmr);
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {}, "first!")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, make_get_timeline(VarId{0}), &reply), ReplyCode::kOk);
  ASSERT_EQ(as_timeline(reply).posts.size(), 1u);
  EXPECT_EQ(as_timeline(reply).posts[0].text, "first!");
  EXPECT_EQ(as_timeline(reply).posts[0].author, VarId{0});
}

TEST(ChirperE2E, PostFansOutToFollowersAcrossPartitions) {
  auto d = chirper_deployment(2, Strategy::kDssmr);
  // User 1 (partition 1) follows user 0 (partition 0).
  EXPECT_EQ(run_op(*d, 0, make_follow(VarId{1}, VarId{0})), ReplyCode::kOk);
  // User 0 posts; the write set spans both users -> move + single-partition exec.
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {VarId{1}}, "fanout")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, make_get_timeline(VarId{1}), &reply), ReplyCode::kOk);
  ASSERT_EQ(as_timeline(reply).posts.size(), 1u);
  EXPECT_EQ(as_timeline(reply).posts[0].text, "fanout");
  // DS-SMR collocated poster and follower.
  EXPECT_EQ(d->oracle(0).mapping().locate(VarId{0}), d->oracle(0).mapping().locate(VarId{1}));
}

TEST(ChirperE2E, FollowThenUnfollowUpdatesLinks) {
  auto d = chirper_deployment(2, Strategy::kDssmr);
  EXPECT_EQ(run_op(*d, 0, make_follow(VarId{2}, VarId{3})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, make_unfollow(VarId{2}, VarId{3})), ReplyCode::kOk);
  // Post by 3 should now reach only 3's own timeline.
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{3}, {}, "alone")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, make_get_timeline(VarId{2}), &reply), ReplyCode::kOk);
  EXPECT_TRUE(as_timeline(reply).posts.empty());
}

TEST(ChirperE2E, TimelineOrderIsPostOrder) {
  auto d = chirper_deployment(2, Strategy::kDssmr);
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {}, "one")), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {}, "two")), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {}, "three")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, make_get_timeline(VarId{0}), &reply), ReplyCode::kOk);
  const auto& posts = as_timeline(reply).posts;
  ASSERT_EQ(posts.size(), 3u);
  EXPECT_EQ(posts[0].text, "one");
  EXPECT_EQ(posts[1].text, "two");
  EXPECT_EQ(posts[2].text, "three");
}

TEST(ChirperE2E, WorksUnderStaticSsmrToo) {
  auto d = chirper_deployment(2, Strategy::kStaticSsmr);
  // Cross-partition post executes as an S-SMR multi-partition command.
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {VarId{1}}, "static")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, make_get_timeline(VarId{1}), &reply), ReplyCode::kOk);
  ASSERT_EQ(as_timeline(reply).posts.size(), 1u);
  EXPECT_EQ(as_timeline(reply).posts[0].text, "static");
  // No moves under the static scheme; users stay put.
  EXPECT_TRUE(d->server(0, 0).owns(VarId{0}));
  EXPECT_TRUE(d->server(1, 0).owns(VarId{1}));
}

TEST(ChirperE2E, TimelineOfUnknownUserIsNok) {
  auto d = chirper_deployment(2, Strategy::kDssmr);
  EXPECT_EQ(run_op(*d, 0, make_get_timeline(VarId{404})), ReplyCode::kNok);
}

TEST(ChirperE2E, NewUserViaCreate) {
  auto d = chirper_deployment(2, Strategy::kDssmr);
  EXPECT_EQ(run_op(*d, 0, make_create(VarId{100})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, make_follow(VarId{100}, VarId{0})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {VarId{100}}, "welcome")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, make_get_timeline(VarId{100}), &reply), ReplyCode::kOk);
  ASSERT_EQ(as_timeline(reply).posts.size(), 1u);
}

}  // namespace
}  // namespace dssmr::chirper
