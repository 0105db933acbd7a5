// The closed message vocabulary (net/message.h): every kind is named and
// layered, msg_cast is exact on the kind tag, and a GroupNode's switch
// dispatch routes what is not its own to on_direct.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chirper/chirper.h"
#include "consensus/paxos.h"
#include "multicast/atomic.h"
#include "multicast/messages.h"
#include "net/message.h"
#include "smr/command.h"
#include "smr/kv.h"
#include "testing/cluster.h"

namespace dssmr {
namespace {

using net::Kind;
using net::Layer;

TEST(MessageKind, EveryKindHasANameAndALayer) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < net::kKinds; ++i) {
    const auto k = static_cast<Kind>(i);
    const std::string_view name = to_string(k);
    EXPECT_NE(name, "unknown") << "Kind " << i << " missing a to_string case";
    names.emplace(name);
    const Layer l = net::layer_of(k);
    ASSERT_LT(static_cast<std::size_t>(l), net::kLayers) << name << " has no layer";
    EXPECT_NE(to_string(l), "unknown") << name;
  }
  EXPECT_EQ(names.size(), net::kKinds) << "duplicate Kind names";
  EXPECT_EQ(to_string(Kind::kKindCount_), "unknown");
  EXPECT_EQ(net::layer_of(Kind::kKindCount_), Layer::kLayerCount_);
  for (std::size_t i = 0; i < net::kLayers; ++i) {
    EXPECT_NE(to_string(static_cast<Layer>(i)), "unknown") << "Layer " << i;
  }
}

TEST(MessageKind, LayersFollowTheProtocolStack) {
  EXPECT_EQ(net::layer_of(consensus::P2a::kKind), Layer::kPaxos);
  EXPECT_EQ(net::layer_of(multicast::StampEntry::kKind), Layer::kAmcast);
  EXPECT_EQ(net::layer_of(multicast::RmMsg::kKind), Layer::kRmcast);
  EXPECT_EQ(net::layer_of(smr::CommandMsg::kKind), Layer::kClient);
  EXPECT_EQ(net::layer_of(smr::ProphecyMsg::kKind), Layer::kOracle);
  EXPECT_EQ(net::layer_of(smr::VarShipMsg::kKind), Layer::kServer);
  EXPECT_EQ(net::layer_of(chirper::TimelineReply::kKind), Layer::kApp);
}

/// One instance of every message type defined in src/, in Kind order.
std::vector<net::MessagePtr> one_of_each() {
  auto cmd = std::make_shared<const smr::Command>();
  const GroupId g{0};
  const MsgId id{1};
  return {
      net::make_msg<consensus::P1a>(g, 1, 0),
      net::make_msg<consensus::P1b>(g, 1, true, 0, consensus::AcceptedMap{}),
      net::make_msg<consensus::P2a>(g, 1, 0, nullptr),
      net::make_msg<consensus::P2b>(g, 1, 0, true),
      net::make_msg<consensus::CommitMsg>(g, 0, nullptr),
      net::make_msg<consensus::HeartbeatMsg>(g, 1, 0),
      net::make_msg<consensus::LearnReq>(g, 0),
      net::make_msg<multicast::StampEntry>(multicast::AmcastMessage{}),
      net::make_msg<multicast::TsEntry>(id, g, 1),
      net::make_msg<multicast::SubmitToLog>(g, consensus::LogEntry{}),
      net::make_msg<multicast::BatchSubmitMsg>(g, std::vector<consensus::LogEntry>{}),
      net::make_msg<multicast::TsQuery>(id, g),
      net::make_msg<multicast::RmMsg>(id, ProcessId{0}, std::vector<GroupId>{g}, nullptr,
                                      false),
      net::make_msg<smr::CommandMsg>(smr::Command{}),
      net::make_msg<smr::ReplyMsg>(id, smr::ReplyCode::kOk, g),
      net::make_msg<smr::MoveResultMsg>(std::vector<VarId>{}),
      net::make_msg<smr::ConsultMsg>(id, cmd),
      net::make_msg<smr::ProphecyMsg>(id, smr::ReplyCode::kOk),
      net::make_msg<smr::HintMsg>(std::vector<std::pair<VarId, VarId>>{}),
      net::make_msg<smr::VarShipMsg>(
          id, g, false, std::vector<std::pair<VarId, std::shared_ptr<const smr::VarValue>>>{}),
      net::make_msg<smr::SignalMsg>(id, g),
      net::make_msg<kv::KvReply>(0, ""),
      net::make_msg<chirper::TimelineReply>(std::vector<chirper::Post>{}),
      net::make_msg<chirper::StatusReply>(true),
  };
}

template <class... Ts>
struct TypeList {};

/// Every message type defined in src/, in the order of one_of_each().
using SrcTypes =
    TypeList<consensus::P1a, consensus::P1b, consensus::P2a, consensus::P2b,
             consensus::CommitMsg, consensus::HeartbeatMsg, consensus::LearnReq,
             multicast::StampEntry, multicast::TsEntry, multicast::SubmitToLog,
             multicast::BatchSubmitMsg, multicast::TsQuery, multicast::RmMsg, smr::CommandMsg,
             smr::ReplyMsg, smr::MoveResultMsg, smr::ConsultMsg, smr::ProphecyMsg,
             smr::HintMsg, smr::VarShipMsg, smr::SignalMsg, kv::KvReply,
             chirper::TimelineReply, chirper::StatusReply>;

template <class T>
void expect_cast_exact(const std::vector<net::MessagePtr>& all) {
  std::size_t hits = 0;
  for (const net::MessagePtr& m : all) {
    const T* t = net::msg_cast<T>(m);
    if (m->kind() == T::kKind) {
      EXPECT_EQ(t, m.get()) << to_string(T::kKind);
      ++hits;
    } else {
      EXPECT_EQ(t, nullptr) << to_string(T::kKind) << " cast from " << to_string(m->kind());
    }
  }
  EXPECT_EQ(hits, 1u) << to_string(T::kKind);
  EXPECT_EQ(net::msg_cast<T>(net::MessagePtr{}), nullptr);
}

template <class... Ts>
void expect_casts_exact(TypeList<Ts...>, const std::vector<net::MessagePtr>& all) {
  (expect_cast_exact<Ts>(all), ...);
}

TEST(MessageKind, MsgCastSucceedsOnlyOnItsOwnKind) {
  const std::vector<net::MessagePtr> all = one_of_each();
  // The src/ types bind every kind before the reserved ones, one kind each.
  std::set<Kind> kinds;
  for (const net::MessagePtr& m : all) {
    EXPECT_LT(m->kind(), Kind::kTestProbe) << to_string(m->kind());
    kinds.insert(m->kind());
  }
  EXPECT_EQ(kinds.size(), all.size());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(Kind::kTestProbe));
  expect_casts_exact(SrcTypes{}, all);
}

TEST(MessageKind, ReservedKindsCastOnlyToTheirType) {
  const net::MessagePtr m = net::make_msg<testing::IntMsg>(5);
  EXPECT_EQ(m->kind(), Kind::kTestInt);
  EXPECT_EQ(net::msg_as<testing::IntMsg>(m).value, 5);
  EXPECT_EQ(net::msg_cast<smr::CommandMsg>(m), nullptr);
  EXPECT_EQ(net::msg_cast<testing::IntMsg>(net::make_msg<smr::SignalMsg>(MsgId{1}, GroupId{0})),
            nullptr);
}

// ---- GroupNode routing ---------------------------------------------------------

TEST(GroupNodeRouting, ForeignGroupPaxosAndUnknownPayloadsReachOnDirect) {
  testing::Fabric f{2, 3, 1};
  f.engine.run_for(msec(50));
  testing::RecordingGroupNode& node = f.node(0, 1);
  const ProcessId sender = f.clients[0]->pid();
  ASSERT_TRUE(node.direct.empty());

  // A P2a addressed to group 1, delivered to a group-0 replica: its Paxos
  // core declines it, rmcast declines it, and it lands in on_direct.
  const net::MessagePtr foreign = net::make_msg<consensus::P2a>(
      GroupId{1}, consensus::make_ballot(99, 0), 1, std::make_shared<const consensus::Batch>());
  // A payload outside the protocol vocabulary.
  const net::MessagePtr app = net::make_msg<testing::IntMsg>(42);
  f.network.send(sender, node.pid(), foreign);
  f.network.send(sender, node.pid(), app);
  f.engine.run_for(msec(10));

  ASSERT_EQ(node.direct.size(), 2u);
  EXPECT_EQ(node.direct[0].first, sender);
  EXPECT_EQ(node.direct[0].second, foreign);
  EXPECT_EQ(node.direct[1].first, sender);
  EXPECT_EQ(node.direct[1].second, app);
  EXPECT_TRUE(node.amdelivered.empty());
  EXPECT_TRUE(node.rmdelivered.empty());
}

TEST(GroupNodeRouting, OwnProtocolTrafficNeverReachesOnDirect) {
  testing::Fabric f{2, 3, 1};
  f.engine.run_for(msec(50));
  f.clients[0]->amcast({GroupId{0}, GroupId{1}}, net::make_msg<testing::IntMsg>(7));
  f.node(1, 2).rmcast({GroupId{0}, GroupId{1}}, net::make_msg<testing::IntMsg>(8));
  f.engine.run_for(msec(300));
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t r = 0; r < 3; ++r) {
      const testing::RecordingGroupNode& n = f.node(g, r);
      EXPECT_EQ(n.amdelivered.size(), 1u) << "group " << g << " replica " << r;
      EXPECT_EQ(n.rmdelivered.size(), 1u) << "group " << g << " replica " << r;
      EXPECT_TRUE(n.direct.empty()) << "group " << g << " replica " << r;
    }
  }
}

}  // namespace
}  // namespace dssmr
