// Unit tests of the SMR layer: execution engine, variable store, execution
// view, KV application semantics, and command plumbing.
#include <gtest/gtest.h>

#include "sim/engine.h"
#include "smr/app.h"
#include "smr/command.h"
#include "smr/execution.h"
#include "smr/kv.h"

namespace dssmr::smr {
namespace {

// ---- ExecutionEngine ----------------------------------------------------------

TEST(ExecutionEngine, RunsTasksInOrderWithServiceTime) {
  sim::Engine engine;
  ExecutionEngine exec{engine};
  std::vector<std::pair<int, Time>> finished;
  for (int i = 0; i < 3; ++i) {
    exec.enqueue({MsgId{static_cast<std::uint64_t>(i)}, {}, nullptr, usec(10),
                  [&, i] { finished.emplace_back(i, engine.now()); }});
  }
  engine.run();
  ASSERT_EQ(finished.size(), 3u);
  EXPECT_EQ(finished[0], std::make_pair(0, usec(10)));
  EXPECT_EQ(finished[1], std::make_pair(1, usec(20)));
  EXPECT_EQ(finished[2], std::make_pair(2, usec(30)));
  EXPECT_EQ(exec.busy_time(), usec(30));
  EXPECT_EQ(exec.executed_count(), 3u);
}

TEST(ExecutionEngine, HeadWaitsBlockEverythingBehind) {
  sim::Engine engine;
  ExecutionEngine exec{engine};
  bool input_ready = false;
  std::vector<int> order;
  exec.enqueue({MsgId{1}, {}, [&] { return input_ready; }, usec(5),
                [&] { order.push_back(1); }});
  exec.enqueue({MsgId{2}, {}, nullptr, usec(5), [&] { order.push_back(2); }});
  engine.run_for(msec(1));
  EXPECT_TRUE(order.empty());  // both blocked behind the head
  input_ready = true;
  exec.notify();
  engine.run_for(msec(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ExecutionEngine, OnHeadRunsOnceBeforeReadyChecks) {
  sim::Engine engine;
  ExecutionEngine exec{engine};
  int head_calls = 0;
  bool ready = false;
  exec.enqueue({MsgId{1}, [&] { ++head_calls; }, [&] { return ready; }, usec(1), [] {}});
  engine.run_for(msec(1));
  exec.notify();
  exec.notify();
  EXPECT_EQ(head_calls, 1);
  ready = true;
  exec.notify();
  engine.run_for(msec(1));
  EXPECT_EQ(head_calls, 1);
  EXPECT_TRUE(exec.idle());
}

TEST(ExecutionEngine, ZeroServiceTaskCompletes) {
  sim::Engine engine;
  ExecutionEngine exec{engine};
  bool ran = false;
  exec.enqueue({MsgId{1}, {}, nullptr, 0, [&] { ran = true; }});
  engine.run_for(usec(1));
  EXPECT_TRUE(ran);
}

TEST(ExecutionEngine, TaskEnqueuedFromRunCallback) {
  sim::Engine engine;
  ExecutionEngine exec{engine};
  std::vector<int> order;
  exec.enqueue({MsgId{1}, {}, nullptr, usec(1), [&] {
                  order.push_back(1);
                  exec.enqueue({MsgId{2}, {}, nullptr, usec(1),
                                [&] { order.push_back(2); }});
                }});
  engine.run_for(msec(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---- VariableStore / ExecutionView --------------------------------------------

TEST(VariableStore, PutGetTakeErase) {
  VariableStore store;
  EXPECT_FALSE(store.contains(VarId{1}));
  store.put(VarId{1}, std::make_unique<kv::KvValue>(5, "x"));
  ASSERT_TRUE(store.contains(VarId{1}));
  EXPECT_EQ(dynamic_cast<kv::KvValue*>(store.get(VarId{1}))->num, 5);
  auto taken = store.take(VarId{1});
  ASSERT_NE(taken, nullptr);
  EXPECT_FALSE(store.contains(VarId{1}));
  EXPECT_EQ(store.take(VarId{1}), nullptr);
}

TEST(VariableStore, TotalBytesSumsValues) {
  VariableStore store;
  store.put(VarId{1}, std::make_unique<kv::KvValue>(0, "abcd"));
  store.put(VarId{2}, std::make_unique<kv::KvValue>(0, ""));
  EXPECT_EQ(store.total_bytes(), (24 + 4) + 24u);
}

TEST(ExecutionView, PrefersLocalOverBorrowed) {
  VariableStore store;
  store.put(VarId{1}, std::make_unique<kv::KvValue>(10, "local"));
  ExecutionView view{store};
  view.lend(VarId{1}, std::make_unique<kv::KvValue>(99, "remote"));
  view.lend(VarId{2}, std::make_unique<kv::KvValue>(7, "only-remote"));
  EXPECT_EQ(view.get_as<kv::KvValue>(VarId{1})->data, "local");
  EXPECT_EQ(view.get_as<kv::KvValue>(VarId{2})->data, "only-remote");
  EXPECT_TRUE(view.is_local(VarId{1}));
  EXPECT_FALSE(view.is_local(VarId{2}));
  EXPECT_FALSE(view.contains(VarId{3}));
}

TEST(ExecutionView, BorrowedWritesDoNotTouchStore) {
  VariableStore store;
  ExecutionView view{store};
  view.lend(VarId{1}, std::make_unique<kv::KvValue>(1, ""));
  view.get_as<kv::KvValue>(VarId{1})->num = 42;
  EXPECT_FALSE(store.contains(VarId{1}));
}

// ---- KV application -------------------------------------------------------------

TEST(KvApp, GetSetAddSum) {
  kv::KvApp app;
  VariableStore store;
  store.put(VarId{1}, std::make_unique<kv::KvValue>(3, "a"));
  store.put(VarId{2}, std::make_unique<kv::KvValue>(4, "b"));

  ExecutionView view{store};
  Command get;
  get.op = kv::kGet;
  get.read_set = {VarId{1}};
  auto reply = app.execute(get, view);
  EXPECT_EQ(net::msg_as<kv::KvReply>(reply).num, 3);

  Command add;
  add.op = kv::kAdd;
  add.write_set = {VarId{1}};
  add.arg = "-5";
  reply = app.execute(add, view);
  EXPECT_EQ(net::msg_as<kv::KvReply>(reply).num, -2);

  Command sum;
  sum.op = kv::kSumTo;
  sum.read_set = {VarId{1}, VarId{2}};
  sum.write_set = {VarId{2}};
  reply = app.execute(sum, view);
  EXPECT_EQ(net::msg_as<kv::KvReply>(reply).num, 2);
  EXPECT_EQ(dynamic_cast<kv::KvValue*>(store.get(VarId{2}))->num, 2);
}

TEST(KvApp, MissingVariableHandledGracefully) {
  kv::KvApp app;
  VariableStore store;
  ExecutionView view{store};
  Command get;
  get.op = kv::kGet;
  get.read_set = {VarId{404}};
  auto reply = app.execute(get, view);
  EXPECT_EQ(net::msg_as<kv::KvReply>(reply).data, "<missing>");
}

TEST(KvApp, ServiceTimeGrowsWithVars) {
  kv::KvApp app;
  Command small;
  small.op = kv::kGet;
  small.read_set = {VarId{1}};
  Command big = small;
  big.read_set = {VarId{1}, VarId{2}, VarId{3}};
  EXPECT_LT(app.service_time(small), app.service_time(big));
}

// ---- Command ---------------------------------------------------------------------

TEST(Command, VarsIsDedupedUnion) {
  Command c;
  c.read_set = {VarId{3}, VarId{1}};
  c.write_set = {VarId{1}, VarId{2}};
  EXPECT_EQ(c.vars(), (std::vector<VarId>{VarId{1}, VarId{2}, VarId{3}}));
}

TEST(Command, SizeGrowsWithContent) {
  Command small;
  Command big;
  big.read_set = {VarId{1}, VarId{2}};
  big.arg = std::string(100, 'x');
  EXPECT_LT(small.size_bytes(), big.size_bytes());
}

TEST(Command, ToStringCoversAllTypes) {
  EXPECT_STREQ(to_string(CommandType::kAccess), "access");
  EXPECT_STREQ(to_string(CommandType::kCreate), "create");
  EXPECT_STREQ(to_string(CommandType::kDelete), "delete");
  EXPECT_STREQ(to_string(CommandType::kMove), "move");
  EXPECT_STREQ(to_string(ReplyCode::kOk), "ok");
  EXPECT_STREQ(to_string(ReplyCode::kRetry), "retry");
  EXPECT_STREQ(to_string(ReplyCode::kNok), "nok");
}

TEST(VarShipMsg, SizeIncludesValues) {
  std::vector<std::pair<VarId, std::shared_ptr<const VarValue>>> vars;
  vars.emplace_back(VarId{1}, std::make_shared<kv::KvValue>(0, std::string(100, 'y')));
  VarShipMsg ship{MsgId{1}, GroupId{0}, false, std::move(vars)};
  EXPECT_GT(ship.size_bytes(), 100u);
}

}  // namespace
}  // namespace dssmr::smr
