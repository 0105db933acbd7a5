// Locality fast path: prophecy prefetch and piggybacked cache repair —
// functional behavior (prefetch installs warm the cache, repair entries
// re-route retries, concurrent moves still execute and reply), epoch
// monotonicity against forged/stale repairs, linearizability with the whole
// fast path on (including under every shipped nemesis plan), and the
// off-by-default purity the seed relies on: locality-off runs must produce
// byte-identical run records and carry no locality artifacts.
#include "core/client_proxy.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/nemesis.h"
#include "harness/experiment.h"
#include "lincheck/lincheck.h"
#include "smr/kv.h"
#include "stats/run_record.h"
#include "testing/dssmr_fixture.h"
#include "testing/history.h"

namespace dssmr::core {
namespace {

using harness::Deployment;
using namespace dssmr::testing;

harness::DeploymentConfig locality_config(std::size_t parts, std::size_t clients) {
  auto cfg = small_config(parts, Strategy::kDssmr, clients);
  cfg.prefetch_k = 8;
  cfg.cache_repair = true;
  return cfg;
}

void preload_kv(Deployment& d, std::size_t vars, lincheck::KvSpec* spec = nullptr) {
  for (std::size_t i = 0; i < vars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % d.config().partitions), kv::KvValue{0, ""});
    if (spec != nullptr) spec->preload(VarId{i}, 0, "");
  }
}

// ---- prophecy prefetch -------------------------------------------------------

TEST(Prefetch, ConsultInstallsCoAccessedNeighbours) {
  auto cfg = locality_config(2, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 6);
  d.start();
  d.settle();

  // Client 0's multi-var command seeds the oracle's co-access table with
  // {0,2,4}; client 1 then consults for {0}: the prophecy's prefetch carries
  // 0's co-accessed partners, warming client 1's cache for vars it never
  // touched.
  EXPECT_EQ(run_op(d, 0, kv_sum({VarId{0}, VarId{2}}, VarId{4})), smr::ReplyCode::kOk);
  EXPECT_EQ(run_op(d, 1, kv_get(VarId{0})), smr::ReplyCode::kOk);
  EXPECT_TRUE(d.client(1).cached_location(VarId{2}).has_value());
  EXPECT_TRUE(d.client(1).cached_location(VarId{4}).has_value());
  EXPECT_GT(d.metrics().counter("locality.prefetch_installed"), 0u);

  // The warmed entries are real cache entries: the next command over them
  // skips the oracle entirely when they share a partition.
  const auto loc2 = d.client(1).cached_location(VarId{2});
  const auto loc4 = d.client(1).cached_location(VarId{4});
  ASSERT_TRUE(loc2.has_value() && loc4.has_value());
  if (*loc2 == *loc4) {
    const std::uint64_t consults = d.metrics().counter("client.consults");
    EXPECT_EQ(run_op(d, 1, kv_sum({VarId{2}}, VarId{4})), smr::ReplyCode::kOk);
    EXPECT_EQ(d.metrics().counter("client.consults"), consults);
    EXPECT_GT(d.metrics().counter("locality.prefetch_hits"), 0u);
  }
}

TEST(Prefetch, OffConfigInstallsNothing) {
  auto cfg = small_config(2, Strategy::kDssmr, 2);  // prefetch_k = 0
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 6);
  d.start();
  d.settle();
  EXPECT_EQ(run_op(d, 0, kv_sum({VarId{0}, VarId{2}}, VarId{4})), smr::ReplyCode::kOk);
  EXPECT_EQ(run_op(d, 1, kv_get(VarId{0})), smr::ReplyCode::kOk);
  EXPECT_FALSE(d.client(1).cached_location(VarId{2}).has_value());
  EXPECT_EQ(d.metrics().counter("locality.prefetch_installed"), 0u);
}

// ---- piggybacked cache repair ------------------------------------------------

TEST(CacheRepair, RepliesAdvanceEpochsMonotonically) {
  auto cfg = locality_config(2, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 4);
  d.start();
  d.settle();

  EXPECT_EQ(run_op(d, 0, kv_get(VarId{1})), smr::ReplyCode::kOk);
  const std::uint64_t e1 = d.client(0).cached_epoch(VarId{1});
  EXPECT_GT(e1, 0u);  // preloaded vars start at epoch 1

  // A forged repair with a stale epoch must never roll the cache back, no
  // matter what location it claims.
  const auto before = d.client(0).cached_location(VarId{1});
  ASSERT_TRUE(before.has_value());
  const GroupId other =
      *before == d.partition_gid(0) ? d.partition_gid(1) : d.partition_gid(0);
  d.client(0).apply_repair({{VarId{1}, other, /*epoch=*/0}});
  EXPECT_EQ(d.client(0).cached_location(VarId{1}), before);
  EXPECT_EQ(d.client(0).cached_epoch(VarId{1}), e1);

  // Equal epoch: still no install (strictly-greater rule).
  d.client(0).apply_repair({{VarId{1}, other, e1}});
  EXPECT_EQ(d.client(0).cached_location(VarId{1}), before);

  // Strictly newer epoch: installs and advances.
  d.client(0).apply_repair({{VarId{1}, other, e1 + 1}});
  EXPECT_EQ(d.client(0).cached_location(VarId{1}), other);
  EXPECT_EQ(d.client(0).cached_epoch(VarId{1}), e1 + 1);
}

TEST(CacheRepair, MovedVarRepairReachesOtherClients) {
  auto cfg = locality_config(2, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 4);
  d.start();
  d.settle();

  // Both clients learn var 0 (partition 0) and var 1 (partition 1).
  EXPECT_EQ(run_op(d, 0, kv_get(VarId{0})), smr::ReplyCode::kOk);
  EXPECT_EQ(run_op(d, 1, kv_get(VarId{0})), smr::ReplyCode::kOk);
  EXPECT_EQ(run_op(d, 1, kv_get(VarId{1})), smr::ReplyCode::kOk);

  // Client 0 collocates {0,1} via a DS-SMR move; client 1's cache is now
  // stale for whichever var moved. Its next command over both vars either
  // routes by luck or hits kRetry — with repair on, the retry reply teaches
  // it the new owner without a fresh consult ending in fallback.
  EXPECT_EQ(run_op(d, 0, kv_sum({VarId{0}}, VarId{1})), smr::ReplyCode::kOk);
  EXPECT_EQ(run_op(d, 1, kv_sum({VarId{0}}, VarId{1})), smr::ReplyCode::kOk);
  EXPECT_TRUE(d.audit_consistency().empty());
  // Repair actually flowed somewhere in the run (prophecy epochs, retry or
  // OK-reply piggyback).
  EXPECT_GT(d.metrics().counter("locality.repairs"), 0u);
}

// ---- concurrent moves --------------------------------------------------------

TEST(LocalityMoves, ConcurrentCrossPartitionCommandsEachMoveOnce) {
  auto cfg = locality_config(2, 4);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 8);
  d.start();
  d.settle();

  // Every client issues a cross-partition command at once: four moves, each
  // its own multicast to {oracle, source, destination}, all in flight
  // together with prefetch and repair on.
  std::vector<smr::ReplyCode> codes(4, smr::ReplyCode::kNok);
  std::size_t done = 0;
  for (std::size_t ci = 0; ci < 4; ++ci) {
    const auto v = static_cast<std::uint64_t>(2 * ci);
    d.client(ci).issue(kv_sum({VarId{v}}, VarId{v + 1}),
                       [&codes, &done, ci](smr::ReplyCode c, const net::MessagePtr&) {
                         codes[ci] = c;
                         ++done;
                       });
  }
  d.engine().run_for(sec(5));
  ASSERT_EQ(done, 4u);
  for (std::size_t ci = 0; ci < 4; ++ci) {
    EXPECT_EQ(codes[ci], smr::ReplyCode::kOk) << "client " << ci;
  }
  EXPECT_EQ(d.metrics().counter("client.moves"), 4u);
  EXPECT_TRUE(d.audit_consistency().empty());
}

// ---- linearizability with the full fast path on ------------------------------

class LocalityLinearizability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalityLinearizability, ConcurrentHistoriesAreLinearizable) {
  constexpr std::size_t kVars = 5;
  auto cfg = locality_config(2, 4);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  lincheck::KvSpec spec;
  preload_kv(d, kVars, &spec);
  d.start();
  d.settle();
  auto history = record_history(d, /*ops_per_client=*/8, GetParam(), kVars);
  ASSERT_EQ(history.size(), 32u);
  EXPECT_TRUE(lincheck::is_linearizable(history, spec)) << "seed " << GetParam();
  EXPECT_TRUE(d.audit_consistency().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalityLinearizability, ::testing::Values(1, 2, 3, 4, 5));

// Prefetch + repair stay linearizable under every shipped fault plan: stale
// prefetched locations and repairs racing crashes or leader failover must
// all degrade to retries, never to a consistency violation.
class LocalityUnderFaults : public ::testing::TestWithParam<std::string> {};

TEST_P(LocalityUnderFaults, HistoriesUnderPlanAreLinearizable) {
  constexpr std::size_t kVars = 4;
  auto cfg = locality_config(2, 3);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  lincheck::KvSpec spec;
  preload_kv(d, kVars, &spec);
  d.start();
  d.settle();

  fault::Nemesis nem{d, fault::resolve_plan(GetParam())};
  nem.arm();
  auto history =
      record_history(d, /*ops_per_client=*/8, /*seed=*/23, kVars, /*think=*/msec(250));
  ASSERT_EQ(history.size(), 24u);
  EXPECT_TRUE(lincheck::is_linearizable(history, spec)) << "plan " << GetParam();
  EXPECT_GT(d.metrics().counter("faults.events_injected"), 0u);
}

std::vector<std::string> shipped_plan_names() {
  std::vector<std::string> names;
  for (const fault::ShippedPlan& p : fault::shipped_plans()) names.emplace_back(p.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllShippedPlans, LocalityUnderFaults,
                         ::testing::ValuesIn(shipped_plan_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ---- determinism and off-by-default purity -----------------------------------

harness::ChirperRunConfig chirper_locality(std::uint64_t seed) {
  harness::ChirperRunConfig cfg;
  cfg.partitions = 2;
  cfg.clients_per_partition = 3;
  cfg.graph = {.n = 300, .m = 2, .p_triad = 0.8};
  cfg.warmup = msec(100);
  cfg.measure = msec(300);
  cfg.seed = seed;
  cfg.prefetch_k = 8;
  cfg.cache_repair = true;
  return cfg;
}

std::string record_json(const harness::ChirperRunConfig& cfg, const harness::RunResult& r) {
  std::ostringstream os;
  stats::write_run_records(os, "locality_test", {harness::make_run_record(cfg, r)});
  return os.str();
}

TEST(LocalityDeterminism, SameSeedSameRunRecordBytes) {
  const harness::ChirperRunConfig cfg = chirper_locality(77);
  const std::string first = record_json(cfg, harness::run_chirper(cfg));
  const std::string second = record_json(cfg, harness::run_chirper(cfg));
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(first, second);
  // The record carries the v6 locality section and the knob metadata.
  EXPECT_NE(first.find("\"locality\""), std::string::npos);
  EXPECT_NE(first.find("\"prefetch_k\": \"8\""), std::string::npos);
  EXPECT_NE(first.find("\"cache_repair\": \"true\""), std::string::npos);
}

TEST(LocalityDeterminism, OffRunsCarryNoLocalityArtifacts) {
  harness::ChirperRunConfig cfg = chirper_locality(78);
  cfg.prefetch_k = 0;
  cfg.cache_repair = false;
  const std::string json = record_json(cfg, harness::run_chirper(cfg));
  EXPECT_EQ(json.find("\"locality\""), std::string::npos);
  EXPECT_EQ(json.find("prefetch"), std::string::npos);
  EXPECT_EQ(json.find("cache_repair"), std::string::npos);
}

// The real off-mode purity bar: a locality-off run record is byte-identical
// to one from a config that predates the locality knobs entirely (the two
// structs differ only in the new default-zero fields).
TEST(LocalityDeterminism, OffModeMatchesPreLocalityRecordBytes) {
  harness::ChirperRunConfig off = chirper_locality(79);
  off.prefetch_k = 0;
  off.cache_repair = false;

  harness::ChirperRunConfig legacy;
  legacy.partitions = off.partitions;
  legacy.clients_per_partition = off.clients_per_partition;
  legacy.graph = off.graph;
  legacy.warmup = off.warmup;
  legacy.measure = off.measure;
  legacy.seed = off.seed;

  const std::string a = record_json(off, harness::run_chirper(off));
  const std::string b = record_json(legacy, harness::run_chirper(legacy));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dssmr::core
