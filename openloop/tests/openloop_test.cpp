// Tests of the open-loop benchmark's own building blocks: the generator and
// the counting decorators.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chirper/chirper.h"
#include "core/mapping.h"
#include "decorators.h"
#include "harness/deployment.h"
#include "host_trace.h"
#include "open_loop.h"
#include "workload/chirper_workload.h"

namespace {

using namespace dssmr;
using openloop::HostTrace;
using openloop::LayerCalls;
using openloop::OpenLoop;

// ---- decorators forward every virtual -----------------------------------------

struct ProbePolicy final : core::OraclePolicy {
  std::map<std::string, int>& seen;
  explicit ProbePolicy(std::map<std::string, int>& s) : seen(s) {}
  GroupId place_new(VarId, const core::Mapping&) override {
    ++seen["place_new"];
    return GroupId{7};
  }
  GroupId choose_destination(const std::vector<VarId>&, const core::Mapping&) override {
    ++seen["choose_destination"];
    return GroupId{9};
  }
  void on_hint(const std::vector<std::pair<VarId, VarId>>&) override { ++seen["on_hint"]; }
  void on_create(VarId) override { ++seen["on_create"]; }
  void on_delete(VarId) override { ++seen["on_delete"]; }
  std::uint64_t repartition_count() const override { return 11; }
  std::size_t workload_graph_vertices() const override { return 12; }
  std::size_t workload_graph_edges() const override { return 13; }
  void note_co_access(const std::vector<VarId>&) override { ++seen["note_co_access"]; }
  void prefetch_candidates(const std::vector<VarId>&, std::size_t k,
                           std::vector<VarId>& out) override {
    ++seen["prefetch_candidates"];
    out.push_back(VarId{k});
  }
};

TEST(CountingPolicy, ForwardsEveryVirtual) {
  std::map<std::string, int> seen;
  LayerCalls calls;
  HostTrace trace{true};
  openloop::CountingPolicy p{std::make_unique<ProbePolicy>(seen), calls, trace};
  core::Mapping map{{GroupId{0}, GroupId{1}}};
  const std::vector<VarId> vars{VarId{1}, VarId{2}};
  EXPECT_EQ(p.place_new(VarId{1}, map), GroupId{7});
  EXPECT_EQ(p.choose_destination(vars, map), GroupId{9});
  p.on_hint({{VarId{1}, VarId{2}}});
  p.on_create(VarId{3});
  p.on_delete(VarId{3});
  p.note_co_access(vars);
  std::vector<VarId> out;
  p.prefetch_candidates(vars, 5, out);
  EXPECT_EQ(out, std::vector<VarId>{VarId{5}});
  EXPECT_EQ(p.repartition_count(), 11u);
  EXPECT_EQ(p.workload_graph_vertices(), 12u);
  EXPECT_EQ(p.workload_graph_edges(), 13u);
  for (const char* name : {"place_new", "choose_destination", "on_hint", "on_create",
                           "on_delete", "note_co_access", "prefetch_candidates"}) {
    EXPECT_EQ(seen[name], 1) << name;
  }
  EXPECT_EQ(calls.policy, 7u);
  EXPECT_EQ(trace.totals(openloop::SpanKind::kPolicy).count, 7u);
}

struct ProbeApp final : smr::AppStateMachine {
  std::map<std::string, int>& seen;
  explicit ProbeApp(std::map<std::string, int>& s) : seen(s) {}
  net::MessagePtr execute(const smr::Command&, smr::ExecutionView&) override {
    ++seen["execute"];
    return std::make_shared<chirper::StatusReply>(true);
  }
  std::unique_ptr<smr::VarValue> make_default(VarId) override {
    ++seen["make_default"];
    return std::make_unique<chirper::UserValue>();
  }
  Duration service_time(const smr::Command&) const override { return usec(42); }
};

TEST(CountingApp, ForwardsEveryVirtual) {
  std::map<std::string, int> seen;
  LayerCalls calls;
  HostTrace trace{true};
  const openloop::CommandKey key = [](const smr::Command& c) { return c.id.value; };
  openloop::CountingApp app{std::make_unique<ProbeApp>(seen), calls, trace, key};
  smr::VariableStore store;
  smr::ExecutionView view{store};
  smr::Command cmd = chirper::make_get_timeline(VarId{1});
  cmd.id = MsgId{77};
  EXPECT_NE(app.execute(cmd, view), nullptr);
  EXPECT_NE(app.make_default(VarId{1}), nullptr);
  EXPECT_EQ(app.service_time(cmd), usec(42));
  EXPECT_EQ(seen["execute"], 1);
  EXPECT_EQ(seen["make_default"], 1);
  EXPECT_EQ(calls.execute, 1u);
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].cmd, 77u);
}

// ---- small deployments driven open loop ------------------------------------------

struct SmallRun {
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::vector<std::int64_t> latencies;
  std::uint64_t arrivals = 0;
  std::uint64_t backlog_max = 0;
};

struct Rig {
  explicit Rig(std::size_t clients, bool decorated, std::uint64_t seed = 5)
      : graph(workload::SocialGraph::generate_communities({.n = 25, .m = 2, .p_triad = 0.8}, 8,
                                                          0.05, graph_rng)),
        trace(decorated) {
    harness::DeploymentConfig cfg;
    cfg.partitions = 2;
    cfg.replicas_per_partition = 2;
    cfg.oracle_replicas = 2;
    cfg.clients = clients;
    cfg.seed = seed;
    smr::AppFactory app = chirper::chirper_app_factory();
    harness::PolicyFactory policy = [] { return std::make_unique<core::DssmrPolicy>(); };
    if (decorated) {
      app = openloop::counting_app_factory(std::move(app), calls, trace, key);
      policy = openloop::counting_policy_factory(std::move(policy), calls, trace);
    }
    d = std::make_unique<harness::Deployment>(cfg, std::move(app), std::move(policy));
    for (std::size_t u = 0; u < graph.user_count(); ++u) {
      chirper::UserValue user;
      user.followers = graph.neighbors(VarId{u});
      user.following = user.followers;
      d->preload_var(VarId{u}, d->partition_gid(u % 2), user);
    }
    d->start();
    d->settle();
    workload::ChirperWorkloadConfig wcfg;
    wcfg.mix = workload::mixes::kTimelineHeavy;
    wl = std::make_unique<workload::ChirperWorkload>(graph, wcfg, seed + 1);
    std::vector<core::ClientProxy*> proxies;
    for (std::size_t i = 0; i < d->client_count(); ++i) proxies.push_back(&d->client(i));
    loop = std::make_unique<OpenLoop>(d->engine(), std::move(proxies),
                                      [this] { return wl->next(); }, 1024,
                                      decorated ? &trace : nullptr);
  }

  SmallRun drive(double rate_cps, Duration length, std::uint64_t arrival_seed) {
    const Time start = d->engine().now();
    loop->set_window(start, start + length);
    loop->start_poisson(rate_cps, arrival_seed, start + length);
    d->engine().run_until(start + length);
    while (!loop->drained()) d->engine().run_for(msec(10));
    SmallRun r;
    for (const auto& [name, c] : d->metrics().counters()) r.counters[name] = c.value();
    r.events = d->engine().events_executed();
    r.messages = d->network().stats().messages_sent;
    r.bytes = d->network().stats().bytes_sent;
    r.latencies = loop->window_latencies();
    r.arrivals = loop->arrivals();
    r.backlog_max = loop->backlog_max();
    return r;
  }

  Rng graph_rng{3};
  workload::SocialGraph graph;
  LayerCalls calls;
  HostTrace trace;
  openloop::CommandKey key = [this](const smr::Command& c) { return loop->arrival_of(c); };
  std::unique_ptr<harness::Deployment> d;
  std::unique_ptr<workload::ChirperWorkload> wl;
  std::unique_ptr<OpenLoop> loop;
};

TEST(Decorators, CountersIdenticalToStockFactories) {
  Rig stock{16, false};
  Rig decorated{16, true};
  const SmallRun a = stock.drive(3000, msec(500), 9);
  const SmallRun b = decorated.drive(3000, msec(500), 9);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_GT(decorated.calls.execute, 0u);
  EXPECT_GT(decorated.calls.policy, 0u);
  // Execute spans carry the arrival sequence number of their command.
  bool keyed = false;
  for (const auto& s : decorated.trace.spans()) {
    if (s.kind == openloop::SpanKind::kExecute && s.cmd != 0) keyed = true;
  }
  EXPECT_TRUE(keyed);
}

TEST(OpenLoop, ArrivalCountFallsInPoissonRange) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rig rig{64, false, seed};
    const double rate = 2000;
    const double seconds = 1.0;
    const SmallRun r = rig.drive(rate, sec(1), seed * 13);
    const double mean = rate * seconds;
    // Poisson: variance equals the mean; 4 standard deviations either way.
    const double slack = 4 * std::sqrt(mean);
    EXPECT_GE(static_cast<double>(r.arrivals), mean - slack) << "seed " << seed;
    EXPECT_LE(static_cast<double>(r.arrivals), mean + slack) << "seed " << seed;
    EXPECT_EQ(rig.loop->completed(), r.arrivals);
  }
}

TEST(OpenLoop, QueuedArrivalAccruesItsWait) {
  Rig rig{1, false};
  sim::Engine& e = rig.d->engine();
  const Time due = e.now() + msec(1);
  rig.loop->set_window(due, due + 1);
  // Two arrivals due at the same instant and one proxy: the second waits in
  // the backlog until the first completes.
  e.schedule_at(due, [&rig] { rig.loop->arrive(); });
  e.schedule_at(due, [&rig] { rig.loop->arrive(); });
  e.run_until(due + msec(50));
  ASSERT_TRUE(rig.loop->drained());
  EXPECT_EQ(rig.loop->backlog_max(), 1u);
  const auto& lat = rig.loop->window_latencies();
  ASSERT_EQ(lat.size(), 2u);
  // The second command's latency includes the whole first command (its wait)
  // plus its own service, which takes at least one network round trip.
  EXPECT_GE(lat[1], lat[0] + 2 * rig.d->network().config().intra_rack_latency);
}

TEST(OpenLoop, FullBacklogRefusesArrivals) {
  Rig rig{1, false};
  sim::Engine& e = rig.d->engine();
  OpenLoop tiny{e, {&rig.d->client(0)}, [&rig] { return rig.wl->next(); }, 1};
  const Time due = e.now() + msec(1);
  for (int i = 0; i < 3; ++i) e.schedule_at(due, [&tiny] { tiny.arrive(); });
  e.run_until(due + msec(50));
  EXPECT_EQ(tiny.arrivals(), 3u);
  EXPECT_EQ(tiny.refused(), 1u);
  EXPECT_EQ(tiny.completed(), 2u);
  EXPECT_TRUE(tiny.drained());
}

}  // namespace
