// E8 — Dynamic workloads (the supplied text's "adding nodes and
// repartitioning dynamically" figure).
//
// The system starts empty. Clients continuously create users, follow each
// other (friend-of-friend biased, so communities emerge) and post. The
// DynaStar-style oracle accumulates hint edges and recomputes the ideal
// partitioning every N hints. Expected shape: throughput ratchets upward
// after repartitionings as the placement matches the emerging communities,
// while the plain DS-SMR oracle improves only via greedy per-command moves.
#include <memory>
#include <optional>

#include "bench_util.h"
#include "chirper/chirper.h"
#include "core/dynastar_policy.h"
#include "fault/nemesis.h"
#include "fault/scaler.h"
#include "workload/chirper_workload.h"

namespace {

using namespace dssmr;

/// Generator with two phases: (1) grow the network — create users and follow
/// friend-of-friend until the target size and degree are reached; (2) drive
/// posts over the grown graph. Keeping the graph fixed in phase 2 makes the
/// placement-improvement effect visible (otherwise ever-growing post fan-out
/// masks it).
class GrowingWorkload {
 public:
  GrowingWorkload(std::size_t target_users, std::size_t target_edges, std::uint64_t seed)
      : target_(target_users),
        target_edges_(target_edges),
        graph_(target_users),
        rng_(seed) {}

  smr::Command next() {
    if (created_ < target_ && (created_ < 64 || rng_.chance(0.4))) {
      smr::Command c;
      c.type = smr::CommandType::kCreate;
      c.write_set = {VarId{created_++}};
      return c;
    }
    if (graph_.edge_count() < target_edges_ || created_ < target_) {
      // Follow, friend-of-friend biased.
      const VarId u = VarId{rng_.below(created_)};
      VarId v = u;
      const auto& nbrs = graph_.neighbors(u);
      if (!nbrs.empty() && rng_.chance(0.8)) {
        const VarId w = nbrs[rng_.below(nbrs.size())];
        const auto& second = graph_.neighbors(w);
        if (!second.empty()) v = second[rng_.below(second.size())];
      } else {
        v = VarId{rng_.below(created_)};
      }
      if (v != u && v.value < created_ && !graph_.connected(u, v)) {
        graph_.add_edge(u, v);
        return chirper::make_follow(u, v);
      }
    }
    const VarId u = VarId{rng_.below(created_)};
    return chirper::make_post(u, graph_.neighbors(u), "growing up");
  }

 private:
  std::uint64_t target_;
  std::size_t target_edges_;
  std::uint64_t created_ = 0;
  workload::SocialGraph graph_;
  Rng rng_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dssmr::bench;

  RunRecordSink sink(argc, argv, "fig_dynamic_load");
  heading("E8: dynamic workload — create users + follow + post, repartition on-line");

  struct Outcome {
    std::vector<double> tput, moves;
    std::uint64_t creates = 0;
    std::uint64_t repartitionings = 0;
    stats::RunRecord rec;
  };
  const bool kVariants[] = {true, false};

  // Each variant builds its own deployment, so the two runs are independent
  // and can execute on sweep threads (--jobs 2); outputs are collected by
  // index and printed afterwards, identical to a serial run.
  auto outcomes = harness::parallel_map(2, sink.jobs(), [&](std::size_t vi) {
    const bool dynastar = kVariants[vi];
    harness::DeploymentConfig dep;
    dep.partitions = 4;
    dep.replicas_per_partition = 2;
    dep.oracle_replicas = 2;
    dep.clients = 32;
    dep.strategy = dynastar ? core::Strategy::kDynaStar : core::Strategy::kDssmr;
    dep.client_hints = dynastar;
    dep.oracle.oracle_issues_moves = dynastar;
    dep.node.rmcast_relay = false;
    dep.seed = 42;
    dep.trace = sink.trace_wanted();
    dep.spans = sink.spans_wanted();
    dep.telemetry = sink.telemetry_wanted();
    dep.telemetry_interval = sink.telemetry_interval();
    dep.spans_capacity = sink.spans_capacity();
    dep.batch_size = sink.batch_size();
    dep.batch_delay = sink.batch_delay();
    dep.pipeline_depth = sink.pipeline_depth();
    dep.prefetch_k = sink.prefetch_k();
    dep.cache_repair = sink.cache_repair();
    dep.elastic = !sink.scale_plan().empty();
    dep.oracle.elastic = dep.elastic;

    harness::PolicyFactory policy;
    if (dynastar) {
      core::DynaStarPolicy::Config pc;
      pc.repartition_every_hints = 1500;
      pc.partitioner.k = 4;
      policy = [pc] { return std::make_unique<core::DynaStarPolicy>(pc); };
    } else {
      policy = [] { return std::make_unique<core::DssmrPolicy>(); };
    }

    harness::Deployment d{dep, chirper::chirper_app_factory({usec(80), usec(5), usec(0)}),
                          std::move(policy)};
    d.start();
    d.settle();

    std::optional<fault::Nemesis> nemesis;
    if (!sink.nemesis().empty()) {
      nemesis.emplace(d, fault::resolve_plan(sink.nemesis()));
      nemesis->arm();
    }
    std::optional<fault::Scaler> scaler;
    if (!sink.scale_plan().empty()) {
      scaler.emplace(d, fault::resolve_scale_plan(sink.scale_plan()));
      scaler->arm();
    }

    GrowingWorkload wl{1500, /*target_edges=*/3000, 7};
    harness::ClosedLoopDriver driver{d, [&wl] { return wl.next(); }};
    driver.run(/*warmup=*/0, /*measure=*/sec(12));

    Outcome out;
    if (const auto* s = d.metrics().find_series("client.completions"); s != nullptr) {
      for (std::size_t i = 0; i < 12; ++i) out.tput.push_back(s->rate(i));
    }
    if (const auto* s = d.metrics().find_series("moves_ts"); s != nullptr) {
      for (std::size_t i = 0; i < 12; ++i) out.moves.push_back(s->rate(i));
    }
    out.creates = d.metrics().counter("oracle.creates");
    out.repartitionings = d.oracle(0).policy().repartition_count();

    out.rec.label = dynastar ? "dynastar" : "dssmr";
    out.rec.metrics = d.metrics();
    out.rec.add_meta("strategy", out.rec.label);
    out.rec.add_meta("partitions", std::to_string(dep.partitions));
    out.rec.add_meta("clients", std::to_string(dep.clients));
    out.rec.add_meta("seed", std::to_string(dep.seed));
    out.rec.add_meta("repartitionings", std::to_string(out.repartitionings));
    out.rec.add_meta("nemesis", sink.nemesis().empty() ? "none" : sink.nemesis());
    if (!sink.scale_plan().empty()) out.rec.add_meta("scale_plan", sink.scale_plan());
    sink.add_locality_meta(out.rec);
    return out;
  });

  for (std::size_t vi = 0; vi < 2; ++vi) {
    Outcome& out = outcomes[vi];
    subheading(kVariants[vi] ? "DynaStar-style oracle" : "DS-SMR oracle");
    print_series("tput(cps) ", out.tput);
    print_series("moves/s   ", out.moves);
    std::printf("users created: %llu, repartitionings: %llu\n",
                static_cast<unsigned long long>(out.creates),
                static_cast<unsigned long long>(out.repartitionings));
    sink.add(std::move(out.rec));
  }
  return sink.finish();
}
