// E4 — Convergence under strong locality (motivation figure, left column:
// throughput and moves over time on a perfectly partitionable workload).
//
// Post-only mix over perfectly partitionable communities (0% cross edges),
// hash-scattered initial placement, 4 partitions. Expected shape: the
// "perfect static" scheme (optimized placement, no moves) runs at peak from
// t=0; DS-SMR starts low and climbs as moves collocate communities, then
// moves drop to ~0; the DynaStar-style oracle converges faster (it computes
// the ideal partitioning from the workload graph instead of greedy moves).
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dssmr;
  using namespace dssmr::bench;
  using core::Strategy;
  using harness::ChirperRunConfig;
  using harness::Placement;

  RunRecordSink sink(argc, argv, "fig_convergence");
  heading("E4: throughput & moves over time, STRONG locality (0% edge cut), 4 partitions");

  struct Case {
    Strategy strategy;
    Placement placement;
    const char* label;
  };
  const Case kCases[] = {
      {Strategy::kStaticSsmr, Placement::kMetis, "perfect-static"},
      {Strategy::kDssmr, Placement::kHash, "DS-SMR"},
      {Strategy::kDynaStar, Placement::kHash, "DynaStar"},
  };

  std::vector<SweepPoint> points;
  for (const auto& c : kCases) {
    ChirperRunConfig cfg;
    cfg.strategy = c.strategy;
    cfg.placement = c.placement;
    cfg.partitions = 4;
    cfg.clients_per_partition = 8;
    cfg.graph = {.n = 2048, .m = 2, .p_triad = 0.8};
    cfg.use_controlled_cut = true;
    cfg.controlled_edge_cut = 0.0;
    cfg.workload.mix = workload::mixes::kPostOnly;
    cfg.workload.hint_posts = true;
    cfg.dynastar_hint_threshold = 1500;
    cfg.warmup = 0;
    cfg.measure = sec(12);
    cfg.seed = 42;
    sink.apply(cfg);
    points.push_back({cfg, c.label});
  }
  const auto results = run_points(sink, points);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    subheading(points[i].label);
    print_series("tput(cps) ", r.tput_series);
    print_series("moves/s   ", r.moves_series);
    std::printf("total moves: %llu\n",
                static_cast<unsigned long long>(r.counter("moves.total")));
  }
  return sink.finish();
}
