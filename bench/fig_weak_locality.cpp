// E5 — Behaviour under weak locality (motivation figure, right column:
// throughput and moves over time when the state is NOT perfectly
// partitionable).
//
// Same setup as E4 but with 5% cross-community edges. Expected shape:
// DS-SMR keeps moving variables back and forth — the moves series never
// dries up and throughput stays unstable/depressed; the DynaStar-style
// oracle stabilizes (it only moves on demand toward a graph-partitioned
// ideal); the optimized static scheme is steady but pays for cross-partition
// posts.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dssmr;
  using namespace dssmr::bench;
  using core::Strategy;
  using harness::ChirperRunConfig;
  using harness::Placement;

  RunRecordSink sink(argc, argv, "fig_weak_locality");
  heading("E5: throughput & moves over time, WEAK locality (5% edge cut), 4 partitions");

  struct Case {
    Strategy strategy;
    Placement placement;
    const char* label;
  };
  const Case kCases[] = {
      {Strategy::kStaticSsmr, Placement::kMetis, "optimized-static"},
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
    cfg.controlled_edge_cut = 0.05;
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
    std::printf("total moves: %llu, retries: %llu, fallbacks: %llu\n",
                static_cast<unsigned long long>(r.counter("moves.total")),
                static_cast<unsigned long long>(r.counter("client.retries")),
                static_cast<unsigned long long>(r.counter("client.fallbacks")));
  }
  return sink.finish();
}
