// E6 — Varying edge-cut sweep (the supplied text's "throughput and latency,
// varying edge-cuts for different partitioning sizes" figure).
//
// Edge-cut {0, 1, 5, 10}% x partitions {2, 4, 8} x strategies. Expected
// shape: at 0% everything scales; throughput decays as the cut grows; around
// 10% the move/coordination overhead cancels the benefit of extra
// partitions; DS-SMR degrades faster than the graph-driven oracle.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dssmr;
  using namespace dssmr::bench;
  using core::Strategy;
  using harness::ChirperRunConfig;
  using harness::Placement;

  RunRecordSink sink(argc, argv, "fig_edge_cut_sweep");
  heading("E6: throughput/latency vs edge-cut percentage");

  struct Case {
    Strategy strategy;
    Placement placement;
    const char* label;
  };
  const Case kCases[] = {
      {Strategy::kStaticSsmr, Placement::kMetis, "S-SMR/optimized"},
      {Strategy::kDssmr, Placement::kHash, "DS-SMR"},
      {Strategy::kDynaStar, Placement::kHash, "DynaStar"},
  };

  std::vector<SweepPoint> points;
  for (double cut : {0.0, 0.01, 0.05, 0.10}) {
    for (std::size_t parts : {2u, 4u, 8u}) {
      for (const auto& c : kCases) {
        ChirperRunConfig cfg;
        cfg.strategy = c.strategy;
        cfg.placement = c.placement;
        cfg.partitions = parts;
        cfg.clients_per_partition = 8;
        cfg.graph = {.n = 2048, .m = 2, .p_triad = 0.8};
        cfg.use_controlled_cut = true;
        cfg.controlled_edge_cut = cut;
        cfg.workload.mix = workload::mixes::kPostOnly;
        cfg.workload.hint_posts = true;
        cfg.dynastar_hint_threshold = 1500;
        cfg.warmup = sec(4);
        cfg.measure = sec(2);
        cfg.seed = 42;
        sink.apply(cfg);
        points.push_back({cfg, std::string(c.label) + "/cut" +
                                   std::to_string(static_cast<int>(cut * 100)) + "/p" +
                                   std::to_string(parts)});
      }
    }
  }
  const auto results = run_points(sink, points);

  std::size_t i = 0;
  for (double cut : {0.0, 0.01, 0.05, 0.10}) {
    subheading("edge cut " + std::to_string(static_cast<int>(cut * 100)) + "%");
    print_run_header();
    for (std::size_t parts : {2u, 4u, 8u}) {
      for (const auto& c : kCases) print_run_row(c.label, parts, results[i++]);
    }
  }
  return sink.finish();
}
