// E2 — Latency under the same scalability sweep as E1 (DSN'16 latency
// figure): average and tail latency per strategy, partitions 2 and 8.
//
// Expected shape: single-partition workloads keep latency flat as partitions
// grow; multi-partition commands inflate S-SMR/hash sharply (every involved
// partition blocks on the slowest); DS-SMR pays moves during convergence but
// settles near the optimized static scheme.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dssmr;
  using namespace dssmr::bench;
  using core::Strategy;
  using harness::ChirperRunConfig;
  using harness::Placement;

  RunRecordSink sink(argc, argv, "fig_latency");
  heading("E2: Chirper latency (avg / p50 / p95 / p99, microseconds)");

  const workload::ChirperMix kMixes[] = {workload::mixes::kPostOnly,
                                         workload::mixes::kTimelineHeavy};
  struct StrategyCase {
    Strategy strategy;
    Placement placement;
    const char* label;
  };
  const StrategyCase kCases[] = {
      {Strategy::kStaticSsmr, Placement::kHash, "S-SMR/hash"},
      {Strategy::kStaticSsmr, Placement::kMetis, "S-SMR/optimized"},
      {Strategy::kDssmr, Placement::kHash, "DS-SMR"},
  };

  std::vector<SweepPoint> points;
  for (const auto& mix : kMixes) {
    for (std::size_t parts : {2u, 8u}) {
      for (const auto& c : kCases) {
        ChirperRunConfig cfg;
        cfg.strategy = c.strategy;
        cfg.placement = c.placement;
        cfg.partitions = parts;
        cfg.clients_per_partition = 8;
        cfg.graph = {.n = 2048, .m = 2, .p_triad = 0.8};
        cfg.use_controlled_cut = true;
        cfg.controlled_edge_cut = 0.01;
        cfg.workload.mix = mix;
        cfg.warmup = sec(3);
        cfg.measure = sec(3);
        cfg.seed = 42;
        sink.apply(cfg);
        points.push_back({cfg, std::string(c.label) + "/" + mix_name(mix) + "/p" +
                                   std::to_string(parts)});
      }
    }
  }
  const auto results = run_points(sink, points);

  std::size_t i = 0;
  for (const auto& mix : kMixes) {
    subheading(std::string("workload mix: ") + mix_name(mix));
    print_run_header();
    for (std::size_t parts : {2u, 8u}) {
      for (const auto& c : kCases) print_run_row(c.label, parts, results[i++]);
    }
  }
  std::printf("\n(paper shape: moves and cross-partition coordination dominate the tail;\n"
              " DS-SMR's average approaches the optimized static placement)\n");
  return sink.finish();
}
