// E1 — Throughput scalability (DSN'16 Chirper scalability figure).
//
// Chirper on a Holme-Kim social graph; partitions 1/2/4/8; strategies:
// S-SMR with naive hash placement, S-SMR with optimized (metis-style)
// placement, and DS-SMR (hash initial placement). One table per command mix.
//
// Expected shape (the paper's): everything scales on Timeline (reads are
// always single-partition); on Post and Mix, S-SMR/hash collapses under
// multi-partition commands, the optimized static placement does much better,
// and DS-SMR approaches the optimized static scheme by moving co-accessed
// users together.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dssmr;
  using namespace dssmr::bench;
  using harness::ChirperRunConfig;
  using harness::Placement;
  using core::Strategy;

  RunRecordSink sink(argc, argv, "fig_throughput_scalability");
  heading("E1: Chirper throughput scalability (paper: DS-SMR vs S-SMR)");

  const workload::ChirperMix kMixes[] = {workload::mixes::kTimelineOnly,
                                         workload::mixes::kPostOnly,
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
    for (std::size_t parts : {1u, 2u, 4u, 8u}) {
      for (const auto& c : kCases) {
        ChirperRunConfig cfg;
        cfg.strategy = c.strategy;
        cfg.placement = c.placement;
        cfg.partitions = parts;
        cfg.clients_per_partition = 8;
        // Community-structured social graph with 1% cross-community edges —
        // the realistic mostly-partitionable regime the paper's social
        // graphs exhibit (weak-locality sweeps are E5/E6).
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
    for (std::size_t parts : {1u, 2u, 4u, 8u}) {
      for (const auto& c : kCases) print_run_row(c.label, parts, results[i++]);
    }
  }
  std::printf("\n(paper shape: near-linear scaling when commands are single-partition;\n"
              " multi-partition commands flatten S-SMR/hash; DS-SMR tracks the\n"
              " optimized static placement once converged)\n");
  return sink.finish();
}
