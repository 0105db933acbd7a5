// E3 — Latency CDF per strategy (DSN'16 latency-distribution figure).
//
// Post-only mix, 4 partitions. Expected shape: S-SMR/hash has a fat tail
// (multi-partition coordination on most posts); DS-SMR is bimodal — fast
// single-partition executions plus a move/retry tail; the optimized static
// scheme sits between.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dssmr;
  using namespace dssmr::bench;
  using core::Strategy;
  using harness::ChirperRunConfig;
  using harness::Placement;

  RunRecordSink sink(argc, argv, "fig_latency_cdf");
  heading("E3: Chirper latency CDF, post-only mix, 4 partitions");

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
  for (const auto& c : kCases) {
    ChirperRunConfig cfg;
    cfg.strategy = c.strategy;
    cfg.placement = c.placement;
    cfg.partitions = 4;
    cfg.clients_per_partition = 8;
    cfg.graph = {.n = 2048, .m = 2, .p_triad = 0.8};
    cfg.use_controlled_cut = true;
    cfg.controlled_edge_cut = 0.01;
    cfg.workload.mix = workload::mixes::kPostOnly;
    cfg.warmup = sec(3);
    cfg.measure = sec(3);
    cfg.seed = 42;
    sink.apply(cfg);
    points.push_back({cfg, c.label});
  }
  const auto results = run_points(sink, points);

  for (std::size_t i = 0; i < results.size(); ++i) {
    subheading(points[i].label);
    std::printf("%10s %10s\n", "lat(us)", "cdf");
    for (const auto& [value, fraction] : results[i].latency_hist.cdf(16)) {
      std::printf("%10lld %10.4f\n", static_cast<long long>(value), fraction);
    }
  }
  return sink.finish();
}
