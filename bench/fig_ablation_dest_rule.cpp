// Ablation — DS-SMR move-destination rule.
//
// The paper's client algorithm only says "let P_d be one of the partitions
// in C.dests"; the choice matters enormously:
//  * most-held with a FIXED tie-break collapses all state onto one partition
//    on scattered placements (every near-tie resolves the same way);
//  * most-held with a hashed tie-break converges fast and stays balanced;
//  * random-involved is symmetric but converges slowly (more moves);
//  * least-loaded maximizes balance but keeps paying moves.
// This bench quantifies the difference on a mostly-partitionable workload,
// reporting throughput and how skewed the final variable placement is.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dssmr;
  using namespace dssmr::bench;
  using core::DssmrPolicy;

  RunRecordSink sink(argc, argv, "fig_ablation_dest_rule");
  heading("Ablation: DS-SMR move-destination rule (post-only, 4 partitions, 1% cut)");

  struct Case {
    DssmrPolicy::DestRule rule;
    const char* label;
  };
  const Case kCases[] = {
      {DssmrPolicy::DestRule::kMostHeld, "most-held (hashed ties)"},
      {DssmrPolicy::DestRule::kRandomInvolved, "random-involved"},
      {DssmrPolicy::DestRule::kLeastLoaded, "least-loaded"},
  };

  std::vector<SweepPoint> points;
  for (const auto& c : kCases) {
    harness::ChirperRunConfig cfg;
    cfg.strategy = core::Strategy::kDssmr;
    cfg.dssmr_dest_rule = c.rule;
    cfg.partitions = 4;
    cfg.clients_per_partition = 8;
    cfg.graph = {.n = 2048, .m = 2, .p_triad = 0.8};
    cfg.use_controlled_cut = true;
    cfg.controlled_edge_cut = 0.01;
    cfg.workload.mix = workload::mixes::kPostOnly;
    cfg.warmup = sec(4);
    cfg.measure = sec(3);
    cfg.seed = 42;
    sink.apply(cfg);
    points.push_back({cfg, c.label});
  }
  const auto results = run_points(sink, points);

  print_run_header();
  for (std::size_t i = 0; i < results.size(); ++i) {
    print_run_row(points[i].label, 4, results[i]);
  }
  std::printf("\n(watch the moves column: symmetric rules keep paying moves; the hashed\n"
              " most-held rule converges and stops)\n");
  return sink.finish();
}
