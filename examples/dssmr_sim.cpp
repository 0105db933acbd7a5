// dssmr_sim — command-line experiment runner.
//
// Runs one Chirper experiment with the full stack and prints the measured
// throughput/latency/protocol counters; every knob of the evaluation is a
// flag. Useful for exploring configurations beyond the paper's grid.
//
//   ./build/examples/dssmr_sim --strategy=dssmr --partitions=4 --mix=post --edge-cut=0.05 --users=2048 --measure-s=4 --seed=7
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/experiment.h"

using namespace dssmr;

namespace {

struct Flags {
  std::string strategy = "dssmr";  // ssmr-hash | ssmr-metis | dssmr | dynastar
  std::string mix = "post";        // timeline | post | mix | follow
  std::size_t partitions = 4;
  std::size_t clients_per_partition = 8;
  std::uint32_t users = 2048;
  double edge_cut = 0.01;
  bool controlled_cut = true;
  double zipf = 0.0;
  int warmup_s = 3;
  int measure_s = 3;
  std::uint64_t seed = 42;
  bool cache = true;
  bool series = false;  // print per-second series too
};

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    out = arg + n + 1;
    return true;
  }
  return false;
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: dssmr_sim [--strategy=ssmr-hash|ssmr-metis|dssmr|dynastar]\n"
      "                 [--mix=timeline|post|mix|follow] [--partitions=N]\n"
      "                 [--clients=N(per partition)] [--users=N]\n"
      "                 [--edge-cut=F] [--random-graph] [--zipf=THETA]\n"
      "                 [--warmup-s=N] [--measure-s=N] [--seed=N]\n"
      "                 [--no-cache] [--series]\n");
  std::exit(2);
}

Flags parse(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (parse_flag(argv[i], "--strategy", v)) {
      f.strategy = v;
    } else if (parse_flag(argv[i], "--mix", v)) {
      f.mix = v;
    } else if (parse_flag(argv[i], "--partitions", v)) {
      f.partitions = std::strtoul(v.c_str(), nullptr, 10);
    } else if (parse_flag(argv[i], "--clients", v)) {
      f.clients_per_partition = std::strtoul(v.c_str(), nullptr, 10);
    } else if (parse_flag(argv[i], "--users", v)) {
      f.users = static_cast<std::uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (parse_flag(argv[i], "--edge-cut", v)) {
      f.edge_cut = std::strtod(v.c_str(), nullptr);
    } else if (parse_flag(argv[i], "--zipf", v)) {
      f.zipf = std::strtod(v.c_str(), nullptr);
    } else if (parse_flag(argv[i], "--warmup-s", v)) {
      f.warmup_s = std::atoi(v.c_str());
    } else if (parse_flag(argv[i], "--measure-s", v)) {
      f.measure_s = std::atoi(v.c_str());
    } else if (parse_flag(argv[i], "--seed", v)) {
      f.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--random-graph") == 0) {
      f.controlled_cut = false;
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      f.cache = false;
    } else if (std::strcmp(argv[i], "--series") == 0) {
      f.series = true;
    } else {
      usage();
    }
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags f = parse(argc, argv);

  harness::ChirperRunConfig cfg;
  if (f.strategy == "ssmr-hash") {
    cfg.strategy = core::Strategy::kStaticSsmr;
    cfg.placement = harness::Placement::kHash;
  } else if (f.strategy == "ssmr-metis") {
    cfg.strategy = core::Strategy::kStaticSsmr;
    cfg.placement = harness::Placement::kMetis;
  } else if (f.strategy == "dssmr") {
    cfg.strategy = core::Strategy::kDssmr;
  } else if (f.strategy == "dynastar") {
    cfg.strategy = core::Strategy::kDynaStar;
    cfg.workload.hint_posts = true;
  } else {
    usage();
  }

  if (f.mix == "timeline") {
    cfg.workload.mix = workload::mixes::kTimelineOnly;
  } else if (f.mix == "post") {
    cfg.workload.mix = workload::mixes::kPostOnly;
  } else if (f.mix == "mix") {
    cfg.workload.mix = workload::mixes::kTimelineHeavy;
  } else if (f.mix == "follow") {
    cfg.workload.mix = workload::mixes::kFollowChurn;
  } else {
    usage();
  }

  cfg.partitions = f.partitions;
  cfg.clients_per_partition = f.clients_per_partition;
  cfg.graph.n = f.users;
  cfg.use_controlled_cut = f.controlled_cut;
  cfg.controlled_edge_cut = f.edge_cut;
  cfg.workload.zipf_theta = f.zipf;
  cfg.warmup = sec(f.warmup_s);
  cfg.measure = sec(f.measure_s);
  cfg.seed = f.seed;
  cfg.client_cache = f.cache;

  std::printf("running %s, %zu partitions, mix=%s, users=%u, edge-cut=%s, seed=%llu...\n",
              f.strategy.c_str(), f.partitions, f.mix.c_str(), f.users,
              f.controlled_cut ? std::to_string(f.edge_cut).c_str() : "organic",
              static_cast<unsigned long long>(f.seed));
  const auto r = harness::run_chirper(cfg);

  std::printf("\nthroughput        : %.0f cps\n", r.throughput_cps);
  std::printf("latency avg       : %.0f us (p50 %lld, p95 %lld, p99 %lld)\n",
              r.latency_avg_us, static_cast<long long>(r.latency_p50_us),
              static_cast<long long>(r.latency_p95_us),
              static_cast<long long>(r.latency_p99_us));
  std::printf("ok / not-ok       : %llu / %llu\n", static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.nok));
  std::printf("placement edgecut : %.2f%%\n", 100.0 * r.placement_edge_cut);
  for (const char* c : {"moves.total", "client.retries", "client.fallbacks",
                        "client.consults", "client.cache_hits", "oracle.consults"}) {
    std::printf("%-18s: %llu\n", c, static_cast<unsigned long long>(r.counter(c)));
  }
  if (f.series) {
    std::printf("tput/s  :");
    for (double v : r.tput_series) std::printf(" %.0f", v);
    std::printf("\nmoves/s :");
    for (double v : r.moves_series) std::printf(" %.0f", v);
    std::printf("\n");
  }
  return 0;
}
