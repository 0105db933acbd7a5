// Wall-clock perf-regression suite (see EXPERIMENTS.md, "Perf suite").
//
// Runs a pinned set of hot-path benchmarks and emits BENCH_perf.json
// (schema dssmr.perf.v1): events/sec on the simulator engine, message
// throughput, map lookups, sampling, end-to-end simulated-commands/sec and
// the parallel-sweep speedup, plus peak RSS and wall time. CI runs
// `perf_suite --smoke --json` and tools/perf_compare.py diffs the result
// against the committed baseline with tolerance bands.
//
// The engine benchmarks also run against an embedded copy of the legacy
// event queue (binary heap of std::function + lazy-cancel hash set — the
// pre-optimization implementation), so the reported `speedup_vs_legacy`
// ratios are self-demonstrating on any machine rather than a claim about
// one historical measurement.
//
// Flags:
//   --smoke      shrink every benchmark (~seconds total; CI mode)
//   --json [p]   write the JSON report (default BENCH_perf.json)
//   --jobs N     thread count for the sweep benchmark (default 4)
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "common/types.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "net/network.h"
#include "sim/engine.h"
#include "stats/json_writer.h"
#include "workload/zipf.h"

namespace {

using namespace dssmr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() - t0)
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// The seed tree's event queue, kept verbatim in miniature: binary heap of
/// heap-allocated std::function callbacks, cancellation via an auxiliary
/// hash set consulted at pop time. Exists only as the denominator of
/// speedup_vs_legacy.
class LegacyEngine {
 public:
  using TimerId = std::uint64_t;

  TimerId schedule(Duration delay, std::function<void()> cb) {
    const TimerId id = next_id_++;
    heap_.push(Item{now_ + delay, seq_++, id, std::move(cb)});
    return id;
  }
  void cancel(TimerId id) { cancelled_.insert(id); }

  bool step() {
    while (!heap_.empty()) {
      Item item = heap_.top();
      heap_.pop();
      if (auto it = cancelled_.find(item.id); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = item.when;
      item.cb();
      return true;
    }
    return false;
  }
  void run() {
    while (step()) {
    }
  }

 private:
  struct Item {
    Time when;
    std::uint64_t seq;
    TimerId id;
    std::function<void()> cb;
    bool operator>(const Item& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap_;
  std::unordered_set<TimerId> cancelled_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  TimerId next_id_ = 1;
};

struct BenchResult {
  std::string name;
  double items_per_sec = 0;
  double wall_s = 0;
  /// Extra metric fields appended verbatim to the bench's JSON object.
  std::vector<std::pair<std::string, double>> extra;
};

struct IntPayload final : net::Tagged<net::Kind::kBenchInt> {
  std::int64_t v;
  explicit IntPayload(std::int64_t x) : v(x) {}
};

class CountingActor : public net::Actor {
 public:
  void on_message(ProcessId, const net::MessagePtr&) override { ++count; }
  std::uint64_t count = 0;
};

// --- engine -----------------------------------------------------------------

template <class EngineLike, class ScheduleFn, class StepFn>
double engine_fire_loop(EngineLike& engine, std::uint64_t iters, ScheduleFn schedule,
                        StepFn step) {
  // The capture mirrors the simulator's network-delivery callbacks
  // ([this, from, to, m] — four words). Anything beyond 16 bytes overflows
  // std::function's inline buffer, so the legacy engine pays an allocation
  // per event here exactly as it did per delivery in real runs.
  std::int64_t sink = 0;
  std::uint64_t from = 1, to = 2, payload = 3;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    schedule(engine, [&sink, from, to, payload] {
      sink += static_cast<std::int64_t>(from + to + payload) / 6;
    });
    step(engine);
  }
  const double wall = seconds_since(t0);
  if (sink != static_cast<std::int64_t>(iters)) std::abort();
  return wall;
}

BenchResult bench_engine_schedule_fire(std::uint64_t iters) {
  // Standing queue depth: a mid-size chirper run keeps thousands of timers
  // pending (per-client timeouts plus every in-flight network delivery), so
  // the schedule/fire path is exercised against a populated heap.
  constexpr int kStanding = 4096;

  sim::Engine engine;
  std::int64_t ballast = 0;
  for (int i = 0; i < kStanding; ++i) {
    engine.schedule(1'000'000'000 + i, [&ballast] { ++ballast; });
  }
  const double wall = engine_fire_loop(
      engine, iters, [](sim::Engine& e, auto cb) { e.schedule(0, std::move(cb)); },
      [](sim::Engine& e) { e.step(); });

  LegacyEngine legacy;
  std::int64_t ballast2 = 0;
  for (int i = 0; i < kStanding; ++i) {
    legacy.schedule(1'000'000'000 + i, [&ballast2] { ++ballast2; });
  }
  const double legacy_wall = engine_fire_loop(
      legacy, iters, [](LegacyEngine& e, auto cb) { e.schedule(0, std::move(cb)); },
      [](LegacyEngine& e) { e.step(); });

  BenchResult r{"engine.schedule_fire", static_cast<double>(iters) / wall, wall, {}};
  r.extra.emplace_back("legacy_items_per_sec", static_cast<double>(iters) / legacy_wall);
  r.extra.emplace_back("speedup_vs_legacy", legacy_wall / wall);
  return r;
}

BenchResult bench_engine_schedule_cancel(std::uint64_t iters) {
  constexpr int kBatch = 64;
  const std::uint64_t rounds = iters / kBatch;

  sim::Engine engine;
  std::int64_t sink = 0;
  auto t0 = Clock::now();
  for (std::uint64_t rd = 0; rd < rounds; ++rd) {
    sim::TimerId ids[kBatch];
    for (int i = 0; i < kBatch; ++i) {
      ids[i] = engine.schedule(1000 + i, [&sink] { ++sink; });
    }
    for (int i = 0; i < kBatch; ++i) engine.cancel(ids[i]);
    engine.run();
  }
  const double wall = seconds_since(t0);

  LegacyEngine legacy;
  t0 = Clock::now();
  for (std::uint64_t rd = 0; rd < rounds; ++rd) {
    LegacyEngine::TimerId ids[kBatch];
    for (int i = 0; i < kBatch; ++i) {
      ids[i] = legacy.schedule(1000 + i, [&sink] { ++sink; });
    }
    for (int i = 0; i < kBatch; ++i) legacy.cancel(ids[i]);
    legacy.run();
  }
  const double legacy_wall = seconds_since(t0);
  if (sink != 0) std::abort();

  const auto items = static_cast<double>(rounds * kBatch);
  BenchResult r{"engine.schedule_cancel", items / wall, wall, {}};
  r.extra.emplace_back("legacy_items_per_sec", items / legacy_wall);
  r.extra.emplace_back("speedup_vs_legacy", legacy_wall / wall);
  return r;
}

// --- network ----------------------------------------------------------------

BenchResult bench_network_multisend(std::uint64_t iters) {
  constexpr std::size_t kFanout = 16;
  sim::Engine engine;
  net::Network network{engine, {}, 1};
  CountingActor sender;
  const ProcessId from = network.add_process(sender, 0);
  std::vector<std::unique_ptr<CountingActor>> actors;
  std::vector<ProcessId> dests;
  for (std::size_t i = 0; i < kFanout; ++i) {
    actors.push_back(std::make_unique<CountingActor>());
    dests.push_back(network.add_process(*actors.back(), static_cast<int>(i % 2)));
  }
  const auto msg = net::make_msg<IntPayload>(7);
  const std::uint64_t rounds = iters / kFanout;
  const auto t0 = Clock::now();
  for (std::uint64_t rd = 0; rd < rounds; ++rd) {
    network.multisend(from, dests, msg);
    engine.run();
  }
  const double wall = seconds_since(t0);
  return {"network.multisend", static_cast<double>(rounds * kFanout) / wall, wall, {}};
}

// --- mapping ----------------------------------------------------------------

BenchResult bench_mapping_locate(std::uint64_t iters) {
  constexpr std::size_t kVars = 100'000;
  common::FlatMap<VarId, GroupId> map;
  map.reserve(kVars);
  for (std::size_t i = 0; i < kVars; ++i) {
    map[VarId{i}] = GroupId{static_cast<std::uint32_t>(i & 7)};
  }
  Rng rng{11};
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc += map.find(VarId{rng.below(kVars)})->second.value;
  }
  const double wall = seconds_since(t0);
  if (acc == ~0ull) std::abort();  // keep `acc` observable
  return {"mapping.locate", static_cast<double>(iters) / wall, wall, {}};
}

// --- locality ---------------------------------------------------------------

// Mirrors ClientProxy's prophecy-install hot path (apply_repair /
// install_prefetch): epoch-gated upserts into the flat-map location cache and
// its parallel per-variable metadata map, one prophecy's worth of entries at a
// time. The epoch mix deliberately includes stale entries so the monotone
// drop-stale branch is exercised, and a cached_epoch-style lookup pass keeps
// the read side honest.
BenchResult bench_prophecy_apply(std::uint64_t iters) {
  constexpr std::size_t kVars = 100'000;
  constexpr std::size_t kBatch = 8;  // one prophecy's locations + prefetch
  struct VarMeta {
    std::uint64_t epoch = 0;
    bool prefetched = false;
  };
  common::FlatMap<VarId, GroupId> cache;
  common::FlatMap<VarId, VarMeta> meta;
  cache.reserve(kVars);
  meta.reserve(kVars);

  Rng rng{17};
  smr::RepairEntry batch[kBatch];
  std::uint64_t installed = 0;
  const std::uint64_t rounds = iters / kBatch;
  const auto t0 = Clock::now();
  for (std::uint64_t rd = 0; rd < rounds; ++rd) {
    for (auto& e : batch) {
      e.var = VarId{rng.below(kVars)};
      e.loc = GroupId{static_cast<std::uint32_t>(rng.below(8))};
      e.epoch = 1 + rng.below(4);  // mix of stale and fresh epochs
    }
    for (const auto& e : batch) {
      VarMeta& m = meta[e.var];
      if (e.epoch <= m.epoch) continue;  // monotone: stale repairs are dropped
      m.epoch = e.epoch;
      m.prefetched = true;
      cache[e.var] = e.loc;
      ++installed;
    }
  }
  const double wall = seconds_since(t0);

  // cached_epoch()-style read pass over the warmed maps.
  Rng rng2{18};
  std::uint64_t acc = 0;
  const auto t1 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const auto it = meta.find(VarId{rng2.below(kVars)});
    acc += it != meta.end() ? it->second.epoch : 0;
  }
  const double lookup_wall = seconds_since(t1);
  if (acc == ~0ull || installed == 0) std::abort();

  const auto items = static_cast<double>(rounds * kBatch);
  BenchResult r{"locality.prophecy_apply", items / wall, wall, {}};
  r.extra.emplace_back("installed_fraction", static_cast<double>(installed) / items);
  r.extra.emplace_back("epoch_lookups_per_sec", static_cast<double>(iters) / lookup_wall);
  return r;
}

// --- workload ---------------------------------------------------------------

BenchResult bench_zipf_sample(std::uint64_t iters) {
  workload::Zipf zipf{100'000, 0.99};
  Rng rng{13};
  std::uint64_t acc = 0;
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) acc += zipf.sample(rng);
  const double wall = seconds_since(t0);

  Rng rng2{13};
  t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) acc += zipf.sample_cdf(rng2);
  const double cdf_wall = seconds_since(t0);
  if (acc == ~0ull) std::abort();

  BenchResult r{"zipf.sample", static_cast<double>(iters) / wall, wall, {}};
  r.extra.emplace_back("cdf_items_per_sec", static_cast<double>(iters) / cdf_wall);
  r.extra.emplace_back("speedup_vs_cdf", cdf_wall / wall);
  return r;
}

// --- end-to-end -------------------------------------------------------------

harness::ChirperRunConfig small_chirper(bool smoke, std::uint64_t seed) {
  harness::ChirperRunConfig cfg;
  cfg.partitions = 2;
  cfg.clients_per_partition = 4;
  cfg.graph = {.n = 512, .m = 2, .p_triad = 0.8};
  cfg.use_controlled_cut = true;
  cfg.controlled_edge_cut = 0.01;
  cfg.workload.mix = workload::mixes::kTimelineHeavy;
  cfg.warmup = smoke ? msec(200) : sec(1);
  cfg.measure = smoke ? msec(400) : sec(2);
  cfg.seed = seed;
  return cfg;
}

BenchResult bench_chirper_small(bool smoke) {
  const auto cfg = small_chirper(smoke, 42);
  const auto t0 = Clock::now();
  const harness::RunResult r = harness::run_chirper(cfg);
  const double wall = seconds_since(t0);
  const double commands = static_cast<double>(r.ok + r.nok);
  BenchResult b{"chirper.small", commands / wall, wall, {}};
  b.extra.emplace_back("throughput_cps", r.throughput_cps);
  b.extra.emplace_back(
      "sim_time_ratio",
      (static_cast<double>(cfg.warmup + cfg.measure) / 1e6) / wall);
  return b;
}

// Recorder-on/off pair on the same config and seed: the off run is the
// denominator, so `overhead_pct` directly states the flight-recorder's
// wall-clock cost (and `counters_identical` re-checks the behavior-neutral
// promise under perf-suite load). tools/perf_compare.py warns when the
// overhead drifts.
BenchResult bench_chirper_telemetry(bool smoke) {
  auto cfg = small_chirper(smoke, 42);

  auto t0 = Clock::now();
  const harness::RunResult off = harness::run_chirper(cfg);
  const double off_wall = seconds_since(t0);

  cfg.telemetry = true;
  cfg.telemetry_interval = msec(100);
  t0 = Clock::now();
  const harness::RunResult on = harness::run_chirper(cfg);
  const double on_wall = seconds_since(t0);

  if (off.counters != on.counters || off.ok != on.ok || off.nok != on.nok) {
    std::fprintf(stderr, "FATAL: telemetry changed simulation results\n");
    std::exit(1);
  }

  const double commands = static_cast<double>(on.ok + on.nok);
  BenchResult r{"chirper.telemetry", commands / on_wall, on_wall, {}};
  r.extra.emplace_back("off_wall_s", off_wall);
  r.extra.emplace_back("overhead_pct", (on_wall / off_wall - 1.0) * 100.0);
  r.extra.emplace_back("gauge_samples",
                       static_cast<double>(on.metrics.recorder().tick_times().size()));
  r.extra.emplace_back("counters_identical", 1.0);
  return r;
}

// Batching-on/off pair on the same config and seed: the unbatched run is the
// denominator, so `speedup_vs_unbatched` directly states what command
// batching plus consensus pipelining buys on the hot path. The workload is
// post-only (the paper's scalability experiments focus on posts — the
// multi-partition command) with a 30% edge cut, so a large share of commands
// multicast to both groups and batching amortizes the per-command Skeen
// timestamp exchange, Paxos instances and submit fan-out.
//
// Two ratios are reported: `speedup_vs_unbatched` (wall-clock, noisy on
// shared runners) and `event_ratio` (simulator events per command, fully
// deterministic — same seed, same number). tools/perf_compare.py enforces a
// hard >= 1.5 floor on both; event_ratio is the load-bearing one.
BenchResult bench_chirper_batched(bool smoke) {
  auto cfg = small_chirper(smoke, 42);
  cfg.clients_per_partition = 16;
  cfg.controlled_edge_cut = 0.3;
  cfg.workload.mix = workload::mixes::kPostOnly;
  cfg.workload.mix = workload::mixes::kPostOnly;
  cfg.workload.zipf_theta = 0.8;
  cfg.client_cache = false;

  // Rates use the drive-phase wall clock (setup — graph build, partitioning,
  // preload — is identical for both runs and would only dilute the ratio).
  const harness::RunResult off = harness::run_chirper(cfg);
  const double off_wall = off.drive_wall_s;

  cfg.batch_size = 16;
  cfg.batch_delay = usec(1000);
  cfg.pipeline_depth = 8;
  const harness::RunResult on = harness::run_chirper(cfg);
  const double on_wall = on.drive_wall_s;

  double flushes = 0;
  double entries = 0;
  for (const auto& [name, c] : on.metrics.counters()) {
    if (name == "batch.flushes") flushes = static_cast<double>(c.value());
    if (name == "batch.entries") entries = static_cast<double>(c.value());
  }

  const auto ev_per_cmd = [](const harness::RunResult& r) {
    const double ops = static_cast<double>(r.counter("client.ops"));
    return ops > 0 ? static_cast<double>(r.events_executed) / ops : 0.0;
  };
  const double on_ev = ev_per_cmd(on);
  const double off_ev = ev_per_cmd(off);

  const double on_rate = static_cast<double>(on.ok + on.nok) / on_wall;
  const double off_rate = static_cast<double>(off.ok + off.nok) / off_wall;
  BenchResult r{"chirper.batched", on_rate, on_wall, {}};
  r.extra.emplace_back("throughput_cps", on.throughput_cps);
  r.extra.emplace_back("unbatched_throughput_cps", off.throughput_cps);
  r.extra.emplace_back("unbatched_items_per_sec", off_rate);
  r.extra.emplace_back("speedup_vs_unbatched", on_rate / off_rate);
  r.extra.emplace_back("events_per_command", on_ev);
  r.extra.emplace_back("unbatched_events_per_command", off_ev);
  r.extra.emplace_back("event_ratio", on_ev > 0 ? off_ev / on_ev : 0.0);
  r.extra.emplace_back("mean_batch_entries", flushes > 0 ? entries / flushes : 0.0);
  return r;
}

// Locality-on/off pair on the same config and seed: the off run is the
// denominator, so the ratios directly state what the locality fast path
// (prophecy prefetch + piggybacked cache repair) buys. The
// workload is a larger graph with a 20% edge cut so clients pay real cold
// consults and cross-partition commands trigger moves, retries and cache
// invalidations — the traffic prefetch and repair exist to absorb.
//
// Three ratios are reported: `consult_ratio` (oracle consults per command,
// off/on — fully deterministic, same seed same number), `event_ratio`
// (simulator events per command, off/on, also deterministic) and
// `throughput_ratio` (simulated commands/sec, on/off). tools/perf_compare.py
// enforces hard floors: consult_ratio >= 2 and event_ratio >= 1, with
// throughput no worse; consult_ratio is the load-bearing one.
BenchResult bench_chirper_locality(bool smoke) {
  auto cfg = small_chirper(smoke, 42);
  cfg.graph = {.n = 1024, .m = 2, .p_triad = 0.8};
  cfg.placement = harness::Placement::kMetis;
  cfg.controlled_edge_cut = 0.01;
  cfg.clients_per_partition = 4;
  cfg.workload.mix = workload::mixes::kPostOnly;
  cfg.workload.zipf_theta = 0.8;

  const harness::RunResult off = harness::run_chirper(cfg);

  cfg.prefetch_k = 64;
  cfg.cache_repair = true;
  const harness::RunResult on = harness::run_chirper(cfg);
  const double on_wall = on.drive_wall_s;

  const auto per_cmd = [](const harness::RunResult& r, std::uint64_t num) {
    const double ops = static_cast<double>(r.counter("client.ops"));
    return ops > 0 ? static_cast<double>(num) / ops : 0.0;
  };
  const double on_consults = per_cmd(on, on.counter("client.consults"));
  const double off_consults = per_cmd(off, off.counter("client.consults"));
  const double on_ev = per_cmd(on, on.events_executed);
  const double off_ev = per_cmd(off, off.events_executed);

  BenchResult r{"chirper.locality",
                static_cast<double>(on.ok + on.nok) / on_wall, on_wall, {}};
  r.extra.emplace_back("throughput_cps", on.throughput_cps);
  r.extra.emplace_back("off_throughput_cps", off.throughput_cps);
  r.extra.emplace_back("throughput_ratio",
                       off.throughput_cps > 0 ? on.throughput_cps / off.throughput_cps : 0.0);
  r.extra.emplace_back("consults_per_command", on_consults);
  r.extra.emplace_back("off_consults_per_command", off_consults);
  r.extra.emplace_back("consult_ratio", on_consults > 0 ? off_consults / on_consults : 0.0);
  r.extra.emplace_back("events_per_command", on_ev);
  r.extra.emplace_back("off_events_per_command", off_ev);
  r.extra.emplace_back("event_ratio", on_ev > 0 ? off_ev / on_ev : 0.0);
  r.extra.emplace_back("prefetch_hits", static_cast<double>(on.counter("locality.prefetch_hits")));
  r.extra.emplace_back("repairs", static_cast<double>(on.counter("locality.repairs")));
  r.extra.emplace_back("repair_reroutes",
                       static_cast<double>(on.counter("locality.repair_reroutes")));
  return r;
}

// Elasticity-on/off pair on the same config and seed: the off run has no
// scale plan, the on run boots a third partition via `add-partition` with the
// event placed inside the warmup window, so by the time the measured window
// opens the membership record is delivered and the chunked rebalance has
// settled — the pair compares steady states, not the rebalance transient.
//
// `throughput_ratio` (on/off, simulated commands/sec, deterministic per seed)
// is the load-bearing number: tools/perf_compare.py enforces a hard >= 0.95
// floor, i.e. running elastic must never cost more than 5% of steady-state
// throughput (it usually gains — a third partition shares the load).
BenchResult bench_chirper_elastic(bool smoke) {
  auto cfg = small_chirper(smoke, 42);
  cfg.clients_per_partition = 8;

  const harness::RunResult off = harness::run_chirper(cfg);

  cfg.scale_plan = smoke ? "add-partition@50ms" : "add-partition@250ms";
  const harness::RunResult on = harness::run_chirper(cfg);
  const double on_wall = on.drive_wall_s;

  BenchResult r{"chirper.elastic",
                static_cast<double>(on.ok + on.nok) / on_wall, on_wall, {}};
  r.extra.emplace_back("throughput_cps", on.throughput_cps);
  r.extra.emplace_back("off_throughput_cps", off.throughput_cps);
  r.extra.emplace_back("throughput_ratio",
                       off.throughput_cps > 0 ? on.throughput_cps / off.throughput_cps : 0.0);
  r.extra.emplace_back("partitions_added",
                       static_cast<double>(on.counter("elastic.partitions_added")));
  r.extra.emplace_back("rebalance_moves",
                       static_cast<double>(on.counter("elastic.rebalance_moves")));
  r.extra.emplace_back("rebalance_vars",
                       static_cast<double>(on.counter("elastic.rebalance_vars")));
  return r;
}

BenchResult bench_sweep_parallel(bool smoke, std::size_t jobs) {
  std::vector<harness::ChirperRunConfig> cfgs;
  for (std::uint64_t s = 0; s < 4; ++s) cfgs.push_back(small_chirper(smoke, 40 + s));

  auto t0 = Clock::now();
  const auto serial = harness::run_sweep(cfgs, 1);
  const double serial_wall = seconds_since(t0);

  t0 = Clock::now();
  const auto parallel = harness::run_sweep(cfgs, jobs);
  const double parallel_wall = seconds_since(t0);

  bool identical = serial.size() == parallel.size();
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = serial[i].counters == parallel[i].counters &&
                serial[i].ok == parallel[i].ok && serial[i].nok == parallel[i].nok;
  }
  if (!identical) {
    std::fprintf(stderr, "FATAL: parallel sweep diverged from serial results\n");
    std::exit(1);
  }

  BenchResult r{"sweep.parallel", static_cast<double>(cfgs.size()) / parallel_wall,
                parallel_wall, {}};
  r.extra.emplace_back("serial_wall_s", serial_wall);
  r.extra.emplace_back("speedup", serial_wall / parallel_wall);
  r.extra.emplace_back("jobs", static_cast<double>(jobs));
  r.extra.emplace_back("results_identical", 1.0);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  std::size_t jobs = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : "BENCH_perf.json";
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::atoll(argv[++i]));
      if (jobs == 0) jobs = 1;
    } else {
      std::fprintf(stderr, "usage: perf_suite [--smoke] [--json [path]] [--jobs N]\n");
      return 2;
    }
  }

  const std::uint64_t kIters = smoke ? 400'000 : 4'000'000;
  const auto suite_t0 = Clock::now();

  std::vector<BenchResult> results;
  results.push_back(bench_engine_schedule_fire(kIters));
  results.push_back(bench_engine_schedule_cancel(kIters));
  results.push_back(bench_network_multisend(kIters));
  results.push_back(bench_mapping_locate(kIters));
  results.push_back(bench_prophecy_apply(kIters));
  results.push_back(bench_zipf_sample(kIters));
  results.push_back(bench_chirper_small(smoke));
  results.push_back(bench_chirper_telemetry(smoke));
  results.push_back(bench_chirper_batched(smoke));
  results.push_back(bench_chirper_locality(smoke));
  results.push_back(bench_chirper_elastic(smoke));
  results.push_back(bench_sweep_parallel(smoke, jobs));

  const double total_wall = seconds_since(suite_t0);

  std::printf("%-24s %16s %10s\n", "bench", "items/sec", "wall(s)");
  for (const BenchResult& r : results) {
    std::printf("%-24s %16.0f %10.3f\n", r.name.c_str(), r.items_per_sec, r.wall_s);
    for (const auto& [k, v] : r.extra) std::printf("  %-22s %16.2f\n", k.c_str(), v);
  }
  std::printf("%-24s %27.3f\n", "total", total_wall);
  std::printf("%-24s %24.1fMB\n", "peak rss", peak_rss_mb());

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    stats::JsonWriter w(os);
    w.begin_object();
    w.field("schema", "dssmr.perf.v1");
    w.field("smoke", smoke);
    w.field("jobs", static_cast<std::uint64_t>(jobs));
    w.field("total_wall_s", total_wall);
    w.field("peak_rss_mb", peak_rss_mb());
    w.key("benches");
    w.begin_array();
    for (const BenchResult& r : results) {
      w.begin_object();
      w.field("name", r.name);
      w.field("items_per_sec", r.items_per_sec);
      w.field("wall_s", r.wall_s);
      for (const auto& [k, v] : r.extra) w.field(k, v);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
