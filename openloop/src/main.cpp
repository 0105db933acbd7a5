// Open-loop DS-SMR benchmark.
//
//   openloop_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans-out <path>]
//
// One workload per process, single-threaded. A run is a few repetitions
// (per workload), each with its own graph and seeds derived from --seed; each
// repetition drives the `lo` rate and then the `hi` rate, every phase on a
// freshly built stock harness::Deployment (DS-SMR, 4 partitions x 2
// replicas, 2 oracle replicas, 128 client proxies) fed by an open-loop
// Poisson generator. After every phase the arrival chain stops, the system
// drains and quiesces, and the correctness gate runs (audit_phase). The last
// stdout line is one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics: it forks a child that repeats the untraced pass in a fresh copy
// of the process (virtual results, events and allocations must repeat
// exactly), runs the untraced pass itself, then a traced pass (host spans,
// decorated factories, protocol phase spans) whose virtual results must
// equal the untraced ones.
//
// Exit status: 0 = every check passed, 1 = a correctness check failed,
// 2 = bad usage.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "chirper/chirper.h"
#include "core/mapping.h"
#include "decorators.h"
#include "fault/scale_plan.h"
#include "fault/scaler.h"
#include "harness/deployment.h"
#include "host_trace.h"
#include "open_loop.h"
#include "partition/partitioner.h"
#include "stats/histogram.h"
#include "stats/span.h"
#include "workload/chirper_workload.h"

namespace {

using namespace dssmr;
using openloop::HostTrace;
using openloop::SpanKind;

// ---- workloads ---------------------------------------------------------------

// Why each workload exists, its rates and its measured knee are recorded in
// openloop/README.md and BENCHMARK.json.
struct Workload {
  const char* name;
  /// Users asked for; the graph has users / communities per community.
  std::size_t users;
  double cross_fraction;
  bool metis;
  workload::ChirperMix mix;
  double zipf_theta;
  double lo_cps;
  double hi_cps;
  /// add-partition kScaleAt into each measurement window.
  bool scaleout;
  Duration warmup;
  /// Measurement window per phase at --seconds 10 (scaled linearly).
  Duration window_at_10s;
  std::size_t repetitions;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"post-local", 2000, 0.01, true, workload::mixes::kPostOnly, 0.0, 8000, 24000, false,
       sec(2), msec(1500), 4},
      {"timeline-hash", 20000, 0.05, false, workload::mixes::kTimelineHeavy, 0.8, 5000, 15000,
       false, sec(2), msec(2000), 4},
      // The rebalance tail varies more from graph to graph than the steady
      // state does, so this workload pools more, shorter repetitions.
      {"post-scaleout", 2000, 0.01, true, workload::mixes::kPostOnly, 0.0, 8000, 24000, true,
       sec(1), msec(2500), 6},
  };
  return all;
}

constexpr std::size_t kPartitions = 4;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kOracleReplicas = 2;
constexpr std::size_t kProxies = 128;
constexpr std::size_t kCommunitiesPerPartition = 16;
constexpr std::size_t kBacklogCap = 1 << 16;
constexpr Duration kScaleAt = sec(1);
/// The scale-out window must hold the add and the whole rebalance after it.
constexpr Duration kMinScaleoutWindow = msec(2500);
constexpr Duration kSlice = msec(10);
constexpr Duration kDrainLimit = sec(30);
constexpr Duration kQuiet = sec(1);

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---- host speed reference ------------------------------------------------------

/// A fixed, allocation-free, memory-bound probe (random read-modify-writes
/// over a table far larger than the private caches), timed between drive
/// slices. On a shared box the simulator's host speed moves by a third from
/// run to run with other tenants' memory traffic, and this probe slows down
/// with it. Each phase's host times are scaled by that phase's median probe
/// time to the probe's reference speed, so host_cmds_per_s and setup_s follow
/// the simulator's own cost more than the neighbours' load. The raw figures
/// are reported beside them.
class SpeedProbe {
 public:
  /// Probe time, in ns, that the reported host metrics are scaled to.
  static constexpr double kReferenceNs = 1.0e6;

  SpeedProbe() : table_(std::size_t{1} << 22) {}

  /// Runs the probe once and returns its host time in ns.
  double run() {
    const std::int64_t t0 = openloop::host_now_ns();
    std::uint64_t acc = 0;
    for (int i = 0; i < 40000; ++i) {
      x_ ^= x_ << 13;
      x_ ^= x_ >> 7;
      x_ ^= x_ << 17;
      std::uint64_t& slot = table_[x_ & (table_.size() - 1)];
      acc += slot;
      slot = x_ + acc;
    }
    table_[0] += acc;
    return static_cast<double>(openloop::host_now_ns() - t0);
  }

 private:
  std::vector<std::uint64_t> table_;
  std::uint64_t x_ = 88172645463325252ULL;
};

/// Probe every this many measurement-window slices (about 3% of window time).
constexpr std::size_t kProbeEverySlices = 4;

// ---- one drive phase -----------------------------------------------------------

/// Everything one (repetition, rate) phase produces. The virtual part is a
/// deterministic function of the seed; the host part is wall-clock time.
struct Phase {
  std::string rate;  // "lo" or "hi"
  std::size_t users = 0;
  // Virtual results.
  std::vector<std::int64_t> latencies;
  std::uint64_t arrivals = 0, ok = 0, nok = 0, refused = 0, unanswered = 0;
  std::uint64_t duplicate_dones = 0, backlog_max = 0;
  // Measurement-window counts.
  std::uint64_t window_completed = 0;
  std::uint64_t events = 0;
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t net_msgs = 0, net_bytes = 0, net_dropped = 0;
  double oracle_busy_us = 0;
  std::map<std::string, stats::Histogram> phase_hists;  // traced pass only
  std::vector<std::string> violations;
  std::uint64_t exec_calls = 0, policy_calls = 0;  // traced pass only
  // Host results.
  std::uint64_t allocs = 0;  // in the measurement window
  double graph_s = 0, partition_s = 0, deploy_s = 0, setup_s = 0;
  double window_wall_s = 0;
  double probe_ns = 0;  // median SpeedProbe time during the window

  std::uint64_t failed() const { return nok + refused + unanswered; }
  /// Host time of this phase scaled to the probe's reference speed.
  double at_reference(double host_s) const {
    return host_s * SpeedProbe::kReferenceNs / probe_ns;
  }
  std::uint64_t counter(const std::string& n) const {
    auto it = counters.find(n);
    return it == counters.end() ? 0 : it->second;
  }
};

/// Per-pass instrumentation: the host trace and the decorators' call counts.
struct Instruments {
  explicit Instruments(bool traced) : trace(traced) {}
  HostTrace trace;
  openloop::LayerCalls calls;
  openloop::OpenLoop* loop = nullptr;
  openloop::CommandKey key = [this](const smr::Command& c) {
    return loop != nullptr ? loop->arrival_of(c) : 0;
  };
};

std::map<std::string, std::uint64_t> counter_snapshot(harness::Deployment& d) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : d.metrics().counters()) out[name] = c.value();
  return out;
}

double busy_total(harness::Deployment& d) {
  const auto* s = d.metrics().find_series("oracle.busy_us");
  return s == nullptr ? 0.0 : s->total();
}

/// Runs one engine slice under a span; returns its host time in s.
double drive_slice(harness::Deployment& d, HostTrace& trace, Time until) {
  const std::int64_t t0 = openloop::host_now_ns();
  {
    HostTrace::Scope s(trace, SpanKind::kSlice);
    d.engine().run_until(until);
  }
  return static_cast<double>(openloop::host_now_ns() - t0) * 1e-9;
}

/// The correctness gate. Nothing here is loosened for any workload.
void audit_phase(harness::Deployment& d, const openloop::OpenLoop& loop,
                 const fault::Scaler* scaler, Phase& ph) {
  auto& v = ph.violations;
  if (!loop.drained()) {
    v.push_back(std::to_string(loop.unanswered()) +
                " commands unanswered at the drain deadline (done never fired)");
  }
  if (loop.duplicate_dones() != 0) {
    v.push_back(std::to_string(loop.duplicate_dones()) + " duplicate done invocations");
  }
  if (scaler != nullptr && !scaler->quiesced()) v.push_back("scale plan did not quiesce");
  for (std::string& s : d.audit_consistency()) v.push_back("audit: " + s);
  std::size_t owned = 0;
  for (std::size_t p = 0; p < d.partition_count(); ++p) owned += d.server(p, 0).owned_count();
  if (owned != ph.users) {
    v.push_back("partitions own " + std::to_string(owned) + " variables, expected " +
                std::to_string(ph.users));
  }
}

Phase run_phase(const Workload& w, bool hi, std::uint64_t rep_seed, Duration window,
                bool traced, Instruments& in, SpeedProbe& probe) {
  Phase ph;
  ph.rate = hi ? "hi" : "lo";
  HostTrace& trace = in.trace;
  const auto t_setup = std::chrono::steady_clock::now();

  // Social graph: Holme-Kim communities with a controlled cross-edge share.
  auto t = std::chrono::steady_clock::now();
  trace.open(SpanKind::kSetupGraph);
  Rng graph_rng{mix_seed(rep_seed, 1)};
  const std::size_t communities = kCommunitiesPerPartition * kPartitions;
  const workload::HolmeKimConfig per_community{
      .n = static_cast<std::uint32_t>(w.users / communities), .m = 2, .p_triad = 0.8};
  workload::SocialGraph graph = workload::SocialGraph::generate_communities(
      per_community, communities, w.cross_fraction, graph_rng);
  trace.close();
  ph.graph_s = seconds_since(t);
  ph.users = graph.user_count();

  t = std::chrono::steady_clock::now();
  trace.open(SpanKind::kSetupPartition);
  std::vector<std::uint32_t> part;
  if (w.metis) {
    partition::PartitionerConfig pcfg;
    pcfg.k = static_cast<std::uint32_t>(kPartitions);
    part = partition::partition_graph(graph.to_csr(), pcfg).part;
  } else {
    part = partition::hash_partition(graph.user_count(), kPartitions);
  }
  trace.close();
  ph.partition_s = seconds_since(t);

  t = std::chrono::steady_clock::now();
  trace.open(SpanKind::kSetupDeploy);
  harness::DeploymentConfig dep;
  dep.partitions = kPartitions;
  dep.replicas_per_partition = kReplicas;
  dep.oracle_replicas = kOracleReplicas;
  dep.clients = kProxies;
  dep.strategy = core::Strategy::kDssmr;
  dep.node.rmcast_relay = false;
  dep.seed = mix_seed(rep_seed, 2);
  dep.spans = traced;
  dep.spans_capacity = 1;  // phase histograms only; the span list is not needed
  dep.elastic = w.scaleout;
  dep.oracle.elastic = w.scaleout;
  smr::AppFactory app = chirper::chirper_app_factory({usec(80), usec(5), usec(0)});
  harness::PolicyFactory policy = [] { return std::make_unique<core::DssmrPolicy>(); };
  if (traced) {
    app = openloop::counting_app_factory(std::move(app), in.calls, trace, in.key);
    policy = openloop::counting_policy_factory(std::move(policy), in.calls, trace);
  }
  auto d = std::make_unique<harness::Deployment>(dep, std::move(app), std::move(policy));
  trace.close();
  ph.deploy_s = seconds_since(t);

  trace.open(SpanKind::kSetupPreload);
  d->reserve_vars(graph.user_count());
  for (std::size_t u = 0; u < graph.user_count(); ++u) {
    chirper::UserValue user;
    user.followers = graph.neighbors(VarId{u});
    user.following = user.followers;  // mutual-follow model
    d->preload_var(VarId{u}, d->partition_gid(part[u]), user);
  }
  d->start();
  trace.close();
  trace.open(SpanKind::kSetupSettle);
  d->settle();
  trace.close();
  ph.setup_s = seconds_since(t_setup);

  // Drive: warm-up, then the measurement window.
  sim::Engine& engine = d->engine();
  const Time start = engine.now();
  const Time window_start = start + w.warmup;
  const Time window_end = window_start + window;
  std::optional<fault::Scaler> scaler;
  if (w.scaleout) {
    const Duration at = w.warmup + kScaleAt;
    scaler.emplace(*d, fault::resolve_scale_plan("add-partition@" + std::to_string(at) + "us"));
    scaler->arm();
  }
  workload::ChirperWorkloadConfig wcfg;
  wcfg.mix = w.mix;
  wcfg.zipf_theta = w.zipf_theta;
  workload::ChirperWorkload wl{graph, wcfg, mix_seed(rep_seed, 3)};
  std::vector<core::ClientProxy*> proxies;
  for (std::size_t i = 0; i < d->client_count(); ++i) proxies.push_back(&d->client(i));
  openloop::OpenLoop loop{engine, std::move(proxies), [&wl] { return wl.next(); }, kBacklogCap,
                          traced ? &trace : nullptr};
  in.loop = &loop;
  loop.set_window(window_start, window_end);

  loop.start_poisson(hi ? w.hi_cps : w.lo_cps, mix_seed(rep_seed, hi ? 5 : 4), window_end);
  while (engine.now() < window_start) {
    drive_slice(*d, trace, std::min<Time>(engine.now() + kSlice, window_start));
  }

  // Per-command costs are counted over the measurement window only, so they
  // describe the warmed-up system.
  if (traced) d->metrics().spans().clear();
  const auto counters0 = counter_snapshot(*d);
  const net::NetworkStats net0 = d->network().stats();
  const double busy0 = busy_total(*d);
  const std::uint64_t events0 = engine.events_executed();
  const std::uint64_t allocs0 = openloop::allocation_count();
  const std::uint64_t completed0 = loop.completed();
  const openloop::LayerCalls calls0 = in.calls;
  std::vector<double> probes;
  for (std::size_t slices = 1; engine.now() < window_end; ++slices) {
    ph.window_wall_s += drive_slice(*d, trace, std::min<Time>(engine.now() + kSlice, window_end));
    if (slices % kProbeEverySlices == 0) probes.push_back(probe.run());
  }
  ph.allocs = openloop::allocation_count() - allocs0;
  ph.events = engine.events_executed() - events0;
  ph.window_completed = loop.completed() - completed0;
  ph.exec_calls = in.calls.execute - calls0.execute;
  ph.policy_calls = in.calls.policy - calls0.policy;
  for (const auto& [name, value] : counter_snapshot(*d)) {
    auto it = counters0.find(name);
    const std::uint64_t base = it == counters0.end() ? 0 : it->second;
    if (value != base) ph.counters[name] = value - base;
  }
  const net::NetworkStats& net1 = d->network().stats();
  ph.net_msgs = net1.messages_sent - net0.messages_sent;
  ph.net_bytes = net1.bytes_sent - net0.bytes_sent;
  ph.net_dropped = net1.messages_dropped - net0.messages_dropped;
  ph.oracle_busy_us = busy_total(*d) - busy0;
  if (traced) {
    const auto& spans = d->metrics().spans();
    ph.phase_hists["command"] = spans.phase_histogram(stats::SpanPhase::kCommand);
    for (stats::SpanPhase p : stats::kLatencyPhases) {
      ph.phase_hists[std::string(stats::to_string(p))] = spans.phase_histogram(p);
    }
  }
  if (probes.empty()) probes.push_back(probe.run());
  ph.probe_ns = median(probes);

  // Stop the arrival chain and drain.
  loop.stop();
  const Time drain_deadline = engine.now() + kDrainLimit;
  while (!loop.drained() && engine.now() < drain_deadline) {
    drive_slice(*d, trace, engine.now() + kSlice);
  }
  ph.latencies = loop.window_latencies();
  ph.arrivals = loop.arrivals();
  ph.ok = loop.ok();
  ph.nok = loop.nok();
  ph.refused = loop.refused();
  ph.unanswered = loop.unanswered();
  ph.duplicate_dones = loop.duplicate_dones();
  ph.backlog_max = loop.backlog_max();

  // Quiesce: the tick and timer chains never empty, so run for a fixed
  // virtual time (and until the scale plan has finished), then audit.
  engine.run_for(kQuiet);
  const Time quiesce_deadline = engine.now() + kDrainLimit;
  while (scaler && !scaler->quiesced() && engine.now() < quiesce_deadline) {
    engine.run_for(msec(5));
  }
  {
    HostTrace::Scope s(trace, SpanKind::kAudit);
    audit_phase(*d, loop, scaler ? &*scaler : nullptr, ph);
  }
  in.loop = nullptr;
  return ph;
}

// ---- passes ----------------------------------------------------------------------

struct Pass {
  std::vector<Phase> phases;
  double peak_rss_mb = 0;
};

Duration window_for(const Workload& w, int seconds) {
  const Duration win = w.window_at_10s * seconds / 10;
  return w.scaleout ? std::max(win, kMinScaleoutWindow) : win;
}

Pass run_pass(const Workload& w, std::uint64_t seed, int seconds, bool traced, Instruments& in,
              SpeedProbe& probe, bool verbose = true) {
  Pass pass;
  const Duration window = window_for(w, seconds);
  for (std::size_t rep = 0; rep < w.repetitions; ++rep) {
    const std::uint64_t rep_seed = mix_seed(seed, rep + 1);
    for (bool hi : {false, true}) {
      pass.phases.push_back(run_phase(w, hi, rep_seed, window, traced, in, probe));
      const Phase& ph = pass.phases.back();
      if (!verbose) continue;
      std::printf("%s rep %zu %s%s: %llu arrivals, %llu ok, %zu sampled, %.3f s setup, "
                  "%.2f s window, %zu violations\n",
                  w.name, rep, ph.rate.c_str(), traced ? " (traced)" : "",
                  static_cast<unsigned long long>(ph.arrivals),
                  static_cast<unsigned long long>(ph.ok), ph.latencies.size(), ph.setup_s,
                  ph.window_wall_s, ph.violations.size());
      for (const std::string& v : ph.violations) std::printf("  violation: %s\n", v.c_str());
      std::fflush(stdout);
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  pass.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return pass;
}

bool pass_correct(const Pass& p) {
  for (const Phase& ph : p.phases) {
    if (!ph.violations.empty()) return false;
  }
  return true;
}

/// Order-sensitive hash of a pass's virtual results (everything a seed
/// fixes), optionally with its allocation counts.
std::uint64_t fingerprint(const Pass& pass, bool with_allocs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](std::uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; };
  for (const Phase& ph : pass.phases) {
    for (std::int64_t l : ph.latencies) add(static_cast<std::uint64_t>(l));
    for (std::uint64_t x : {ph.arrivals, ph.ok, ph.nok, ph.refused, ph.unanswered,
                            ph.duplicate_dones, ph.backlog_max, ph.events, ph.net_msgs,
                            ph.net_bytes, ph.net_dropped, ph.window_completed,
                            static_cast<std::uint64_t>(ph.oracle_busy_us)}) {
      add(x);
    }
    for (const auto& [name, value] : ph.counters) {
      for (char c : name) add(static_cast<unsigned char>(c));
      add(value);
    }
    if (with_allocs) add(ph.allocs);
  }
  return h;
}

/// Runs the untraced pass in a forked copy of this process and returns its
/// fingerprint with allocations (nullopt if the child failed).
std::optional<std::uint64_t> fingerprint_in_child(const Workload& w, std::uint64_t seed,
                                                  int seconds, SpeedProbe& probe) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    Instruments plain{false};
    const std::uint64_t fp =
        fingerprint(run_pass(w, seed, seconds, false, plain, probe, false), true);
    const ssize_t n = write(fds[1], &fp, sizeof fp);
    _exit(n == static_cast<ssize_t>(sizeof fp) ? 0 : 1);
  }
  close(fds[1]);
  std::uint64_t fp = 0;
  const ssize_t n = read(fds[0], &fp, sizeof fp);
  close(fds[0]);
  int status = 0;
  pid_t waited = -1;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid || n != static_cast<ssize_t>(sizeof fp) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return fp;
}

// ---- summaries ---------------------------------------------------------------------

double quantile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

std::vector<std::int64_t> pooled_latencies(const Pass& pass, const std::string& rate) {
  std::vector<std::int64_t> all;
  for (const Phase& ph : pass.phases) {
    if (ph.rate == rate) all.insert(all.end(), ph.latencies.begin(), ph.latencies.end());
  }
  return all;
}

template <class F>
double sum_over(const Pass& pass, F f) {
  double s = 0;
  for (const Phase& ph : pass.phases) s += static_cast<double>(f(ph));
  return s;
}

template <class F>
double median_over(const Pass& pass, F f) {
  std::vector<double> v;
  for (const Phase& ph : pass.phases) v.push_back(static_cast<double>(f(ph)));
  return median(v);
}

/// Commands completed per host second in the measurement windows: raw, and
/// with each phase's time scaled to the probe's reference speed.
double raw_cmds_per_s(const Pass& p) {
  return sum_over(p, [](const Phase& ph) { return ph.window_completed; }) /
         sum_over(p, [](const Phase& ph) { return ph.window_wall_s; });
}
double reference_cmds_per_s(const Pass& p) {
  return sum_over(p, [](const Phase& ph) { return ph.window_completed; }) /
         sum_over(p, [](const Phase& ph) { return ph.at_reference(ph.window_wall_s); });
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void add_end_to_end(const Pass& a, std::vector<Metric>& out) {
  for (const char* rate : {"lo", "hi"}) {
    const auto lat = pooled_latencies(a, rate);
    out.push_back({std::string(rate) + ".p50_us", quantile(lat, 0.50), "us"});
    out.push_back({std::string(rate) + ".p99_us", quantile(lat, 0.99), "us"});
  }
  const double arrivals = sum_over(a, [](const Phase& p) { return p.arrivals; });
  const double failed = sum_over(a, [](const Phase& p) { return p.failed(); });
  const double completed = sum_over(a, [](const Phase& p) { return p.window_completed; });
  out.push_back({"served_frac", (arrivals - failed) / arrivals, "ratio"});
  out.push_back({"host_cmds_per_s", reference_cmds_per_s(a), "1/s"});
  out.push_back({"setup_s",
                 median_over(a, [](const Phase& p) { return p.at_reference(p.setup_s); }), "s"});
  out.push_back({"peak_rss_mb", a.peak_rss_mb, "MB"});
  out.push_back(
      {"events_per_cmd", sum_over(a, [](const Phase& p) { return p.events; }) / completed,
       "count"});
  out.push_back(
      {"allocs_per_cmd", sum_over(a, [](const Phase& p) { return p.allocs; }) / completed,
       "count"});
}

double hist_sum(const Pass& p, const std::string& phase) {
  double s = 0;
  for (const Phase& ph : p.phases) {
    auto it = ph.phase_hists.find(phase);
    if (it != ph.phase_hists.end()) {
      s += it->second.mean() * static_cast<double>(it->second.count());
    }
  }
  return s;
}

double hist_quantile(const Pass& p, const std::string& phase, double q) {
  stats::Histogram merged;
  for (const Phase& ph : p.phases) {
    auto it = ph.phase_hists.find(phase);
    if (it != ph.phase_hists.end()) merged.merge(it->second);
  }
  return static_cast<double>(merged.percentile(q));
}

/// Per-layer metrics, per command completed in the measurement windows.
/// Counts come from the untraced pass `a` (the traced pass is checked to
/// match it exactly); host times of calls, call counts of the decorated
/// factories and the phase histograms come from the traced pass.
void add_per_layer(const Pass& a, const Pass& traced, const Instruments& in, Duration window,
                   std::vector<Metric>& out) {
  const double completed = sum_over(a, [](const Phase& p) { return p.window_completed; });
  const double arrivals = sum_over(a, [](const Phase& p) { return p.arrivals; });
  auto ctr = [&a](const char* n) {
    return sum_over(a, [n](const Phase& p) { return p.counter(n); });
  };
  auto per_cmd = [&](const char* n) { return ctr(n) / completed; };
  const HostTrace& tr = in.trace;
  auto mean_ns = [&tr](SpanKind k) {
    const auto& t = tr.totals(k);
    return t.count == 0 ? 0.0 : static_cast<double>(t.total_ns) / static_cast<double>(t.count);
  };
  auto add = [&out](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };

  // harness: the generator
  double backlog_max = 0;
  for (const Phase& p : a.phases) backlog_max = std::max(backlog_max, double(p.backlog_max));
  add("gen.backlog_max", backlog_max, "count");
  add("gen.next_ns", mean_ns(SpanKind::kNext), "ns");
  add("lo.samples", static_cast<double>(pooled_latencies(a, "lo").size()), "count");
  add("hi.samples", static_cast<double>(pooled_latencies(a, "hi").size()), "count");
  add("failed_frac", sum_over(a, [](const Phase& p) { return p.failed(); }) / arrivals, "ratio");
  // workload / partition
  add("setup.graph_s", median_over(a, [](const Phase& p) { return p.graph_s; }), "s");
  add("setup.partition_s", median_over(a, [](const Phase& p) { return p.partition_s; }), "s");
  add("setup.deploy_s", median_over(a, [](const Phase& p) { return p.deploy_s; }), "s");
  // sim, and the host reference behind host_cmds_per_s and setup_s
  add("sim.host_ns_per_event",
      sum_over(a, [](const Phase& p) { return p.window_wall_s; }) * 1e9 /
          sum_over(a, [](const Phase& p) { return p.events; }),
      "ns");
  add("host.raw_cmds_per_s", raw_cmds_per_s(a), "1/s");
  add("host.raw_setup_s", median_over(a, [](const Phase& p) { return p.setup_s; }), "s");
  add("host.probe_ns", median_over(a, [](const Phase& p) { return p.probe_ns; }), "ns");
  // net
  add("net.msgs_per_cmd", sum_over(a, [](const Phase& p) { return p.net_msgs; }) / completed,
      "count");
  add("net.bytes_per_cmd", sum_over(a, [](const Phase& p) { return p.net_bytes; }) / completed,
      "B");
  add("net.dropped", sum_over(a, [](const Phase& p) { return p.net_dropped; }), "count");
  // multicast + consensus
  add("phase.amcast.p50_us", hist_quantile(traced, "amcast", 0.50), "us");
  add("phase.amcast.p99_us", hist_quantile(traced, "amcast", 0.99), "us");
  add("amcast.deliveries_per_cmd", per_cmd("amcast.delivered"), "count");
  add("multi_partition_frac", ctr("client.multi_partition") / ctr("client.ops"), "ratio");
  // core: oracle
  add("oracle.consults_per_cmd", per_cmd("oracle.consults"), "count");
  add("phase.consult.p50_us", hist_quantile(traced, "consult", 0.50), "us");
  add("oracle.busy_frac",
      sum_over(a, [](const Phase& p) { return p.oracle_busy_us; }) /
          (static_cast<double>(window) * static_cast<double>(a.phases.size())),
      "ratio");
  add("oracle.policy_calls_per_cmd",
      sum_over(traced, [](const Phase& p) { return p.policy_calls; }) / completed, "count");
  add("oracle.policy_ns", mean_ns(SpanKind::kPolicy), "ns");
  // core: client
  const double hits = ctr("client.cache_hits");
  add("client.cache_hit_frac", hits / (hits + ctr("client.consults")), "ratio");
  add("client.retries_per_cmd", per_cmd("client.retries"), "count");
  add("client.fallbacks", ctr("client.fallbacks"), "count");
  add("client.timeouts", ctr("client.timeouts"), "count");
  add("client.issue_ns", mean_ns(SpanKind::kIssue), "ns");
  // core: server (moves)
  add("moves_per_cmd", per_cmd("client.moves"), "count");
  add("moves.failed", ctr("server.moves_failed"), "count");
  add("phase.move.p50_us", hist_quantile(traced, "move", 0.50), "us");
  // smr / chirper
  add("phase.queue.p50_us", hist_quantile(traced, "queue", 0.50), "us");
  add("phase.queue.p99_us", hist_quantile(traced, "queue", 0.99), "us");
  add("phase.execute.p50_us", hist_quantile(traced, "execute", 0.50), "us");
  add("phase.reply.p50_us", hist_quantile(traced, "reply", 0.50), "us");
  add("phase.amcast_to_reply_share",
      (hist_sum(traced, "amcast") + hist_sum(traced, "queue") + hist_sum(traced, "execute") +
       hist_sum(traced, "reply")) /
          hist_sum(traced, "command"),
      "ratio");
  add("exec.calls_per_cmd",
      sum_over(traced, [](const Phase& p) { return p.exec_calls; }) / completed, "count");
  add("exec.ns_per_call", mean_ns(SpanKind::kExecute), "ns");
  // fault: elastic
  add("elastic.rebalance_vars", ctr("elastic.rebalance_vars"), "count");
  add("elastic.rebalance_moves", ctr("elastic.rebalance_moves"), "count");
  // stats: the tracing itself, both sides at the probe's reference speed
  add("trace.overhead_frac", reference_cmds_per_s(a) / reference_cmds_per_s(traced) - 1.0,
      "ratio");
  const auto& slices = tr.totals(SpanKind::kSlice);
  add("trace.protocol_self_frac",
      static_cast<double>(slices.self_ns) / static_cast<double>(slices.total_ns), "ratio");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << json_number(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

int usage(const std::string& msg) {
  std::fprintf(stderr,
               "openloop_bench: %s\nusage: openloop_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>]\nworkloads:",
               msg.c_str());
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, spans_out;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool traced_run = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      const long s = std::strtol(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || s < 1 || s > 600) return usage("--seconds takes 1..600");
      seconds = static_cast<int>(s);
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      traced_run = val == "1";
    } else if (arg == "--spans-out") {
      spans_out = val;
    } else {
      return usage("unknown flag " + arg);
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : workloads()) {
    if (workload_name == cand.name) w = &cand;
  }
  if (w == nullptr) return usage("unknown workload '" + workload_name + "'");

  SpeedProbe probe;
  std::optional<std::uint64_t> child_fp;
  if (traced_run) child_fp = fingerprint_in_child(*w, seed, seconds, probe);

  Instruments plain{false};
  const Pass a = run_pass(*w, seed, seconds, false, plain, probe);
  bool correct = pass_correct(a);
  const auto attempted =
      static_cast<std::uint64_t>(sum_over(a, [](const Phase& p) { return p.arrivals; }));
  const auto failed =
      static_cast<std::uint64_t>(sum_over(a, [](const Phase& p) { return p.failed(); }));

  std::vector<Metric> metrics;
  if (!traced_run) {
    add_end_to_end(a, metrics);
  } else {
    if (child_fp != fingerprint(a, true)) {
      std::printf("violation: a same-seed run in a fresh process did not repeat the virtual "
                  "results, events and allocations exactly\n");
      correct = false;
    }
    Instruments instrumented{true};
    const Pass traced = run_pass(*w, seed, seconds, true, instrumented, probe);
    correct = correct && pass_correct(traced);
    if (fingerprint(traced, false) != fingerprint(a, false)) {
      std::printf("violation: the traced pass changed the virtual results\n");
      correct = false;
    }
    add_per_layer(a, traced, instrumented, window_for(*w, seconds), metrics);
    if (!spans_out.empty() && !instrumented.trace.write_chrome_json(spans_out)) {
      std::fprintf(stderr, "openloop_bench: cannot write %s\n", spans_out.c_str());
    }
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
