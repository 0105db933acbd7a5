// Shared helpers for the figure-regeneration binaries: table formatting plus
// the --json/--trace machine-readable outputs (see EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/scale_plan.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "stats/run_record.h"
#include "stats/span_export.h"

namespace dssmr::bench {

/// Parsed value of every bench flag (see kFlags for what each one does).
/// parse_flags sets the numeric defaults from kFlags.
struct BenchOptions {
  std::string json;
  std::string trace;
  std::string trace_chrome;
  std::string nemesis;
  std::string scale_plan;
  bool telemetry = false;
  bool cache_repair = false;
  std::int64_t jobs = 0;
  std::int64_t telemetry_interval = 0;
  std::int64_t batch_size = 0;
  std::int64_t batch_delay = 0;
  std::int64_t pipeline_depth = 0;
  std::int64_t prefetch_k = 0;
};

/// What a flag takes. The kind fixes the usage syntax, how the argument
/// parses and the message a bad one prints.
enum class FlagArg {
  kNone,       // switch
  kPath,       // optional output path; given bare, the default (<exp> = experiment)
  kThreads,    // integer > 0
  kCount,      // integer >= 0
  kMicros,     // integer > 0, virtual-time microseconds
  kFaultPlan,  // shipped plan name or fault-plan DSL (fault/fault_plan.h)
  kScalePlan,  // shipped plan name or scale-plan DSL (fault/scale_plan.h)
};

/// Usage-text syntax of a flag's argument ("" for a switch).
inline const char* flag_syntax(FlagArg arg) {
  switch (arg) {
    case FlagArg::kNone:
      return "";
    case FlagArg::kPath:
      return "[path]";
    case FlagArg::kThreads:
      return "N";
    case FlagArg::kCount:
      return "<n>";
    case FlagArg::kMicros:
      return "<us>";
    case FlagArg::kFaultPlan:
    case FlagArg::kScalePlan:
      return "<plan>";
  }
  return "";
}

/// What a malformed argument lacks: "<flag> needs <this>".
inline const char* flag_needs(FlagArg arg) {
  switch (arg) {
    case FlagArg::kThreads:
      return "a positive thread count";
    case FlagArg::kCount:
      return "a non-negative count";
    case FlagArg::kMicros:
      return "a positive microsecond count";
    case FlagArg::kFaultPlan:
      return "a plan name or fault-plan spec";
    case FlagArg::kScalePlan:
      return "a plan name or scale-plan spec";
    case FlagArg::kNone:
    case FlagArg::kPath:
      break;
  }
  return "";
}

using BoolField = bool BenchOptions::*;
using TextField = std::string BenchOptions::*;
using NumberField = std::int64_t BenchOptions::*;

/// One row of the flag table.
struct Flag {
  const char* name;
  FlagArg arg;
  /// Value when the flag is absent (numbers) or given without a path (paths).
  const char* def;
  const char* help;
  std::variant<BoolField, TextField, NumberField> field;
  /// Switch that a valid occurrence of this flag also turns on.
  BoolField implies = nullptr;
};

/// The flags shared by every fig_* binary, in usage-text order.
/// tools/check_docs.py reads the flag names from this table and requires
/// each one in the README flag table.
inline const Flag kFlags[] = {
    {"--json", FlagArg::kPath, "BENCH_<exp>.json", "write a run-record JSON file",
     &BenchOptions::json},
    {"--jobs", FlagArg::kThreads, "1",
     "run sweep points on N threads; output is byte-identical to --jobs 1", &BenchOptions::jobs},
    {"--trace", FlagArg::kPath, "TRACE_<exp>.jsonl", "enable event tracing and dump JSON Lines",
     &BenchOptions::trace},
    {"--trace-chrome", FlagArg::kPath, "CHROME_<exp>.json",
     "enable span tracing and write a Chrome trace_event file", &BenchOptions::trace_chrome},
    {"--nemesis", FlagArg::kFaultPlan, "", "run every point under a fault plan",
     &BenchOptions::nemesis},
    {"--scale-plan", FlagArg::kScalePlan, "",
     "run every point under an elastic scale plan, e.g. add-partition@2s",
     &BenchOptions::scale_plan},
    {"--telemetry", FlagArg::kNone, "",
     "enable flight-recorder telemetry (the run record's telemetry section)",
     &BenchOptions::telemetry},
    {"--telemetry-interval", FlagArg::kMicros, "100000",
     "telemetry sampling cadence and bucket width; implies --telemetry",
     &BenchOptions::telemetry_interval, &BenchOptions::telemetry},
    {"--batch-size", FlagArg::kCount, "0",
     "batch N logical submissions per flush (0 = batching off)", &BenchOptions::batch_size},
    {"--batch-delay-us", FlagArg::kMicros, "100", "max virtual-time batching wait",
     &BenchOptions::batch_delay},
    {"--pipeline-depth", FlagArg::kCount, "0",
     "in-flight Paxos proposals per leader (0 = unbounded)", &BenchOptions::pipeline_depth},
    {"--prefetch-k", FlagArg::kCount, "0",
     "oracle replies carry up to N co-accessed neighbour locations (0 = off)",
     &BenchOptions::prefetch_k},
    {"--cache-repair", FlagArg::kNone, "",
     "replies piggyback repair entries; retries re-route without re-consulting",
     &BenchOptions::cache_repair},
};

/// Parses the bench flags in `argv` against kFlags. Returns false (after
/// printing why on stderr) if any flag was unknown or malformed; a bad
/// occurrence leaves its option at the default.
inline bool parse_flags(int argc, char** argv, const std::string& experiment,
                        BenchOptions& opts) {
  for (const Flag& f : kFlags) {
    if (auto* n = std::get_if<NumberField>(&f.field)) {
      opts.*(*n) = std::atoll(f.def);
    }
  }
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    const auto is = [&](const Flag& f) { return std::strcmp(argv[i], f.name) == 0; };
    const Flag* f = std::find_if(std::begin(kFlags), std::end(kFlags), is);
    if (f == std::end(kFlags)) {
      std::string supported;
      for (const Flag& g : kFlags) {
        if (!supported.empty()) supported += ", ";
        supported += g.name;
        if (const char* syntax = flag_syntax(g.arg); *syntax != '\0') {
          supported += ' ';
          supported += syntax;
        }
      }
      std::fprintf(stderr, "unknown flag %s (supported: %s)\n", argv[i], supported.c_str());
      ok = false;
      continue;
    }
    if (f->arg == FlagArg::kNone) {
      opts.*std::get<BoolField>(f->field) = true;
      continue;
    }
    // An argument is the next word unless it looks like a flag.
    std::string v;
    if (i + 1 < argc && argv[i + 1][0] != '-') v = argv[++i];
    bool valid = true;
    switch (f->arg) {
      case FlagArg::kPath:
        if (v.empty()) {
          v = f->def;
          v.replace(v.find("<exp>"), 5, experiment);
        }
        break;
      case FlagArg::kThreads:
      case FlagArg::kMicros:
        valid = !v.empty() && std::atoll(v.c_str()) > 0;
        break;
      case FlagArg::kCount:
        valid = !v.empty() && std::atoll(v.c_str()) >= 0;
        break;
      case FlagArg::kFaultPlan:
      case FlagArg::kScalePlan:
        valid = !v.empty();
        if (!valid) break;
        try {  // surface parse errors here, so the sweep stays fault- and scale-free
          if (f->arg == FlagArg::kFaultPlan) {
            fault::resolve_plan(v);
          } else {
            fault::resolve_scale_plan(v);
          }
        } catch (const std::invalid_argument& e) {
          std::fprintf(stderr, "%s\n", e.what());
          ok = false;
          continue;
        }
        break;
      case FlagArg::kNone:
        break;
    }
    if (!valid) {
      std::fprintf(stderr, "%s needs %s\n", f->name, flag_needs(f->arg));
      ok = false;
      continue;
    }
    if (auto* n = std::get_if<NumberField>(&f->field)) {
      opts.*(*n) = std::atoll(v.c_str());
    } else {
      opts.*std::get<TextField>(f->field) = v;
    }
    if (f->implies != nullptr) opts.*(f->implies) = true;
  }
  return ok;
}

/// Collects one stats::RunRecord per run and writes them on finish(). The
/// options come from the shared bench flags (kFlags); a bad flag makes
/// finish() return 2 after the sweep has run with that flag at its default.
class RunRecordSink {
 public:
  RunRecordSink(int argc, char** argv, std::string experiment)
      : experiment_(std::move(experiment)),
        bad_args_(!parse_flags(argc, argv, experiment_, opts_)) {}

  bool json_enabled() const { return !opts_.json.empty(); }
  /// Sweep-point thread count (--jobs, default 1 = serial).
  std::size_t jobs() const { return static_cast<std::size_t>(opts_.jobs); }
  /// Benches set ChirperRunConfig::trace (or DeploymentConfig::trace) to this.
  bool trace_wanted() const { return !opts_.trace.empty(); }
  bool chrome_wanted() const { return !opts_.trace_chrome.empty(); }
  /// Benches set ChirperRunConfig::spans (or DeploymentConfig::spans) to
  /// this. The Chrome export needs spans; the run record's `phases` section
  /// also appears whenever spans ran, so --trace-chrome enriches --json too.
  bool spans_wanted() const { return chrome_wanted(); }
  /// Retained-span cap per run (forwarded to `spans_capacity`): a full sweep
  /// records millions of spans, and an uncapped Chrome trace would be too
  /// large for Perfetto (and for CI artifacts). Phase histograms are
  /// unaffected — only the exported span list is truncated.
  std::size_t spans_capacity() const { return 1u << 16; }
  /// Benches set ChirperRunConfig::nemesis to this (empty = no faults).
  const std::string& nemesis() const { return opts_.nemesis; }
  /// Benches set ChirperRunConfig::scale_plan to this (empty = no
  /// elasticity, byte-identical to the pre-elasticity output).
  const std::string& scale_plan() const { return opts_.scale_plan; }
  /// Benches set ChirperRunConfig::telemetry (or DeploymentConfig::telemetry)
  /// to this; the run record then carries a `telemetry` section.
  bool telemetry_wanted() const { return opts_.telemetry; }
  Duration telemetry_interval() const { return opts_.telemetry_interval; }
  /// Benches forward these into ChirperRunConfig::{batch_size, batch_delay,
  /// pipeline_depth}; the defaults keep every bench byte-identical to the
  /// pre-batching output.
  std::size_t batch_size() const { return static_cast<std::size_t>(opts_.batch_size); }
  Duration batch_delay() const { return opts_.batch_delay; }
  std::size_t pipeline_depth() const { return static_cast<std::size_t>(opts_.pipeline_depth); }
  /// Benches forward these into ChirperRunConfig::{prefetch_k, cache_repair};
  /// the defaults keep every bench byte-identical to the pre-locality output.
  std::size_t prefetch_k() const { return static_cast<std::size_t>(opts_.prefetch_k); }
  bool cache_repair() const { return opts_.cache_repair; }

  /// Forwards every flag-driven knob into a chirper run config.
  void apply(harness::ChirperRunConfig& cfg) const {
    cfg.trace = trace_wanted();
    cfg.spans = spans_wanted();
    cfg.nemesis = nemesis();
    cfg.scale_plan = scale_plan();
    cfg.telemetry = telemetry_wanted();
    cfg.telemetry_interval = telemetry_interval();
    cfg.spans_capacity = spans_capacity();
    cfg.batch_size = batch_size();
    cfg.batch_delay = batch_delay();
    cfg.pipeline_depth = pipeline_depth();
    cfg.prefetch_k = prefetch_k();
    cfg.cache_repair = cache_repair();
  }

  /// Stamps the locality flags into a hand-built run record, matching the
  /// meta that make_run_record emits for chirper runs. No-op (and therefore
  /// byte-preserving) when the whole fast path is off.
  void add_locality_meta(stats::RunRecord& rec) const {
    if (opts_.prefetch_k == 0 && !opts_.cache_repair) return;
    rec.add_meta("prefetch_k", std::to_string(opts_.prefetch_k));
    rec.add_meta("cache_repair", opts_.cache_repair ? "true" : "false");
  }

  void add(stats::RunRecord record) { records_.push_back(std::move(record)); }

  /// Convenience for the standard chirper runs.
  void add(const harness::ChirperRunConfig& cfg, const harness::RunResult& r,
           std::string label = {}) {
    records_.push_back(harness::make_run_record(cfg, r, std::move(label)));
  }

  /// Writes the requested outputs; returns the process exit code for main().
  int finish() {
    if (bad_args_) return 2;
    if (!opts_.json.empty()) {
      std::ofstream os(opts_.json);
      if (!os) {
        std::fprintf(stderr, "cannot open %s for writing\n", opts_.json.c_str());
        return 1;
      }
      stats::write_run_records(os, experiment_, records_);
      std::printf("\nwrote %s (%zu runs)\n", opts_.json.c_str(), records_.size());
    }
    if (!opts_.trace.empty()) {
      std::ofstream os(opts_.trace);
      if (!os) {
        std::fprintf(stderr, "cannot open %s for writing\n", opts_.trace.c_str());
        return 1;
      }
      for (const stats::RunRecord& rec : records_) {
        rec.metrics.trace().write_jsonl(os, rec.label);
      }
      std::printf("wrote %s\n", opts_.trace.c_str());
    }
    if (!opts_.trace_chrome.empty()) {
      std::ofstream os(opts_.trace_chrome);
      if (!os) {
        std::fprintf(stderr, "cannot open %s for writing\n", opts_.trace_chrome.c_str());
        return 1;
      }
      stats::ChromeTraceExport chrome(os);
      for (const stats::RunRecord& rec : records_) {
        chrome.add_run(rec.metrics.spans(), rec.label);
      }
      chrome.finish();
      std::printf("wrote %s\n", opts_.trace_chrome.c_str());
    }
    return 0;
  }

 private:
  std::string experiment_;
  BenchOptions opts_;
  bool bad_args_;
  std::vector<stats::RunRecord> records_;
};

/// One sweep entry: the run config plus the label used for the table row and
/// the run record.
struct SweepPoint {
  harness::ChirperRunConfig cfg;
  std::string label;
};

/// Runs every point (in parallel when --jobs > 1), records each run in the
/// sink in submission order, and returns the results positionally matched to
/// `points`. Callers print their tables from the returned vector, so stdout
/// and the JSON file are byte-identical whatever the thread count.
inline std::vector<harness::RunResult> run_points(RunRecordSink& sink,
                                                  const std::vector<SweepPoint>& points) {
  std::vector<harness::ChirperRunConfig> cfgs;
  cfgs.reserve(points.size());
  for (const SweepPoint& p : points) cfgs.push_back(p.cfg);
  std::vector<harness::RunResult> results = harness::run_sweep(cfgs, sink.jobs());
  for (std::size_t i = 0; i < points.size(); ++i) {
    sink.add(points[i].cfg, results[i], points[i].label);
  }
  return results;
}

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void subheading(const std::string& title) {
  std::printf("\n-- %s --\n", title.c_str());
}

inline const char* mix_name(const workload::ChirperMix& mix) {
  if (mix.timeline == 1.0) return "Timeline";
  if (mix.post == 1.0) return "Post";
  if (mix.follow > 0 && mix.timeline == 0) return "Follow/Unfollow";
  return "Mix(85/7.5/7.5)";
}

inline void print_run_header() {
  std::printf("%-22s %5s %10s %10s %8s %8s %8s %9s %9s %9s\n", "strategy", "parts",
              "tput(cps)", "lat(us)", "p50", "p95", "p99", "moves", "retries", "consults");
}

inline void print_run_row(const std::string& label, std::size_t partitions,
                          const harness::RunResult& r) {
  std::printf("%-22s %5zu %10.0f %10.0f %8lld %8lld %8lld %9llu %9llu %9llu\n", label.c_str(),
              partitions, r.throughput_cps, r.latency_avg_us,
              static_cast<long long>(r.latency_p50_us),
              static_cast<long long>(r.latency_p95_us),
              static_cast<long long>(r.latency_p99_us),
              static_cast<unsigned long long>(r.counter("moves.total")),
              static_cast<unsigned long long>(r.counter("client.retries")),
              static_cast<unsigned long long>(r.counter("client.consults")));
}

/// Per-second series as one row per second.
inline void print_series(const char* name, const std::vector<double>& series) {
  std::printf("%s:", name);
  for (double v : series) std::printf(" %.0f", v);
  std::printf("\n");
}

}  // namespace dssmr::bench
