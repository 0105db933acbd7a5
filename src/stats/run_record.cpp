#include "stats/run_record.h"

#include <algorithm>
#include <ostream>

#include "stats/json_writer.h"

namespace dssmr::stats {
namespace {

void write_histogram(JsonWriter& w, const Histogram& h) {
  w.begin_object();
  w.field("count", h.count());
  w.field("min", h.min());
  w.field("max", h.max());
  w.field("mean", h.mean());
  w.field("stddev", h.stddev());
  w.field("p50", h.percentile(0.50));
  w.field("p95", h.percentile(0.95));
  w.field("p99", h.percentile(0.99));
  w.key("cdf");
  w.begin_array();
  for (const auto& [value, fraction] : h.cdf(64)) {
    w.begin_array();
    w.value(value);
    w.value(fraction);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

void write_series(JsonWriter& w, const TimeSeries& s) {
  w.begin_object();
  w.field("bucket_width_us", static_cast<std::int64_t>(s.bucket_width()));
  w.field("total", s.total());
  w.key("values");
  w.begin_array();
  for (std::size_t i = 0; i < s.bucket_count(); ++i) w.value(s.bucket(i));
  w.end_array();
  w.end_object();
}

// v4: flight-recorder telemetry. Gauge samples are arrays aligned with
// `ticks`; heat buckets and latency windows are `interval_us` wide (bucket i
// covers [i*interval, (i+1)*interval)); trailing zero buckets are implicit.
// Per-partition `commands`/`multi` sum exactly to the end-of-run
// `server.single_partition_commands` + `server.multi_partition_commands`
// counters because both record at the same leader-gated sites.
void write_telemetry(JsonWriter& w, const Recorder& r) {
  w.begin_object();
  w.field("interval_us", static_cast<std::int64_t>(r.interval()));
  w.key("ticks");
  w.begin_array();
  for (Time t : r.tick_times()) w.value(static_cast<std::int64_t>(t));
  w.end_array();
  w.key("gauges");
  w.begin_object();
  for (const Recorder::Gauge& g : r.gauges()) {
    w.key(g.name);
    w.begin_array();
    for (double v : g.values) w.value(v);
    w.end_array();
  }
  w.end_object();
  w.key("partitions");
  w.begin_array();
  for (const Recorder::PartitionHeat& h : r.heat()) {
    w.begin_object();
    w.field("total_commands", h.total_commands);
    w.field("total_multi", h.total_multi);
    w.field("total_moves", h.total_moves);
    const auto write_buckets = [&w](const char* name,
                                    const std::vector<std::uint64_t>& buckets) {
      w.key(name);
      w.begin_array();
      for (std::uint64_t v : buckets) w.value(v);
      w.end_array();
    };
    write_buckets("commands", h.commands);
    write_buckets("multi", h.multi);
    write_buckets("moves", h.moves);
    w.end_object();
  }
  w.end_array();
  // Deployment-wide locality per bucket: single-partition fraction of all
  // commands (1.0 = perfectly local; null when the bucket saw no commands).
  std::size_t heat_buckets = 0;
  for (const Recorder::PartitionHeat& h : r.heat()) {
    heat_buckets = std::max(heat_buckets, h.commands.size());
  }
  w.key("locality");
  w.begin_array();
  for (std::size_t i = 0; i < heat_buckets; ++i) {
    std::uint64_t commands = 0;
    std::uint64_t multi = 0;
    for (const Recorder::PartitionHeat& h : r.heat()) {
      commands += i < h.commands.size() ? h.commands[i] : 0;
      multi += i < h.multi.size() ? h.multi[i] : 0;
    }
    if (commands == 0) {
      w.null();
    } else {
      w.value(1.0 - static_cast<double>(multi) / static_cast<double>(commands));
    }
  }
  w.end_array();
  w.key("latency_windows");
  w.begin_array();
  for (const Histogram& h : r.latency_windows()) {
    w.begin_object();
    w.field("count", h.count());
    w.field("mean", h.mean());
    w.field("p50", h.percentile(0.50));
    w.field("p99", h.percentile(0.99));
    w.end_object();
  }
  w.end_array();
  w.key("marks");
  w.begin_array();
  for (const Recorder::Mark& m : r.marks()) {
    w.begin_object();
    w.field("t_us", static_cast<std::int64_t>(m.at));
    w.field("kind", to_string(m.kind));
    w.field("label", m.label);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_spans_summary(JsonWriter& w, const SpanStore& s) {
  w.begin_object();
  w.field("enabled", s.enabled());
  w.field("recorded", s.spans().size());
  w.field("dropped", s.dropped());
  w.end_object();
}

void write_trace_summary(JsonWriter& w, const Trace& t) {
  w.begin_object();
  w.field("enabled", t.enabled());
  w.field("recorded", t.records().size());
  w.field("dropped", t.dropped());
  w.key("events");
  w.begin_object();
  for (std::size_t i = 0; i < kTraceEventTypes; ++i) {
    const auto e = static_cast<TraceEvent>(i);
    if (t.count(e) > 0) w.field(to_string(e), t.count(e));
  }
  w.end_object();
  w.end_object();
}

}  // namespace

void write_run_records(std::ostream& os, std::string_view experiment,
                       const std::vector<RunRecord>& runs) {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", kRunRecordSchema);
  w.field("experiment", experiment);
  w.key("runs");
  w.begin_array();
  for (const RunRecord& run : runs) {
    w.begin_object();
    w.field("label", run.label);
    w.key("meta");
    w.begin_object();
    for (const auto& [k, v] : run.meta) w.field(k, v);
    w.end_object();
    w.key("counters");
    w.begin_object();
    for (const auto& [name, c] : run.metrics.counters()) w.field(name, c.value());
    w.end_object();
    w.key("histograms");
    w.begin_object();
    for (const auto& [name, h] : run.metrics.histograms()) {
      w.key(name);
      write_histogram(w, h);
    }
    w.end_object();
    w.key("series");
    w.begin_object();
    for (const auto& [name, s] : run.metrics.all_series()) {
      w.key(name);
      write_series(w, s);
    }
    w.end_object();
    // v2: per-phase latency histograms from the span store. The client
    // attributes every microsecond of a command to exactly one phase, so the
    // per-phase totals (mean * count) sum to the kCommand ("command") total.
    const SpanStore& spans = run.metrics.spans();
    if (spans.has_phase_data()) {
      w.key("phases");
      w.begin_object();
      for (std::size_t i = 0; i < kSpanPhases; ++i) {
        const auto p = static_cast<SpanPhase>(i);
        const Histogram& h = spans.phase_histogram(p);
        if (h.count() == 0) continue;
        w.key(to_string(p));
        write_histogram(w, h);
      }
      w.end_object();
    }
    // v3: fault-injection summary, present only for runs that carried
    // `faults.*` metrics (a nemesis ran). Counters are re-emitted here with
    // the prefix stripped so fault tooling has one stable place to look.
    bool any_faults = false;
    for (const auto& [name, c] : run.metrics.counters()) {
      if (name.starts_with("faults.")) {
        any_faults = true;
        break;
      }
    }
    if (any_faults) {
      w.key("faults");
      w.begin_object();
      for (const auto& [name, c] : run.metrics.counters()) {
        if (name.starts_with("faults.")) w.field(name.substr(7), c.value());
      }
      if (const Histogram* h = run.metrics.find_histogram("faults.time_to_new_leader_us");
          h != nullptr && h->count() > 0) {
        w.key("time_to_new_leader_us");
        write_histogram(w, *h);
      }
      w.end_object();
    }
    // v4: flight-recorder telemetry, present only when the run enabled the
    // Recorder (--telemetry in the benches). Absent otherwise, keeping
    // telemetry-off records identical to pre-telemetry output.
    if (run.metrics.recorder().enabled()) {
      w.key("telemetry");
      write_telemetry(w, run.metrics.recorder());
    }
    // v5: submission-batching summary, present only for runs that carried
    // `batch.*` metrics (batching was on somewhere). Counters are re-emitted
    // with the prefix stripped, plus the flush-size histogram, so batching
    // tooling has one stable place to look.
    bool any_batching = false;
    for (const auto& [name, c] : run.metrics.counters()) {
      if (name.starts_with("batch.")) {
        any_batching = true;
        break;
      }
    }
    if (any_batching) {
      w.key("batching");
      w.begin_object();
      for (const auto& [name, c] : run.metrics.counters()) {
        if (name.starts_with("batch.")) w.field(name.substr(6), c.value());
      }
      if (const Histogram* h = run.metrics.find_histogram("batch.size_entries");
          h != nullptr && h->count() > 0) {
        w.key("size_entries");
        write_histogram(w, *h);
      }
      w.end_object();
    }
    // v6: locality-fast-path summary, present only for runs that carried
    // `locality.*` metrics (prefetch or cache repair was on). Counters are
    // re-emitted with the prefix stripped — one stable place for
    // cache-effectiveness tooling, mirroring the `batching` section.
    bool any_locality = false;
    for (const auto& [name, c] : run.metrics.counters()) {
      if (name.starts_with("locality.")) {
        any_locality = true;
        break;
      }
    }
    if (any_locality) {
      w.key("locality");
      w.begin_object();
      for (const auto& [name, c] : run.metrics.counters()) {
        if (name.starts_with("locality.")) w.field(name.substr(9), c.value());
      }
      w.end_object();
    }
    // v7: elasticity summary, present only for runs that carried `elastic.*`
    // metrics (a ScalePlan was armed). Counters are re-emitted with the
    // prefix stripped, plus the rebalance chunk-size histogram — one stable
    // place for scale-out tooling, mirroring the sections above.
    bool any_elastic = false;
    for (const auto& [name, c] : run.metrics.counters()) {
      if (name.starts_with("elastic.")) {
        any_elastic = true;
        break;
      }
    }
    if (any_elastic) {
      w.key("elasticity");
      w.begin_object();
      for (const auto& [name, c] : run.metrics.counters()) {
        if (name.starts_with("elastic.")) w.field(name.substr(8), c.value());
      }
      if (const Histogram* h = run.metrics.find_histogram("elastic.drain_time_us");
          h != nullptr && h->count() > 0) {
        w.key("drain_time_us");
        write_histogram(w, *h);
      }
      if (const Histogram* h = run.metrics.find_histogram("elastic.rebalance_entries");
          h != nullptr && h->count() > 0) {
        w.key("rebalance_entries");
        write_histogram(w, *h);
      }
      w.end_object();
    }
    w.key("spans");
    write_spans_summary(w, spans);
    w.key("trace");
    write_trace_summary(w, run.metrics.trace());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace dssmr::stats
