// Counting, timing decorators for the public AppFactory and PolicyFactory.
//
// The traced run builds its deployment with these in place of the stock
// factories, so per-layer costs of the application and the oracle policy are
// measured from outside the program. Each decorator forwards every virtual
// to the wrapped object unchanged, so the simulated run is identical to one
// built with the stock factories (the benchmark checks that on every traced
// run).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/mapping.h"
#include "harness/deployment.h"
#include "host_trace.h"
#include "smr/app.h"

namespace openloop {

/// Calls observed by the decorators, shared by every replica's instance.
struct LayerCalls {
  std::uint64_t execute = 0;
  std::uint64_t policy = 0;
};

/// Maps a command to the arrival sequence number its spans carry (0 = none).
using CommandKey = std::function<std::uint64_t(const dssmr::smr::Command&)>;

class CountingApp final : public dssmr::smr::AppStateMachine {
 public:
  CountingApp(std::unique_ptr<dssmr::smr::AppStateMachine> inner, LayerCalls& calls,
              HostTrace& trace, const CommandKey& key)
      : inner_(std::move(inner)), calls_(calls), trace_(trace), key_(key) {}

  dssmr::net::MessagePtr execute(const dssmr::smr::Command& cmd,
                                 dssmr::smr::ExecutionView& view) override {
    ++calls_.execute;
    HostTrace::Scope s(trace_, SpanKind::kExecute,
                       trace_.enabled() && key_ ? key_(cmd) : 0);
    return inner_->execute(cmd, view);
  }
  std::unique_ptr<dssmr::smr::VarValue> make_default(dssmr::VarId v) override {
    return inner_->make_default(v);
  }
  dssmr::Duration service_time(const dssmr::smr::Command& cmd) const override {
    return inner_->service_time(cmd);
  }

 private:
  std::unique_ptr<dssmr::smr::AppStateMachine> inner_;
  LayerCalls& calls_;
  HostTrace& trace_;
  const CommandKey& key_;
};

/// Forwards every OraclePolicy virtual. The placement and co-access calls
/// the oracle makes per delivered command are counted and timed; the
/// read-only introspection calls (telemetry gauges) are forwarded only.
class CountingPolicy final : public dssmr::core::OraclePolicy {
 public:
  CountingPolicy(std::unique_ptr<dssmr::core::OraclePolicy> inner, LayerCalls& calls,
                 HostTrace& trace)
      : inner_(std::move(inner)), calls_(calls), trace_(trace) {}

  dssmr::GroupId place_new(dssmr::VarId v, const dssmr::core::Mapping& map) override {
    Timed t(*this);
    return inner_->place_new(v, map);
  }
  dssmr::GroupId choose_destination(const std::vector<dssmr::VarId>& vars,
                                    const dssmr::core::Mapping& map) override {
    Timed t(*this);
    return inner_->choose_destination(vars, map);
  }
  void on_hint(const std::vector<std::pair<dssmr::VarId, dssmr::VarId>>& edges) override {
    Timed t(*this);
    inner_->on_hint(edges);
  }
  void on_create(dssmr::VarId v) override {
    Timed t(*this);
    inner_->on_create(v);
  }
  void on_delete(dssmr::VarId v) override {
    Timed t(*this);
    inner_->on_delete(v);
  }
  void note_co_access(const std::vector<dssmr::VarId>& vars) override {
    Timed t(*this);
    inner_->note_co_access(vars);
  }
  void prefetch_candidates(const std::vector<dssmr::VarId>& vars, std::size_t k,
                           std::vector<dssmr::VarId>& out) override {
    Timed t(*this);
    inner_->prefetch_candidates(vars, k, out);
  }
  std::uint64_t repartition_count() const override { return inner_->repartition_count(); }
  std::size_t workload_graph_vertices() const override {
    return inner_->workload_graph_vertices();
  }
  std::size_t workload_graph_edges() const override { return inner_->workload_graph_edges(); }

 private:
  struct Timed {
    explicit Timed(CountingPolicy& p) : scope(p.trace_, SpanKind::kPolicy) { ++p.calls_.policy; }
    HostTrace::Scope scope;
  };

  std::unique_ptr<dssmr::core::OraclePolicy> inner_;
  LayerCalls& calls_;
  HostTrace& trace_;
};

/// Wraps `inner` so every instance it makes is a CountingApp. `calls`,
/// `trace` and `key` must outlive the deployment built with the factory.
inline dssmr::smr::AppFactory counting_app_factory(dssmr::smr::AppFactory inner,
                                                   LayerCalls& calls, HostTrace& trace,
                                                   const CommandKey& key) {
  return [inner = std::move(inner), &calls, &trace, &key] {
    return std::make_unique<CountingApp>(inner(), calls, trace, key);
  };
}

/// Wraps `inner` so every instance it makes is a CountingPolicy.
inline dssmr::harness::PolicyFactory counting_policy_factory(
    dssmr::harness::PolicyFactory inner, LayerCalls& calls, HostTrace& trace) {
  return [inner = std::move(inner), &calls, &trace] {
    return std::make_unique<CountingPolicy>(inner(), calls, trace);
  };
}

}  // namespace openloop
