// Open-loop load generator over a deployment's simulated client proxies.
//
// Commands arrive on a schedule that does not depend on the system's speed
// (Poisson arrivals at a fixed offered rate), as independent users would
// send them. Each arrival goes to an idle core::ClientProxy; when all proxies
// are busy it waits in a bounded FIFO backlog, and that wait counts toward its
// latency because latency is timed from the command's *due* time. An arrival
// that finds the backlog full is refused and counts as failed.
//
// The generator also audits the proxies' completion contract: every issued
// command's `done` must fire exactly once.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/client_proxy.h"
#include "sim/engine.h"
#include "smr/command.h"

namespace openloop {

class HostTrace;

class OpenLoop {
 public:
  using Generator = std::function<dssmr::smr::Command()>;

  /// `trace` may be nullptr; when set, next() and issue() calls are timed.
  OpenLoop(dssmr::sim::Engine& engine, std::vector<dssmr::core::ClientProxy*> proxies,
           Generator generator, std::size_t backlog_cap, HostTrace* trace = nullptr);

  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Commands *due* in [start, end) have their latency measured.
  void set_window(dssmr::Time start, dssmr::Time end);

  /// Schedules Poisson arrivals at `rate_cps` (exponential gaps drawn from
  /// `seed`), the first one gap after now, the last one due before `stop`.
  void start_poisson(double rate_cps, std::uint64_t seed, dssmr::Time stop);
  /// Cancels the pending arrival, ending the chain early.
  void stop();

  /// One arrival due now. The Poisson chain calls it; tests schedule
  /// arrivals at chosen instants with it.
  void arrive();

  /// No command waits in the backlog or is in flight.
  bool drained() const { return backlog_.empty() && in_flight_ == 0; }

  std::uint64_t arrivals() const { return next_seq_ - 1; }
  std::uint64_t ok() const { return ok_; }
  std::uint64_t nok() const { return nok_; }
  std::uint64_t refused() const { return refused_; }
  std::uint64_t completed() const { return ok_ + nok_; }
  /// Issued commands whose `done` has not fired, plus arrivals still queued.
  std::uint64_t unanswered() const { return in_flight_ + backlog_.size(); }
  /// `done` invocations beyond the first for some command (must stay 0).
  std::uint64_t duplicate_dones() const { return duplicate_dones_; }
  std::uint64_t backlog_max() const { return backlog_max_; }

  /// Latencies (virtual µs, from due time) of the commands due in the window
  /// that completed with kOk, in completion order.
  const std::vector<std::int64_t>& window_latencies() const { return latencies_; }

  /// Arrival sequence number (1-based) of a command a proxy issued, keyed by
  /// its protocol id: the first lookup must happen while the issuing proxy
  /// still serves it (true for any replica's execution, which precedes the
  /// reply). 0 when the command is not one of this generator's.
  std::uint64_t arrival_of(const dssmr::smr::Command& cmd);

 private:
  struct Pending {
    std::uint64_t seq;
    dssmr::Time due;
    dssmr::smr::Command cmd;
  };

  void schedule_next();
  void issue(std::size_t proxy, Pending p);
  void on_done(std::size_t proxy, std::uint64_t seq, dssmr::Time due, dssmr::smr::ReplyCode code);

  dssmr::sim::Engine& engine_;
  std::vector<dssmr::core::ClientProxy*> proxies_;
  Generator generator_;
  std::size_t backlog_cap_;
  HostTrace* trace_;

  dssmr::Time window_start_ = 0;
  dssmr::Time window_end_ = 0;

  dssmr::Rng rng_;
  double mean_gap_us_ = 0;
  double next_due_ = 0;
  dssmr::Time stop_ = 0;
  dssmr::sim::TimerId pending_arrival_ = 0;

  std::vector<std::size_t> idle_;
  std::deque<Pending> backlog_;
  /// Arrival seq each proxy currently serves (0 = idle).
  std::vector<std::uint64_t> serving_;
  std::unordered_map<std::uint32_t, std::size_t> proxy_by_pid_;
  std::unordered_map<std::uint64_t, std::uint64_t> arrival_by_cmd_;
  /// done invocations per arrival seq (index 0 unused).
  std::vector<std::uint8_t> dones_{0};

  std::uint64_t next_seq_ = 1;
  std::uint64_t ok_ = 0;
  std::uint64_t nok_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t duplicate_dones_ = 0;
  std::uint64_t backlog_max_ = 0;
  std::vector<std::int64_t> latencies_;
};

}  // namespace openloop
