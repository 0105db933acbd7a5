#include "open_loop.h"

#include <cmath>
#include <utility>

#include "common/assert.h"
#include "host_trace.h"

namespace openloop {

using dssmr::Time;

OpenLoop::OpenLoop(dssmr::sim::Engine& engine, std::vector<dssmr::core::ClientProxy*> proxies,
                   Generator generator, std::size_t backlog_cap, HostTrace* trace)
    : engine_(engine),
      proxies_(std::move(proxies)),
      generator_(std::move(generator)),
      backlog_cap_(backlog_cap),
      trace_(trace),
      serving_(proxies_.size(), 0) {
  DSSMR_ASSERT(!proxies_.empty());
  DSSMR_ASSERT(generator_ != nullptr);
  // Idle proxies are taken from the back, so proxy 0 serves first.
  for (std::size_t i = proxies_.size(); i > 0; --i) idle_.push_back(i - 1);
  for (std::size_t i = 0; i < proxies_.size(); ++i) {
    proxy_by_pid_.emplace(proxies_[i]->pid().value, i);
  }
}

void OpenLoop::set_window(Time start, Time end) {
  window_start_ = start;
  window_end_ = end;
}

void OpenLoop::start_poisson(double rate_cps, std::uint64_t seed, Time stop) {
  DSSMR_ASSERT(rate_cps > 0);
  rng_ = dssmr::Rng{seed};
  mean_gap_us_ = 1e6 / rate_cps;
  next_due_ = static_cast<double>(engine_.now());
  stop_ = stop;
  schedule_next();
}

void OpenLoop::schedule_next() {
  next_due_ += rng_.exponential(mean_gap_us_);
  const auto due = static_cast<Time>(std::llround(next_due_));
  if (due >= stop_) {
    pending_arrival_ = 0;
    return;
  }
  pending_arrival_ = engine_.schedule_at(due, [this] {
    pending_arrival_ = 0;
    arrive();
    schedule_next();
  });
}

void OpenLoop::stop() {
  if (pending_arrival_ != 0) engine_.cancel(pending_arrival_);
  pending_arrival_ = 0;
}

void OpenLoop::arrive() {
  const std::uint64_t seq = next_seq_++;
  dones_.push_back(0);
  Pending p{seq, engine_.now(), {}};
  if (trace_ != nullptr) trace_->open(SpanKind::kNext, seq);
  p.cmd = generator_();
  if (trace_ != nullptr) trace_->close();
  if (!idle_.empty()) {
    const std::size_t proxy = idle_.back();
    idle_.pop_back();
    issue(proxy, std::move(p));
  } else if (backlog_.size() < backlog_cap_) {
    backlog_.push_back(std::move(p));
    if (backlog_.size() > backlog_max_) backlog_max_ = backlog_.size();
  } else {
    ++refused_;
  }
}

void OpenLoop::issue(std::size_t proxy, Pending p) {
  ++in_flight_;
  serving_[proxy] = p.seq;
  const std::uint64_t seq = p.seq;
  const Time due = p.due;
  if (trace_ != nullptr) trace_->open(SpanKind::kIssue, seq);
  proxies_[proxy]->issue(std::move(p.cmd),
                         [this, proxy, seq, due](dssmr::smr::ReplyCode code,
                                                 const dssmr::net::MessagePtr&) {
                           on_done(proxy, seq, due, code);
                         });
  if (trace_ != nullptr) trace_->close();
}

void OpenLoop::on_done(std::size_t proxy, std::uint64_t seq, Time due,
                       dssmr::smr::ReplyCode code) {
  if (++dones_[seq] > 1) {
    ++duplicate_dones_;
    return;
  }
  --in_flight_;
  serving_[proxy] = 0;
  if (code == dssmr::smr::ReplyCode::kOk) {
    ++ok_;
    if (due >= window_start_ && due < window_end_) latencies_.push_back(engine_.now() - due);
  } else {
    ++nok_;
  }
  if (!backlog_.empty()) {
    Pending next = std::move(backlog_.front());
    backlog_.pop_front();
    issue(proxy, std::move(next));
  } else {
    idle_.push_back(proxy);
  }
}

std::uint64_t OpenLoop::arrival_of(const dssmr::smr::Command& cmd) {
  const std::uint64_t id = cmd.id.value;
  if (auto it = arrival_by_cmd_.find(id); it != arrival_by_cmd_.end()) return it->second;
  // Protocol ids carry the issuing process id in their upper half.
  auto p = proxy_by_pid_.find(static_cast<std::uint32_t>(id >> 32));
  if (p == proxy_by_pid_.end()) return 0;
  const std::uint64_t seq = serving_[p->second];
  if (seq != 0) arrival_by_cmd_.emplace(id, seq);
  return seq;
}

}  // namespace openloop
