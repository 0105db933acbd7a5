#include "core/client_proxy.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "core/oracle.h"

namespace dssmr::core {

using smr::Command;
using smr::CommandMsg;
using smr::CommandType;
using smr::ConsultMsg;
using smr::HintMsg;
using smr::MoveResultMsg;
using smr::ProphecyMsg;
using smr::ReplyCode;
using smr::ReplyMsg;
using stats::SpanPhase;
using stats::TraceEvent;

namespace {

/// Sink for counter handles when no metrics object is wired (tests).
/// thread_local: simulations on different sweep threads may share it.
stats::Counter& dummy_counter() {
  thread_local stats::Counter c;
  return c;
}

}  // namespace

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kStaticSsmr:
      return "S-SMR";
    case Strategy::kDssmr:
      return "DS-SMR";
    case Strategy::kDynaStar:
      return "DynaStar";
  }
  return "?";
}

void ClientProxy::init_client(net::Network& network, const multicast::Directory& directory,
                              ClientConfig config, stats::Metrics* metrics) {
  init_client_node(network, directory);
  cfg_ = std::move(config);
  metrics_ = metrics;
  auto handle = [this](const char* name) {
    return metrics_ != nullptr ? &metrics_->counter_handle(name) : &dummy_counter();
  };
  // Locality counters are interned only when their feature flag is on:
  // default-off runs must not materialize `locality.*` names (the run record
  // would grow a section and break byte-identity with pre-locality builds).
  auto gated = [&handle](bool on, const char* name) {
    return on ? handle(name) : &dummy_counter();
  };
  ctr_ = {handle("client.ops"),       handle("client.consults"),
          handle("client.cache_hits"), handle("client.multi_partition"),
          handle("client.moves"),     handle("client.retries"),
          handle("client.fallbacks"), handle("client.timeouts"),
          handle("client.hints"),     handle("client.ok"),
          handle("client.nok"),
          gated(cfg_.prefetch, "locality.prefetch_installed"),
          gated(cfg_.prefetch, "locality.prefetch_hits"),
          gated(cfg_.cache_repair, "locality.repairs"),
          gated(cfg_.cache_repair, "locality.repair_reroutes")};
  if (metrics_ != nullptr) {
    latency_hist_ = &metrics_->histogram("client.latency_us");
    completions_series_ = &metrics_->series("client.completions");
    moves_series_ = &metrics_->series("moves_ts");
  }
  DSSMR_ASSERT(!cfg_.partitions.empty());
  if (cfg_.strategy == Strategy::kStaticSsmr) {
    DSSMR_ASSERT_MSG(cfg_.static_map != nullptr, "S-SMR clients need a static map");
  } else {
    DSSMR_ASSERT_MSG(cfg_.oracle_group != kNoGroup, "dynamic strategies need an oracle");
  }
}

stats::SpanStore* ClientProxy::spans() {
  return metrics_ != nullptr ? &metrics_->spans() : nullptr;
}

void ClientProxy::record_phase(SpanPhase p, Time start, GroupId group, std::int64_t arg) {
  stats::SpanStore* sp = spans();
  if (sp == nullptr || !sp->enabled() || root_span_ == 0) return;
  sp->record({.trace_id = cmd().trace_id,
              .parent = root_span_,
              .phase = p,
              .start = start,
              .end = network().engine().now(),
              .node = pid().value,
              .group = group,
              .arg = arg});
}

void ClientProxy::decompose_reply(const ReplyMsg& r) {
  stats::SpanStore* sp = spans();
  if (sp == nullptr || !sp->enabled() || root_span_ == 0) return;
  // Split [sent_at_, now] with the server's piggybacked timestamps. Clamping
  // keeps the cut points monotone inside the window, so the spans tile it
  // exactly even with odd timing: an all-zero ReplyTiming clamps every cut
  // up to sent_at_ (the whole window counts as reply), and timestamps from a
  // retransmitted delivery stay within the first-send window.
  const Time now = network().engine().now();
  const Time s = sent_at_;
  // Batched sends wait at the relay first; the flush time splits that wait
  // out of the amcast phase. Unbatched runs record no batch span at all.
  Time a = s;
  if (batched()) {
    const Time f = std::clamp(batch_flushed_at_, s, now);
    sp->record({.trace_id = cmd().trace_id, .parent = root_span_, .phase = SpanPhase::kBatch,
                .start = s, .end = f, .node = pid().value, .group = r.from_group});
    a = f;
  }
  const Time d = std::clamp(r.timing.delivered_at, a, now);
  const Time es = std::clamp(r.timing.exec_start, d, now);
  const Time ee = std::clamp(r.timing.exec_end, es, now);
  const GroupId g = r.from_group;
  sp->record({.trace_id = cmd().trace_id, .parent = root_span_, .phase = SpanPhase::kAmcast,
              .start = a, .end = d, .node = pid().value, .group = g});
  sp->record({.trace_id = cmd().trace_id, .parent = root_span_, .phase = SpanPhase::kQueue,
              .start = d, .end = es, .node = pid().value, .group = g});
  sp->record({.trace_id = cmd().trace_id, .parent = root_span_, .phase = SpanPhase::kExecute,
              .start = es, .end = ee, .node = pid().value, .group = g});
  sp->record({.trace_id = cmd().trace_id, .parent = root_span_, .phase = SpanPhase::kReply,
              .start = ee, .end = now, .node = pid().value, .group = g});
}

void ClientProxy::trace(stats::TraceEvent e, std::uint64_t id, std::int64_t arg) {
  if (metrics_ != nullptr) {
    metrics_->trace().record(e, network().engine().now(), pid().value, id, arg);
  }
}

std::optional<GroupId> ClientProxy::cached_location(VarId v) const {
  auto it = cache_.find(v);
  if (it == cache_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t ClientProxy::cached_epoch(VarId v) const {
  auto it = cache_meta_.find(v);
  return it != cache_meta_.end() ? it->second.epoch : 0;
}

void ClientProxy::apply_repair(const std::vector<smr::RepairEntry>& repair) {
  for (const smr::RepairEntry& e : repair) {
    if (e.loc == kNoGroup) continue;
    VarMeta& meta = cache_meta_[e.var];
    // Strictly newer only: an equal-epoch entry adds nothing, and an older
    // one (late duplicate, or a forged-stale test message) must never roll
    // the cache back to a superseded owner.
    if (e.epoch <= meta.epoch) continue;
    meta.epoch = e.epoch;
    meta.prefetched = false;
    cache_[e.var] = e.loc;
    ctr_.repairs->inc();
    trace(TraceEvent::kCacheRepair, e.var.value, static_cast<std::int64_t>(e.loc.value));
  }
}

void ClientProxy::install_prefetch(const ProphecyMsg& p) {
  for (const smr::RepairEntry& e : p.prefetch) {
    if (e.loc == kNoGroup) continue;
    VarMeta& meta = cache_meta_[e.var];
    if (e.epoch < meta.epoch) continue;  // a repair already taught us better
    meta.epoch = std::max(meta.epoch, e.epoch);
    meta.prefetched = true;
    cache_[e.var] = e.loc;
    ctr_.prefetch_installed->inc();
  }
}

bool ClientProxy::try_repair_reroute() {
  GroupId p = kNoGroup;
  for (VarId v : cmd_vars_) {
    auto it = cache_.find(v);
    if (it == cache_.end() || (p != kNoGroup && it->second != p)) return false;
    p = it->second;
  }
  if (p == kNoGroup) return false;
  ctr_.repair_reroutes->inc();
  trace(TraceEvent::kRepairReroute, cmd().id.value, static_cast<std::int64_t>(p.value));
  stats::SpanStore* sp = spans();
  if (sp != nullptr && sp->enabled() && root_span_ != 0) {
    // Marker span (fold=false): the retry window it annotates was already
    // decomposed into amcast/queue/execute/reply by decompose_reply.
    const Time now = network().engine().now();
    sp->record({.trace_id = cmd().trace_id, .parent = root_span_,
                .phase = SpanPhase::kRepair, .start = now, .end = now,
                .node = pid().value, .group = p, .arg = retries_},
               /*fold=*/false);
  }
  send_command({p}, Phase::kAwaitCommand);
  return true;
}

void ClientProxy::issue(Command command, DoneFn done) {
  DSSMR_ASSERT_MSG(phase_ == Phase::kIdle, "one outstanding command per client proxy");
  command.id = fresh_id();
  // The command's stable logical id doubles as its trace id: it survives
  // retries and is copied onto derived moves, so all spans share one tree.
  command.trace_id = command.id.value;
  command.vars_into(cmd_vars_);
  // Wrapped once: every attempt, resend and consult carries this payload.
  cmd_msg_ = net::make_msg<CommandMsg>(std::move(command));
  done_ = std::move(done);
  retries_ = 0;
  outstanding_consults_.clear();
  issued_at_ = network().engine().now();
  fallback_start_ = 0;
  stats::SpanStore* sp = spans();
  root_span_ = (sp != nullptr && sp->enabled()) ? sp->alloc_id() : 0;
  ctr_.ops->inc();
  start_attempt();
}

void ClientProxy::start_attempt() {
  if (cfg_.strategy == Strategy::kStaticSsmr) {
    // Static oracle: destinations are fixed and always correct.
    std::vector<GroupId> dests;
    for (VarId v : cmd_vars_) {
      const GroupId p = cfg_.static_map->locate(v);
      if (std::find(dests.begin(), dests.end(), p) == dests.end()) dests.push_back(p);
    }
    DSSMR_ASSERT(!dests.empty());
    if (dests.size() > 1) ctr_.multi_partition->inc();
    send_command(std::move(dests), Phase::kAwaitCommand);
    return;
  }

  if (cfg_.use_cache && cmd().type == CommandType::kAccess) {
    // Cache fast path: all variables cached on the same partition.
    GroupId p = kNoGroup;
    bool usable = true;
    for (VarId v : cmd_vars_) {
      auto it = cache_.find(v);
      if (it == cache_.end() || (p != kNoGroup && it->second != p)) {
        usable = false;
        break;
      }
      p = it->second;
    }
    if (usable && p != kNoGroup) {
      ctr_.cache_hits->inc();
      if (cfg_.prefetch) {
        // A hit counts as a prefetch hit when any of its entries got there
        // via a prophecy prefetch; clear the flags so each prefetched entry
        // is credited at most once.
        bool from_prefetch = false;
        for (VarId v : cmd_vars_) {
          auto mit = cache_meta_.find(v);
          if (mit != cache_meta_.end() && mit->second.prefetched) {
            from_prefetch = true;
            mit->second.prefetched = false;
          }
        }
        if (from_prefetch) {
          ctr_.prefetch_hits->inc();
          stats::SpanStore* sp = spans();
          if (sp != nullptr && sp->enabled() && root_span_ != 0) {
            const Time now = network().engine().now();
            sp->record({.trace_id = cmd().trace_id, .parent = root_span_,
                        .phase = SpanPhase::kPrefetch, .start = now, .end = now,
                        .node = pid().value, .group = p},
                       /*fold=*/false);
          }
        }
      }
      send_command({p}, Phase::kAwaitCommand);
      return;
    }
  }
  do_consult();
}

void ClientProxy::do_consult() {
  ctr_.consults->inc();
  const Time now = network().engine().now();
  if (phase_ == Phase::kAwaitMove && move_start_ != 0) {
    // A move confirmation timed out and we re-consult from scratch: close the
    // still-open move window so the time spent waiting stays attributed.
    // (A failed-move reply closes the window itself before retrying.)
    record_phase(SpanPhase::kMove, move_start_, pending_dest_, /*arg=*/-1);
    move_start_ = 0;
  }
  if (phase_ != Phase::kConsult) {
    consult_start_ = now;  // retransmissions keep the window
    // New attempt: answers to the previous attempt's consults are superseded
    // (the cache was invalidated since) — purge their ids.
    outstanding_consults_.clear();
  }
  const MsgId id = fresh_id();
  trace(TraceEvent::kConsult, id.value, static_cast<std::int64_t>(cmd().id.value));
  if (outstanding_consults_.size() >= kMaxOutstandingConsults) {
    outstanding_consults_.erase(outstanding_consults_.begin());  // drop the oldest
  }
  outstanding_consults_.push_back(id.value);
  phase_ = Phase::kConsult;
  amcast_with_id(id, {cfg_.oracle_group},
                 net::make_msg<ConsultMsg>(id, smr::CommandPtr(cmd_msg_, &cmd())));
  // Consult retransmissions use entirely fresh ids: consults are read-only,
  // so re-asking is harmless and dodges the multicast dedup.
  resend_ = [this] { do_consult(); };
  arm_timeout();
}

void ClientProxy::on_prophecy(const ProphecyMsg& p) {
  if (phase_ != Phase::kConsult ||
      std::find(outstanding_consults_.begin(), outstanding_consults_.end(),
                p.consult_id.value) == outstanding_consults_.end()) {
    return;  // stale (a previous command's or an already-answered attempt's)
  }
  outstanding_consults_.clear();
  network().engine().cancel(timeout_);
  timeout_ = 0;
  trace(TraceEvent::kProphecy, p.consult_id.value,
        static_cast<std::int64_t>(p.locations.size()));
  record_phase(SpanPhase::kConsult, consult_start_, kNoGroup, retries_);

  if (p.code == ReplyCode::kNok) {
    finish(ReplyCode::kNok, nullptr);
    return;
  }

  if (cmd().type == CommandType::kCreate) {
    send_command({p.dest, cfg_.oracle_group}, Phase::kAwaitCommand);
    return;
  }
  if (cmd().type == CommandType::kDelete) {
    DSSMR_ASSERT(!p.locations.empty());
    send_command({p.locations[0].second, cfg_.oracle_group}, Phase::kAwaitCommand);
    return;
  }

  // Access: refresh cache, then route. The prophecy is the oracle's current
  // mapping, so it installs unconditionally; with cache repair on it also
  // carries per-variable epochs that advance the monotone sidecar.
  std::vector<GroupId> dests;
  for (std::size_t i = 0; i < p.locations.size(); ++i) {
    const auto& [v, loc] = p.locations[i];
    cache_[v] = loc;
    if (cfg_.cache_repair && i < p.epochs.size()) {
      VarMeta& meta = cache_meta_[v];
      meta.epoch = std::max(meta.epoch, p.epochs[i]);
      meta.prefetched = false;
    }
    if (std::find(dests.begin(), dests.end(), loc) == dests.end()) dests.push_back(loc);
  }
  if (cfg_.prefetch && !p.prefetch.empty()) install_prefetch(p);
  DSSMR_ASSERT(!dests.empty());

  if (dests.size() == 1) {
    send_command({dests[0]}, Phase::kAwaitCommand);
    return;
  }

  ctr_.multi_partition->inc();
  pending_dest_ = p.dest;
  if (p.oracle_moved) {
    // DynaStar: the oracle already multicast the move; wait for the
    // destination's confirmation, which carries the derived move id.
    awaited_reply_ = derive_move_id(p.consult_id);
    phase_ = Phase::kAwaitMove;
    move_start_ = network().engine().now();
    resend_ = [this] { do_consult(); };  // lost move? re-consult from scratch
    arm_timeout();
    return;
  }

  std::vector<GroupId> sources;
  for (GroupId g : dests) {
    if (g != p.dest) sources.push_back(g);
  }
  send_dssmr_move(p.dest, sources);
}

void ClientProxy::send_dssmr_move(GroupId dest, const std::vector<GroupId>& sources) {
  ctr_.moves->inc();
  if (moves_series_ != nullptr) moves_series_->add(network().engine().now());

  Command move;
  move.type = CommandType::kMove;
  move.id = fresh_id();
  move.trace_id = cmd().trace_id;  // the move belongs to the command's trace
  trace(TraceEvent::kMoveIssued, move.id.value, static_cast<std::int64_t>(dest.value));
  move.write_set = cmd_vars_;
  move.move_sources = sources;
  move.move_dest = dest;

  std::vector<GroupId> dests = sources;
  dests.push_back(dest);
  dests.push_back(cfg_.oracle_group);

  awaited_reply_ = move.id;
  phase_ = Phase::kAwaitMove;
  move_start_ = network().engine().now();
  auto payload = net::make_msg<CommandMsg>(std::move(move));
  amcast_with_id(fresh_id(), dests, payload);
  resend_ = [this, dests, payload] {
    // Same logical move (same cmd id inside), fresh multicast id.
    amcast_with_id(fresh_id(), dests, payload);
    arm_timeout();
  };
  arm_timeout();
}

void ClientProxy::send_command(std::vector<GroupId> dests, Phase next_phase) {
  awaited_reply_ = cmd().id;
  phase_ = next_phase;
  sent_at_ = network().engine().now();  // first send; retransmissions keep the window
  batch_flushed_at_ = 0;
  cmd_dests_ = std::move(dests);
  // The flush callback pins down when the first send actually left the relay;
  // it checks the window is still the one it was armed for, so a late flush
  // of a retried window never pollutes a newer one. Retransmissions pass no
  // callback — the window keeps its first flush time.
  const Time sent = sent_at_;
  amcast_with_id(fresh_id(), cmd_dests_, cmd_msg_, [this, sent](Time flushed_at) {
    if (sent_at_ == sent && batch_flushed_at_ == 0) batch_flushed_at_ = flushed_at;
  });
  // Same payload, same destinations, fresh multicast id.
  resend_ = [this] {
    amcast_with_id(fresh_id(), cmd_dests_, cmd_msg_);
    arm_timeout();
  };
  arm_timeout();
}

void ClientProxy::do_fallback() {
  // Termination guarantee: execute as an S-SMR multi-partition command on
  // every partition — no locality check can fail there.
  ctr_.fallbacks->inc();
  trace(TraceEvent::kFallback, cmd().id.value, retries_);
  fallback_start_ = network().engine().now();
  DSSMR_ASSERT(cmd().type == CommandType::kAccess);
  send_command(cfg_.partition_universe != nullptr ? *cfg_.partition_universe
                                                  : cfg_.partitions,
               Phase::kAwaitFallback);
}

void ClientProxy::on_reply(ProcessId from, const net::MessagePtr& m) {
  (void)from;
  switch (m->kind()) {
    case net::Kind::kProphecy:
      on_prophecy(net::msg_as<ProphecyMsg>(m));
      return;
    case net::Kind::kReply:
      break;
    default:
      return;
  }
  const auto* r = &net::msg_as<ReplyMsg>(m);
  if (phase_ == Phase::kIdle || r->cmd_id != awaited_reply_) return;  // stale/duplicate

  switch (phase_) {
    case Phase::kAwaitMove: {
      network().engine().cancel(timeout_);
      timeout_ = 0;
      record_phase(SpanPhase::kMove, move_start_, pending_dest_,
                   r->code == ReplyCode::kOk ? 0 : 1);
      move_start_ = 0;  // window closed: the retry's do_consult must not re-close it
      // Cache exactly what the destination reports as installed: the
      // destination gives up its claim on variables no source shipped
      // (a stale mapping), so caching all of cmd_vars_ would poison the
      // cache with locations the partition knows are wrong.
      for (VarId v : cmd_vars_) cache_.erase(v);
      if (const auto* res = net::msg_cast<MoveResultMsg>(r->app_reply)) {
        for (VarId v : res->installed) cache_[v] = pending_dest_;
      } else if (r->code == ReplyCode::kOk) {
        for (VarId v : cmd_vars_) cache_[v] = pending_dest_;
      }
      // The destination's repair entries carry the post-move epochs; applied
      // after the install loop so the epoch sidecar catches up with the cache.
      if (cfg_.cache_repair && !r->repair.empty()) apply_repair(r->repair);
      if (r->code == ReplyCode::kOk) {
        send_command({pending_dest_}, Phase::kAwaitCommand);
      } else {
        // Failed move (stale mapping at the destination): same path as a
        // command retry — without this the timeout replays the identical
        // move forever and the S-SMR fallback is never reached.
        ctr_.retries->inc();
        ++retries_;
        trace(TraceEvent::kRetry, cmd().id.value, retries_);
        if (retries_ > cfg_.max_retries) {
          do_fallback();
        } else {
          do_consult();
        }
      }
      break;
    }

    case Phase::kAwaitCommand:
      // kRetired is kRetry's elastic sibling: the partition drained and left,
      // so the answer is the same — invalidate and re-route (the re-consult
      // sees the post-drain mapping).
      if (r->code == ReplyCode::kRetry || r->code == ReplyCode::kRetired) {
        network().engine().cancel(timeout_);
        timeout_ = 0;
        decompose_reply(*r);
        ctr_.retries->inc();
        for (VarId v : cmd_vars_) cache_.erase(v);
        ++retries_;
        trace(TraceEvent::kRetry, cmd().id.value, retries_);
        // Piggybacked repair: install the reply's ⟨var, partition, epoch⟩
        // entries (monotone) and, if they pin every variable to one
        // partition, go straight there — the common stale-cache retry then
        // costs one extra hop instead of a full oracle consult.
        if (cfg_.cache_repair && !r->repair.empty()) apply_repair(r->repair);
        if (retries_ > cfg_.max_retries) {
          do_fallback();
        } else if (cfg_.cache_repair && try_repair_reroute()) {
          // re-sent directly from the repaired cache
        } else {
          do_consult();
        }
      } else {
        if (cfg_.cache_repair && !r->repair.empty()) apply_repair(r->repair);
        decompose_reply(*r);
        finish(r->code, r->app_reply);
      }
      break;

    case Phase::kAwaitFallback:
      if (r->code != ReplyCode::kRetry && r->code != ReplyCode::kRetired) {
        decompose_reply(*r);
        finish(r->code, r->app_reply);
      }
      break;

    case Phase::kIdle:
    case Phase::kConsult:
      break;
  }
}

void ClientProxy::finish(ReplyCode code, const net::MessagePtr& app_reply) {
  network().engine().cancel(timeout_);
  timeout_ = 0;
  phase_ = Phase::kIdle;
  resend_ = nullptr;

  const Time now = network().engine().now();
  (code == ReplyCode::kOk ? ctr_.ok : ctr_.nok)->inc();
  if (metrics_ != nullptr) {
    latency_hist_->record(now - issued_at_);
    completions_series_->add(now);
    // Windowed latency shares this exact site, so the recorder's merged
    // windows reproduce client.latency_us (one-branch no-op when disabled).
    metrics_->recorder().record_latency(now, now - issued_at_);
  }

  stats::SpanStore* sp = spans();
  if (sp != nullptr && sp->enabled() && root_span_ != 0) {
    if (fallback_start_ != 0) {
      // Server-side style view of the S-SMR fallback window; the window's
      // time is already folded as amcast/queue/execute/reply spans.
      sp->record({.trace_id = cmd().trace_id,
                  .parent = root_span_,
                  .phase = SpanPhase::kFallback,
                  .start = fallback_start_,
                  .end = now,
                  .node = pid().value,
                  .arg = retries_},
                 /*fold=*/false);
    }
    sp->record({.trace_id = cmd().trace_id,
                .id = root_span_,
                .phase = SpanPhase::kCommand,
                .start = issued_at_,
                .end = now,
                .node = pid().value,
                .arg = code == ReplyCode::kOk ? 0 : 1});
    root_span_ = 0;
  }

  if (cfg_.send_hints && code == ReplyCode::kOk && !cmd().hint_edges.empty()) {
    amcast({cfg_.oracle_group}, net::make_msg<HintMsg>(cmd().hint_edges));
    ctr_.hints->inc();
  }

  // Reset before invoking the callback: the application typically issues the
  // next command from inside it (closed loop).
  DoneFn done = std::move(done_);
  done_ = nullptr;
  if (done) done(code, app_reply);
}

void ClientProxy::arm_timeout() {
  network().engine().cancel(timeout_);
  timeout_ = network().engine().schedule(cfg_.op_timeout, [this] {
    timeout_ = 0;
    if (phase_ == Phase::kIdle || !resend_) return;
    ctr_.timeouts->inc();
    resend_();
  });
}

}  // namespace dssmr::core
