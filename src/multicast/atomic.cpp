#include "multicast/atomic.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/assert.h"

namespace dssmr::multicast {
namespace {

constexpr std::uint64_t kStampSalt = 0x57a3;
constexpr std::uint64_t kTsSalt = 0x75e0;

/// First entry of the id-sorted `pending` whose id is not below `mid`.
template <class Vec>
auto lower_bound_id(Vec& pending, MsgId mid) {
  return std::lower_bound(pending.begin(), pending.end(), mid,
                          [](const auto& p, MsgId id) { return p.id < id; });
}

}  // namespace

// ---- AmcastCore ------------------------------------------------------------

AmcastCore::AmcastCore(sim::Engine& engine, GroupId self_group, Callbacks callbacks,
                       Duration ts_retry_interval)
    : engine_(engine),
      self_group_(self_group),
      cb_(std::move(callbacks)),
      ts_retry_interval_(ts_retry_interval) {
  DSSMR_ASSERT(cb_.deliver != nullptr && cb_.submit_remote != nullptr &&
               cb_.query_ts != nullptr && cb_.is_leader != nullptr);
  arm_retry_timer();
}

void AmcastCore::halt() {
  halted_ = true;
  engine_.cancel(retry_timer_);
  retry_timer_ = 0;
}

void AmcastCore::restart() {
  if (!halted_) return;
  halted_ = false;
  arm_retry_timer();
}

AmcastCore::Pending& AmcastCore::pending_entry(MsgId mid) {
  auto it = lower_bound_id(pending_, mid);
  if (it == pending_.end() || it->id != mid) {
    it = pending_.insert(it, Pending{});
    it->id = mid;
  }
  return *it;
}

bool AmcastCore::on_log_entry(const consensus::LogEntry& entry) {
  switch (entry.payload->kind()) {
    case net::Kind::kStamp:
      process_stamp(entry.payload, net::msg_as<StampEntry>(entry.payload));
      return true;
    case net::Kind::kTs:
      process_ts(net::msg_as<TsEntry>(entry.payload));
      return true;
    default:
      return false;
  }
}

void AmcastCore::process_stamp(const net::MessagePtr& payload, const StampEntry& e) {
  const MsgId mid = e.msg.id;
  if (delivered_.contains(mid)) return;  // duplicate of an already-delivered message
  Pending& p = pending_entry(mid);
  if (p.local_ts) return;  // duplicate stamp
  p.stamp = std::shared_ptr<const StampEntry>(payload, &e);
  p.local_ts = ++clock_;
  p.ts.add(self_group_, *p.local_ts);
  p.stamped_at = engine_.now();
  maybe_finalize(p);
  if (!p.final_ts) push_ts(p, /*pull_missing=*/false);
  try_deliver();
}

void AmcastCore::process_ts(const TsEntry& e) {
  if (e.from == self_group_) return;  // should not happen; ignore defensively
  if (delivered_.contains(e.mid)) return;
  Pending& p = pending_entry(e.mid);
  if (!p.ts.add(e.from, e.ts)) return;  // duplicate timestamp
  clock_ = std::max(clock_, e.ts);
  maybe_finalize(p);
  try_deliver();
}

void AmcastCore::maybe_finalize(Pending& p) {
  if (p.final_ts || !p.stamp || !p.local_ts) return;
  if (p.ts.size() != p.stamp->msg.dests.size()) return;
  p.final_ts = p.ts.max();
  clock_ = std::max(clock_, p.ts.max());
}

void AmcastCore::push_ts(const Pending& p, bool pull_missing) {
  const MsgId mid = p.id;
  if (halted_ || !cb_.is_leader() || !p.stamp || !p.local_ts) return;
  for (GroupId g : p.stamp->msg.dests) {
    if (g == self_group_) continue;
    consensus::LogEntry entry{derive_entry_id(mid, g, kTsSalt + self_group_.value),
                              net::make_msg<TsEntry>(mid, self_group_, *p.local_ts)};
    cb_.submit_remote(g, std::move(entry));
    if (pull_missing && !p.ts.contains(g)) {
      // The peer group may never have received the stamp at all (the
      // submitter's messages were lost). Re-disseminate the stamp — we hold
      // its payload — and also ask for the timestamp in case the group
      // stamped it long ago and only the TsEntry got lost.
      cb_.submit_remote(g, consensus::LogEntry{derive_entry_id(mid, g, kStampSalt), p.stamp});
      cb_.query_ts(g, mid);
    }
  }
}

std::optional<std::uint64_t> AmcastCore::lookup_ts(MsgId mid) const {
  const auto it = lower_bound_id(pending_, mid);
  if (it != pending_.end() && it->id == mid && it->local_ts) return it->local_ts;
  if (const std::uint64_t* ts = delivered_ts_.find(mid); ts != nullptr) return *ts;
  return std::nullopt;
}

void AmcastCore::on_gained_leadership() {
  for (const Pending& p : pending_) {
    if (p.local_ts && !p.final_ts) push_ts(p, /*pull_missing=*/false);
  }
}

void AmcastCore::arm_retry_timer() {
  if (halted_) return;
  retry_timer_ = engine_.schedule(ts_retry_interval_, [this] {
    retry_timer_ = 0;
    if (halted_) return;
    if (cb_.is_leader()) {
      const Time now = engine_.now();
      for (const Pending& p : pending_) {
        if (!p.local_ts || p.final_ts) continue;
        const bool stale = now - p.stamped_at > 2 * ts_retry_interval_;
        push_ts(p, /*pull_missing=*/stale);
      }
    }
    arm_retry_timer();
  });
}

void AmcastCore::try_deliver() {
  for (;;) {
    // Find the stamped message with the smallest (bound, id); deliverable only
    // if its timestamp is final — anything else could still order before it.
    auto best = pending_.end();
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (!it->local_ts) continue;  // timestamp arrived before the stamp; not ours yet
      if (best == pending_.end() ||
          std::pair(it->bound(), it->id.value) < std::pair(best->bound(), best->id.value)) {
        best = it;
      }
    }
    if (best == pending_.end() || !best->final_ts) return;

    // Outlives the erase below; the delivery hook reads the message in place.
    const std::shared_ptr<const StampEntry> stamp = std::move(best->stamp);
    const Time stamped_at = best->stamped_at;
    delivered_.insert(best->id);
    if (!stamp->msg.single_group()) delivered_ts_.put(best->id, *best->local_ts);
    pending_.erase(best);
    ++delivered_count_;
    cb_.deliver(stamp->msg, stamped_at);
  }
}

// ---- GroupNode -------------------------------------------------------------

void GroupNode::init_group_node(net::Network& network, const Directory& directory,
                                GroupId gid, GroupNodeConfig config, std::uint64_t seed) {
  DSSMR_ASSERT_MSG(pid() != kNoProcess, "register the node with the network first");
  network_ = &network;
  directory_ = &directory;
  gid_ = gid;
  config_ = config;

  consensus::PaxosCore::Callbacks pcb;
  pcb.send = [this](ProcessId to, net::MessagePtr m) {
    network_->send(pid(), to, std::move(m));
  };
  pcb.on_decide = [this](consensus::Slot, const consensus::Batch& batch) {
    for (const auto& entry : batch) {
      const bool consumed = amcast_->on_log_entry(entry);
      DSSMR_ASSERT_MSG(consumed, "unknown log entry payload");
    }
  };
  pcb.on_leadership = [this](bool leading) {
    if (leading) amcast_->on_gained_leadership();
  };
  const std::span<const ProcessId> members = directory.members(gid);
  paxos_ = std::make_unique<consensus::PaxosCore>(
      network.engine(), gid, std::vector<ProcessId>(members.begin(), members.end()), pid(),
      config.paxos, std::move(pcb), seed);

  AmcastCore::Callbacks acb;
  acb.deliver = [this](const AmcastMessage& m, Time stamped_at) {
    // Leader-gated so one trace record is emitted per group delivery, not one
    // per replica (matching the leader-gated metrics counters).
    const bool leading = paxos_->is_leader();
    if (delivered_ctr_ != nullptr && leading) delivered_ctr_->inc();
    if (trace_ != nullptr && leading) {
      trace_->record(stats::TraceEvent::kAmcastDeliver, network_->engine().now(), pid().value,
                     m.id.value, static_cast<std::int64_t>(m.dests.size()));
    }
    if (spans_ != nullptr && spans_->enabled() && leading) {
      // This group's view of the multicast: stamp -> atomic delivery. The
      // client folds its own end-to-end amcast phase; these server-side spans
      // stay unfolded (one per destination group, they would double-count).
      if (const std::uint64_t tid = m.payload->trace_id(); tid != 0) {
        spans_->record({.trace_id = tid,
                        .phase = stats::SpanPhase::kAmcast,
                        .start = stamped_at,
                        .end = network_->engine().now(),
                        .node = pid().value,
                        .group = gid_,
                        .arg = static_cast<std::int64_t>(m.dests.size())},
                       /*fold=*/false);
      }
    }
    on_amdeliver(m);
  };
  acb.submit_remote = [this](GroupId g, consensus::LogEntry entry) {
    submit_local_or_remote(g, std::move(entry));
  };
  acb.query_ts = [this](GroupId g, MsgId mid) {
    auto q = net::make_msg<TsQuery>(mid, gid_);
    for (ProcessId p : directory_->members(g)) network_->send(pid(), p, q);
  };
  acb.is_leader = [this] { return paxos_->is_leader(); };
  amcast_ = std::make_unique<AmcastCore>(network.engine(), gid, std::move(acb),
                                         config.ts_retry_interval);

  rmcast_ = std::make_unique<RmcastEngine>(
      network, directory, config.rmcast_relay,
      [this](ProcessId origin, const net::MessagePtr& payload) {
        on_rmdeliver(origin, payload);
      });

  if (config_.batching.enabled()) {
    batcher_ = std::make_unique<SubmitBatcher>();
    batcher_->init(network, directory, pid(), config_.batching);
  }
}

void GroupNode::start() {
  DSSMR_ASSERT_MSG(paxos_ != nullptr, "init_group_node() not called");
  paxos_->start();
}

void GroupNode::set_trace(stats::Trace* trace) {
  DSSMR_ASSERT_MSG(paxos_ != nullptr, "init_group_node() not called");
  trace_ = trace;
  paxos_->set_trace(trace);
}

void GroupNode::set_metrics(stats::Metrics* metrics) {
  DSSMR_ASSERT_MSG(paxos_ != nullptr, "init_group_node() not called");
  delivered_ctr_ = metrics != nullptr ? &metrics->counter_handle("amcast.delivered") : nullptr;
  paxos_->set_metrics(metrics);
  if (batcher_ != nullptr) batcher_->set_metrics(metrics);
}

void GroupNode::halt_node() {
  halted_ = true;
  if (paxos_ != nullptr) paxos_->halt();
  if (amcast_ != nullptr) amcast_->halt();
  if (batcher_ != nullptr) batcher_->halt();
}

void GroupNode::restart_node() {
  if (!halted_) return;
  halted_ = false;
  if (paxos_ != nullptr) paxos_->restart();
  if (amcast_ != nullptr) amcast_->restart();
  if (batcher_ != nullptr) batcher_->restart();
}

void GroupNode::on_message(ProcessId from, const net::MessagePtr& m) {
  // A crashed replica is dead by itself: without this guard only the Paxos
  // core ignored traffic, while timestamp queries, reliable-multicast relays
  // and direct messages were still served — a "crashed" node that answers.
  if (halted_) return;
  switch (m->kind()) {
    case net::Kind::kP1a:
    case net::Kind::kP1b:
    case net::Kind::kP2a:
    case net::Kind::kP2b:
    case net::Kind::kCommit:
    case net::Kind::kHeartbeat:
    case net::Kind::kLearnReq:
      if (paxos_->handle(from, m)) return;
      break;  // another group's Paxos traffic: routed like an unknown payload
    case net::Kind::kSubmit: {
      const auto& sub = net::msg_as<SubmitToLog>(m);
      if (sub.gid == gid_ && paxos_->is_leader()) paxos_->submit(sub.entry);
      return;
    }
    case net::Kind::kBatchSubmit: {
      const auto& batch = net::msg_as<BatchSubmitMsg>(m);
      if (batch.gid == gid_ && paxos_->is_leader()) {
        for (const consensus::LogEntry& e : batch.entries) paxos_->submit(e);
      }
      return;
    }
    case net::Kind::kTsQuery: {
      const auto& q = net::msg_as<TsQuery>(m);
      if (auto ts = amcast_->lookup_ts(q.mid)) {
        consensus::LogEntry entry{derive_entry_id(q.mid, q.requester, kTsSalt + gid_.value),
                                  net::make_msg<TsEntry>(q.mid, gid_, *ts)};
        submit_local_or_remote(q.requester, std::move(entry));
      }
      return;
    }
    default:
      break;
  }
  if (rmcast_->handle(pid(), m)) return;
  on_direct(from, m);
}

MsgId GroupNode::next_msg_id() {
  return MsgId{(static_cast<std::uint64_t>(pid().value) << 32) | next_msg_seq_++};
}

MsgId GroupNode::amcast(std::vector<GroupId> dests, net::MessagePtr payload) {
  normalize_dests(dests);
  const MsgId id = next_msg_id();
  const auto stamp =
      net::make_msg<StampEntry>(AmcastMessage{id, pid(), std::move(dests), std::move(payload)});
  for (GroupId g : stamp->msg.dests) {
    submit_local_or_remote(g, consensus::LogEntry{derive_entry_id(id, g, kStampSalt), stamp});
  }
  return id;
}

void GroupNode::rmcast(std::vector<GroupId> dests, net::MessagePtr payload) {
  rmcast_->rmcast(pid(), std::move(dests), std::move(payload));
}

void GroupNode::send_direct(ProcessId to, net::MessagePtr payload) {
  network_->send(pid(), to, std::move(payload));
}

void GroupNode::submit_local_or_remote(GroupId g, consensus::LogEntry entry) {
  if (g == gid_ && paxos_->is_leader()) {
    paxos_->submit(std::move(entry));
    return;
  }
  if (batcher_ != nullptr) {
    // Server-tier batching: the entry rides the next BatchSubmitMsg to g's
    // members instead of fanning out immediately.
    batcher_->submit(g, std::move(entry));
    return;
  }
  auto wrapped = net::make_msg<SubmitToLog>(g, std::move(entry));
  for (ProcessId p : directory_->members(g)) {
    if (p == pid()) continue;
    network_->send(pid(), p, wrapped);
  }
}

}  // namespace dssmr::multicast
