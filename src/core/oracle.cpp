#include "core/oracle.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace dssmr::core {

using smr::Command;
using smr::CommandMsg;
using smr::CommandType;
using smr::ConsultMsg;
using smr::HintMsg;
using smr::ProphecyMsg;
using smr::ReplyCode;
using smr::ReplyMsg;
using smr::ReplyTiming;
using smr::SignalMsg;

namespace {

/// Sink for counter handles when no metrics object is wired (tests).
/// thread_local: simulations on different sweep threads may share it.
stats::Counter& dummy_counter() {
  thread_local stats::Counter c;
  return c;
}

}  // namespace

MsgId derive_move_id(MsgId consult_id) {
  std::uint64_t x = consult_id.value ^ 0x6d6f76652d69645fULL;  // "move-id_"
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return MsgId{x ^ (x >> 27)};
}

void OracleNode::init_oracle(net::Network& network, const multicast::Directory& directory,
                             GroupId gid, multicast::GroupNodeConfig node_config,
                             std::unique_ptr<OraclePolicy> policy,
                             std::vector<GroupId> partitions, OracleConfig config,
                             stats::Metrics* metrics, std::uint64_t seed) {
  init_group_node(network, directory, gid, node_config, seed);
  mapping_ = std::make_unique<Mapping>(partitions);
  policy_ = std::move(policy);
  DSSMR_ASSERT(policy_ != nullptr);
  exec_ = std::make_unique<smr::ExecutionEngine>(network.engine());
  partitions_ = std::move(partitions);
  config_ = config;
  metrics_ = metrics;
  auto handle = [this](const char* name) {
    return metrics_ != nullptr ? &metrics_->counter_handle(name) : &dummy_counter();
  };
  ctr_ = {handle("oracle.consults"),     handle("oracle.creates"),
          handle("oracle.deletes"),      handle("oracle.moves_issued"),
          handle("oracle.moves_applied"), handle("oracle.hints"),
          // Locality counters are interned only when their feature is on:
          // interning creates the counter, and off-mode run records must stay
          // byte-identical to the pre-locality output.
          config_.prefetch_k > 0 ? handle("locality.prefetch_sent") : &dummy_counter(),
          // Elastic counters follow the same rule: interned only when a scale
          // plan is armed, so non-elastic run records keep their exact bytes.
          config_.elastic ? handle("elastic.partitions_added") : &dummy_counter(),
          config_.elastic ? handle("elastic.partitions_retired") : &dummy_counter(),
          config_.elastic ? handle("elastic.rebalance_moves") : &dummy_counter(),
          config_.elastic ? handle("elastic.rebalance_vars") : &dummy_counter()};
  if (metrics_ != nullptr) {
    busy_series_ = &metrics_->series("oracle.busy_us");
    moves_series_ = &metrics_->series("moves_ts");
  }
}

void OracleNode::preload(VarId v, GroupId p) {
  mapping_->place(v, p);
  policy_->on_create(v);
}

void OracleNode::bump(stats::Counter* c) {
  // Leader-gated so deployment-wide counters are per-event, not per-replica.
  if (is_leader()) c->inc();
}

void OracleNode::trace(stats::TraceEvent e, std::uint64_t id, std::int64_t arg) {
  // Leader-gated like bump(): one trace record per protocol event.
  if (metrics_ != nullptr && is_leader()) {
    metrics_->trace().record(e, engine().now(), pid().value, id, arg);
  }
}

void OracleNode::account(Duration service) {
  // One series per deployment: only the leader accounts, so the series
  // reflects one oracle replica's CPU, matching the paper's measurement.
  if (busy_series_ != nullptr && is_leader()) {
    busy_series_->add(engine().now(), static_cast<double>(service));
  }
}

void OracleNode::queue_reply_task(Duration service, sim::Callback run) {
  account(service);
  exec_->enqueue(smr::ExecutionEngine::Task{
      .id = MsgId{0},
      .on_head = {},
      .ready = nullptr,
      .service = service,
      .run = std::move(run),
  });
}

void OracleNode::on_amdeliver(const multicast::AmcastMessage& m) {
  switch (m.payload->kind()) {
    case net::Kind::kConsult:
      handle_consult(m, net::msg_as<ConsultMsg>(m.payload));
      return;
    case net::Kind::kHint:
      handle_hint(net::msg_as<HintMsg>(m.payload));
      return;
    case net::Kind::kCommand:
      break;
    default:
      DSSMR_FAIL("oracle received an unknown payload");
  }
  const Command& cmd = net::msg_as<CommandMsg>(m.payload).cmd;
  switch (cmd.type) {
    case CommandType::kCreate:
      handle_create(m, cmd);
      break;
    case CommandType::kDelete:
      handle_delete(m, cmd);
      break;
    case CommandType::kMove:
      handle_move(cmd);
      break;
    case CommandType::kReconfig:
      handle_reconfig(cmd);
      break;
    case CommandType::kAccess:
      // Fall-back S-SMR executions do not involve the oracle; nothing to do.
      break;
  }
}

void OracleNode::handle_consult(const multicast::AmcastMessage& m, const ConsultMsg& consult) {
  bump(ctr_.consults);
  const Command& cmd = *consult.cmd;
  const ProcessId client = m.sender;
  auto prophecy = std::make_shared<ProphecyMsg>(consult.consult_id, ReplyCode::kOk);

  if (cmd.type == CommandType::kCreate) {
    const VarId v = cmd.write_set.at(0);
    if (mapping_->contains(v)) {
      prophecy->code = ReplyCode::kNok;
    } else {
      prophecy->dest = policy_->place_new(v, *mapping_);
      // A draining partition must stop accumulating state; policies that
      // ignore membership (e.g. a stale DynaStar ideal) are overridden here,
      // at the single choke point every placement goes through.
      if (!mapping_->is_live(prophecy->dest)) prophecy->dest = mapping_->least_loaded();
      prophecy->locations.emplace_back(v, prophecy->dest);
    }
  } else {
    // access or delete: every variable must exist.
    bool missing = false;
    std::vector<GroupId> dests;
    for (VarId v : cmd.vars()) {
      const GroupId p = mapping_->locate(v);
      if (p == kNoGroup) {
        missing = true;
        break;
      }
      prophecy->locations.emplace_back(v, p);
      if (std::find(dests.begin(), dests.end(), p) == dests.end()) dests.push_back(p);
    }
    if (missing) {
      prophecy->code = ReplyCode::kNok;
      prophecy->locations.clear();
    } else if (cmd.type == CommandType::kAccess && dests.size() > 1) {
      prophecy->dest = policy_->choose_destination(cmd.vars(), *mapping_);
      // Same draining guard as place_new: collocation must target a live
      // partition even when the policy picks the (involved) draining one.
      if (!mapping_->is_live(prophecy->dest)) prophecy->dest = mapping_->least_loaded();
      if (config_.oracle_issues_moves && is_leader()) {
        // DynaStar mode: the oracle collocates the variables itself. The move
        // id is derived from the consult id so the client can await the
        // destination partition's confirmation.
        Command move;
        move.type = CommandType::kMove;
        move.id = derive_move_id(consult.consult_id);
        move.trace_id = cmd.trace_id;  // stays in the consulting command's trace
        move.requester = client;
        move.write_set = cmd.vars();
        move.move_sources = dests;
        move.move_dest = prophecy->dest;
        if (config_.cache_repair) {
          // Epoch each variable reaches once the move installs (vars() is
          // sorted, so the vector stays parallel on the receiving side).
          for (VarId v : move.write_set) {
            move.move_epochs.push_back(mapping_->epoch_of(v) + 1);
          }
        }
        std::vector<GroupId> move_dests = dests;
        move_dests.push_back(prophecy->dest);
        move_dests.push_back(group());
        const MsgId move_id = move.id;
        amcast(std::move(move_dests), net::make_msg<CommandMsg>(std::move(move)));
        bump(ctr_.moves_issued);
        trace(stats::TraceEvent::kMoveIssued, move_id.value,
              static_cast<std::int64_t>(prophecy->dest.value));
        if (moves_series_ != nullptr) moves_series_->add(engine().now());
      }
      prophecy->oracle_moved = config_.oracle_issues_moves;
    } else if (cmd.type == CommandType::kAccess && dests.size() == 1) {
      prophecy->dest = dests[0];
    }
  }

  if (config_.cache_repair && prophecy->code == ReplyCode::kOk) {
    // Epochs parallel to `locations`, so the client can watermark its cache.
    for (const auto& [v, loc] : prophecy->locations) {
      (void)loc;
      prophecy->epochs.push_back(mapping_->epoch_of(v));
    }
  }
  if (config_.prefetch_k > 0 && cmd.type == CommandType::kAccess &&
      prophecy->code == ReplyCode::kOk) {
    // Feed and probe the policy's co-access state on EVERY replica — it must
    // remain a deterministic function of the delivered consult sequence —
    // then attach located candidates to the prophecy (only the leader sends).
    policy_->note_co_access(cmd.vars());
    std::vector<VarId> candidates;
    policy_->prefetch_candidates(cmd.vars(), config_.prefetch_k, candidates);
    for (VarId c : candidates) {
      const GroupId loc = mapping_->locate(c);
      if (loc == kNoGroup) continue;
      prophecy->prefetch.push_back(
          {c, loc, config_.cache_repair ? mapping_->epoch_of(c) : 0});
    }
    if (!prophecy->prefetch.empty() && is_leader()) {
      ctr_.prefetch_sent->inc(prophecy->prefetch.size());
    }
  }

  const Time delivered = engine().now();
  queue_reply_task(config_.consult_service, [this, client, prophecy,
                                             tid = cmd.trace_id, delivered] {
    if (is_leader()) {
      // Server-side view of consult handling (delivery -> prophecy sent); the
      // client's folded kConsult span covers this window end to end.
      if (metrics_ != nullptr && tid != 0 && metrics_->spans().enabled()) {
        metrics_->spans().record({.trace_id = tid,
                                  .phase = stats::SpanPhase::kOracle,
                                  .start = delivered,
                                  .end = engine().now(),
                                  .node = pid().value,
                                  .group = group()},
                                 /*fold=*/false);
      }
      send_direct(client, prophecy);
    }
  });
}

void OracleNode::handle_create(const multicast::AmcastMessage& m, const Command& cmd) {
  const VarId v = cmd.write_set.at(0);
  const ProcessId client = cmd.requester != kNoProcess ? cmd.requester : m.sender;

  if (const CachedReply* cached = completed_.find(cmd.id)) {
    if (is_leader()) {
      send_direct(client, net::make_msg<ReplyMsg>(cmd.id, cached->code, group(), nullptr,
                                                  cached->timing));
    }
    return;
  }

  const Time delivered = engine().now();
  GroupId target = kNoGroup;
  for (GroupId g : m.dests) {
    if (g != group()) target = g;
  }
  ReplyCode outcome = ReplyCode::kOk;
  if (mapping_->contains(v) || target == kNoGroup) {
    outcome = ReplyCode::kNok;
  } else {
    mapping_->place(v, target);
    policy_->on_create(v);
    bump(ctr_.creates);
  }

  account(config_.command_service);
  exec_->enqueue(smr::ExecutionEngine::Task{
      .id = cmd.id,
      .on_head = {},
      // Reply only after the partition signalled that it applied the create.
      .ready = outcome == ReplyCode::kOk
                   ? std::function<bool()>([this, id = cmd.id, target] {
                       return signals_[id].contains(target);
                     })
                   : nullptr,
      .service = config_.command_service,
      .run =
          [this, id = cmd.id, client, outcome, delivered] {
            signals_.erase(id);
            const Time exec_end = engine().now();
            const ReplyTiming timing{delivered, exec_end - config_.command_service, exec_end};
            completed_.put(id, CachedReply{outcome, timing});
            if (is_leader()) {
              send_direct(client,
                          net::make_msg<ReplyMsg>(id, outcome, group(), nullptr, timing));
            }
          },
  });
}

void OracleNode::handle_delete(const multicast::AmcastMessage& m, const Command& cmd) {
  const VarId v = cmd.write_set.at(0);
  const ProcessId client = cmd.requester != kNoProcess ? cmd.requester : m.sender;

  if (const CachedReply* cached = completed_.find(cmd.id)) {
    if (is_leader()) {
      send_direct(client, net::make_msg<ReplyMsg>(cmd.id, cached->code, group(), nullptr,
                                                  cached->timing));
    }
    return;
  }

  const Time delivered = engine().now();
  GroupId target = kNoGroup;
  for (GroupId g : m.dests) {
    if (g != group()) target = g;
  }
  mapping_->erase(v);
  policy_->on_delete(v);
  bump(ctr_.deletes);

  account(config_.command_service);
  exec_->enqueue(smr::ExecutionEngine::Task{
      .id = cmd.id,
      .on_head = {},
      .ready = target != kNoGroup ? std::function<bool()>([this, id = cmd.id, target] {
                                      return signals_[id].contains(target);
                                    })
                                  : nullptr,
      .service = config_.command_service,
      .run =
          [this, id = cmd.id, client, delivered] {
            signals_.erase(id);
            const Time exec_end = engine().now();
            const ReplyTiming timing{delivered, exec_end - config_.command_service, exec_end};
            completed_.put(id, CachedReply{ReplyCode::kOk, timing});
            if (is_leader()) {
              send_direct(client, net::make_msg<ReplyMsg>(id, ReplyCode::kOk, group(),
                                                          nullptr, timing));
            }
          },
  });
}

void OracleNode::handle_move(const Command& cmd) {
  // Apply only moves whose recorded source matches — a stale move (the
  // variable moved elsewhere since the prophecy) must not corrupt the map.
  for (VarId v : cmd.vars()) {
    const GroupId cur = mapping_->locate(v);
    if (cur == kNoGroup) continue;
    if (std::find(cmd.move_sources.begin(), cmd.move_sources.end(), cur) !=
        cmd.move_sources.end()) {
      mapping_->place(v, cmd.move_dest);
    }
  }
  bump(ctr_.moves_applied);
  queue_reply_task(config_.command_service, [] {});
}

void OracleNode::submit_reconfig(GroupId partition, std::uint32_t op) {
  Command cmd;
  cmd.type = CommandType::kReconfig;
  cmd.id = next_msg_id();
  cmd.op = op;
  cmd.move_dest = partition;
  amcast({group()}, net::make_msg<CommandMsg>(std::move(cmd)));
}

void OracleNode::handle_reconfig(const Command& cmd) {
  const GroupId target = cmd.move_dest;
  if (cmd.op == kReconfigAdd) {
    if (!mapping_->is_member(target)) {
      mapping_->add_partition(target);
      partitions_.push_back(target);
      bump(ctr_.partitions_added);
      trace(stats::TraceEvent::kPartitionAdded, cmd.id.value,
            static_cast<std::int64_t>(target.value));
    }
    // Rebalance toward the newcomer. Leader-only, like oracle-issued
    // collocation moves: the moves go through the regular amcast machinery
    // and every replica's mapping updates when they deliver.
    if (is_leader()) plan_rebalance_in(target);
  } else {
    DSSMR_ASSERT_MSG(cmd.op == kReconfigRetire, "unknown reconfig op");
    DSSMR_ASSERT_MSG(mapping_->is_member(target), "retiring an unknown partition");
    if (mapping_->is_live(target)) {
      mapping_->set_draining(target);
      bump(ctr_.partitions_retired);
      trace(stats::TraceEvent::kPartitionDraining, cmd.id.value,
            static_cast<std::int64_t>(target.value));
    }
    // Sweep whatever is currently mapped there. The Scaler re-submits the
    // retire record if stragglers (moves in flight at planning time) land
    // variables on the draining partition afterwards — handle_reconfig is
    // idempotent, so each sweep only moves the leftovers.
    if (is_leader()) plan_drain(target);
  }
  queue_reply_task(config_.command_service, [] {});
}

void OracleNode::plan_rebalance_in(GroupId target) {
  const std::size_t live = mapping_->live_count();
  if (live == 0) return;
  const std::uint64_t quota = mapping_->var_count() / live;
  const std::uint64_t held = mapping_->load(target);
  std::uint64_t deficit = quota > held ? quota - held : 0;
  // Donors above quota, most loaded first (stable sort over the membership
  // order keeps ties canonical — every replica would plan identically).
  std::vector<GroupId> donors;
  for (GroupId p : mapping_->partitions()) {
    if (p == target || !mapping_->is_live(p)) continue;
    if (mapping_->load(p) > quota) donors.push_back(p);
  }
  std::stable_sort(donors.begin(), donors.end(),
                   [&](GroupId a, GroupId b) { return mapping_->load(a) > mapping_->load(b); });
  std::vector<VarId> vars;
  for (GroupId donor : donors) {
    if (deficit == 0) break;
    const std::uint64_t take = std::min<std::uint64_t>(mapping_->load(donor) - quota, deficit);
    if (take == 0) continue;
    vars.clear();
    mapping_->vars_on(donor, vars);
    vars.resize(static_cast<std::size_t>(take));
    deficit -= take;
    for (std::size_t i = 0; i < vars.size(); i += config_.rebalance_chunk) {
      const std::size_t n = std::min(config_.rebalance_chunk, vars.size() - i);
      issue_rebalance_move(
          donor, target,
          std::vector<VarId>(vars.begin() + static_cast<std::ptrdiff_t>(i),
                             vars.begin() + static_cast<std::ptrdiff_t>(i + n)));
    }
  }
}

void OracleNode::plan_drain(GroupId retiring) {
  std::vector<VarId> vars;
  mapping_->vars_on(retiring, vars);
  if (vars.empty()) return;
  // Chunk destinations spread by a local copy of the live loads, so one
  // planning pass balances the whole drain deterministically.
  std::vector<GroupId> live;
  std::vector<std::uint64_t> loads;
  for (GroupId p : mapping_->partitions()) {
    if (!mapping_->is_live(p)) continue;
    live.push_back(p);
    loads.push_back(mapping_->load(p));
  }
  DSSMR_ASSERT_MSG(!live.empty(), "draining the last live partition");
  for (std::size_t i = 0; i < vars.size(); i += config_.rebalance_chunk) {
    const std::size_t n = std::min(config_.rebalance_chunk, vars.size() - i);
    std::size_t best = 0;
    for (std::size_t j = 1; j < live.size(); ++j) {
      if (loads[j] < loads[best]) best = j;
    }
    loads[best] += n;
    issue_rebalance_move(
        retiring, live[best],
        std::vector<VarId>(vars.begin() + static_cast<std::ptrdiff_t>(i),
                           vars.begin() + static_cast<std::ptrdiff_t>(i + n)));
  }
}

void OracleNode::issue_rebalance_move(GroupId from, GroupId to, std::vector<VarId> chunk) {
  Command move;
  move.type = CommandType::kMove;
  move.id = next_msg_id();
  move.requester = kNoProcess;  // no client awaits this reply
  move.write_set = std::move(chunk);  // vars_on() order == vars() order (sorted)
  move.move_sources = {from};
  move.move_dest = to;
  if (config_.cache_repair) {
    for (VarId v : move.write_set) move.move_epochs.push_back(mapping_->epoch_of(v) + 1);
  }
  bump(ctr_.rebalance_moves);
  if (is_leader()) {
    ctr_.rebalance_vars->inc(move.write_set.size());
    if (metrics_ != nullptr) {
      metrics_->histogram("elastic.rebalance_entries")
          .record(static_cast<std::int64_t>(move.write_set.size()));
    }
  }
  trace(stats::TraceEvent::kRebalanceMove, move.id.value,
        static_cast<std::int64_t>(to.value));
  if (moves_series_ != nullptr && is_leader()) moves_series_->add(engine().now());
  amcast({from, to, group()}, net::make_msg<CommandMsg>(std::move(move)));
}

void OracleNode::handle_hint(const HintMsg& hint) {
  const std::uint64_t repartitions_before = policy_->repartition_count();
  policy_->on_hint(hint.edges);
  bump(ctr_.hints);
  // A hint batch that crossed the policy's threshold recomputed the ideal
  // partitioning — annotate the telemetry timeline (leader-gated, like all
  // deployment-wide recording).
  if (metrics_ != nullptr && is_leader() && metrics_->recorder().enabled() &&
      policy_->repartition_count() != repartitions_before) {
    metrics_->recorder().mark(engine().now(), stats::Recorder::MarkKind::kEvent,
                              "repartition #" + std::to_string(policy_->repartition_count()));
  }
  queue_reply_task(config_.command_service, [] {});
}

void OracleNode::on_rmdeliver(ProcessId origin, const net::MessagePtr& payload) {
  (void)origin;
  if (const auto* sig = net::msg_cast<SignalMsg>(payload)) {
    signals_[sig->cmd_id].insert(sig->from_group);
    exec_->notify();
  }
}

}  // namespace dssmr::core
