// Partition server proxy (Algorithm "DS-SMR Server Proxy" of the paper).
//
// One PartitionServer instance is one replica of one state partition. It
// owns a slice of the application state and processes atomically delivered
// commands in order:
//
//  * access, single destination (the DS-SMR fast path): delivered commands
//    are checked against the ownership set — a command whose variables all
//    live here executes locally like classic SMR; otherwise the client gets
//    `retry` (its oracle information was stale).
//  * access, multiple destinations (the S-SMR baseline and DS-SMR's
//    fall-back): partitions exchange variables + signals (VarShipMsg) and
//    only execute once every involved partition has checked in — the
//    execution-atomic protocol of S-SMR.
//  * move: sources relinquish ownership at delivery and ship values when the
//    move reaches the head of their execution queue; the destination waits
//    for one shipment per source, installs the values, and answers the
//    requester.
//  * create/delete: apply locally, then signal the oracle, which sends the
//    client its reply only after the partition has checked in.
//
// Replies are sent by the replica that currently leads the partition's Paxos
// group; duplicated command deliveries (client retries) are answered from a
// bounded reply cache keyed by the logical command id.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bounded.h"
#include "common/flat_map.h"
#include "common/small_set.h"
#include "common/types.h"
#include "multicast/atomic.h"
#include "smr/app.h"
#include "smr/command.h"
#include "smr/execution.h"
#include "stats/metrics.h"

namespace dssmr::core {

struct PartitionServerConfig {
  /// CPU cost of shipping one variable during a move.
  Duration move_service_per_var = usec(2);
  /// CPU cost of installing a created/deleted variable.
  Duration create_delete_service = usec(5);
  /// Oracle group (destination of create/delete signals).
  GroupId oracle_group = kNoGroup;
  /// Capacity of the bounded reply cache (`completed_`). Tests shrink it to
  /// force eviction and exercise the per-client dedup fallback.
  std::size_t reply_cache_capacity = 1 << 15;
  /// Locality fast path: replies piggyback ⟨var, partition, epoch⟩ repair
  /// entries for the command's variables (including forwarding pointers for
  /// variables this partition moved away), so stale client caches heal
  /// without re-consulting the oracle. Off by default — off keeps replies
  /// byte-identical to the pre-locality wire format.
  bool cache_repair = false;
};

class PartitionServer : public multicast::GroupNode {
 public:
  void init_partition(net::Network& network, const multicast::Directory& directory,
                      GroupId gid, multicast::GroupNodeConfig node_config,
                      const smr::AppFactory& app_factory, PartitionServerConfig config,
                      stats::Metrics* metrics, std::uint64_t seed);

  /// Pre-loads a variable (initial state distribution, before start()).
  void preload(VarId v, std::unique_ptr<smr::VarValue> value);

  bool owns(VarId v) const { return owned_.contains(v); }
  std::size_t owned_count() const { return owned_.size(); }
  const std::unordered_set<VarId>& owned_vars() const { return owned_; }
  const smr::VariableStore& store() const { return store_; }
  std::uint64_t executed_count() const { return exec_->executed_count(); }
  Duration busy_time() const { return exec_->busy_time(); }

  /// Telemetry gauges (see harness/deployment.cpp).
  std::size_t queue_depth() const { return exec_->queue_depth(); }
  std::size_t reply_cache_size() const { return completed_.size(); }

  /// Elastic retirement: the partition has drained and left the deployment.
  /// It keeps participating in multicast (commands already addressed to it
  /// must still deliver, and S-SMR peers must not stall waiting for its
  /// shipments) but answers kRetired instead of kRetry, steering clients back
  /// to the oracle. Straggler moves that land variables here afterwards are
  /// still accepted — rejecting them would drop the shipped values — and the
  /// Scaler's drain watchdog re-sweeps them off.
  void set_retired() { retired_ = true; }
  bool retired() const { return retired_; }

 protected:
  void on_amdeliver(const multicast::AmcastMessage& m) override;
  void on_rmdeliver(ProcessId origin, const net::MessagePtr& payload) override;

 private:
  /// Inter-partition inputs accumulated for one command. `ships_from` holds
  /// at most one group per involved partition — a sorted small-vector beats a
  /// node-based set on the ready-check hot path.
  struct Coord {
    common::SmallSet<GroupId> ships_from;
    std::unordered_map<VarId, std::shared_ptr<const smr::VarValue>> shipped;
  };

  struct CachedReply {
    smr::ReplyCode code;
    net::MessagePtr app_reply;
    /// Timestamps of the original execution; retransmitted replies carry them
    /// unchanged (the client clamps stale timestamps into its own window).
    smr::ReplyTiming timing;
  };

  void deliver_access_single(const multicast::AmcastMessage& m, const smr::CommandPtr& cmd);
  void deliver_access_multi(const multicast::AmcastMessage& m, const smr::CommandPtr& cmd);
  void deliver_move(const multicast::AmcastMessage& m, const smr::CommandPtr& cmd);
  void deliver_create(const smr::CommandPtr& cmd);
  void deliver_delete(const smr::CommandPtr& cmd);

  /// `access_final` marks the settled outcome of a kAccess command; it also
  /// advances the per-client dedup watermark (see `access_final_`).
  void reply_to(ProcessId client, MsgId cmd_id, smr::ReplyCode code,
                net::MessagePtr app_reply, bool cache, smr::ReplyTiming timing = {},
                bool access_final = false, std::vector<smr::RepairEntry> repair = {});
  /// Piggybacked repair entries for `cmd`'s variables ({} when cache repair
  /// is off, without computing the variable set). Maintained identically on
  /// every replica, so whichever replica currently leads answers with the
  /// same facts.
  std::vector<smr::RepairEntry> make_repair(const smr::Command& cmd) const;
  Coord& coord(MsgId cmd_id);
  void bump(stats::Counter* c);
  /// Leader-gated windowed heat (stats::Recorder); recorded at the exact
  /// same sites as the single/multi counters so per-bucket sums tile them.
  void heat_command(bool multi);
  void heat_move();
  /// Dense heat-table index of this partition (gid with the oracle's slot
  /// compacted away; see heat_command).
  std::size_t heat_index() const;
  void trace(stats::TraceEvent e, std::uint64_t id, std::int64_t arg = 0);
  /// Leader-gated server-view span (fold=false: the client attributes this
  /// time itself from the reply's timestamps).
  void span(stats::SpanPhase p, std::uint64_t trace_id, Time start, Time end,
            std::int64_t arg = 0);

  smr::VariableStore store_;
  std::unordered_set<VarId> owned_;
  std::unique_ptr<smr::AppStateMachine> app_;
  std::unique_ptr<smr::ExecutionEngine> exec_;
  std::unordered_map<MsgId, Coord> coord_;
  /// Logical command ids currently queued or executing. A client that
  /// retransmits re-multicasts under a fresh multicast id, so the amcast
  /// layer cannot dedup; without this set a duplicate delivery would enqueue
  /// a second task (double execution for accesses, and a task that waits
  /// forever for already-consumed shipments for moves).
  common::FlatSet<MsgId> inflight_;
  /// Claim token per variable: the latest inbound move delivered for it (a
  /// delivery as move source clears it). A failed install gives the claim up
  /// only while the token is its own, so a later inbound move's claim holds
  /// however far each replica's execution lags its deliveries.
  common::FlatMap<VarId, MsgId> claims_;
  BoundedMap<MsgId, CachedReply> completed_{1 << 15};
  /// Per-client at-most-once backstop for access commands. The reply cache is
  /// bounded, so under heavy load a slow (not lost) retransmission can arrive
  /// after its entry was evicted and execute a second time. Command ids are
  /// monotone per issuing proxy and clients are closed-loop (a client issues
  /// access N+1 only after access N's final reply), so per client it suffices
  /// to remember the highest finally-answered access id: a delivered access
  /// at or below it is a stale retransmission — answer the stored reply on an
  /// exact id match, drop silently otherwise. Move/create/delete ids do not
  /// participate: a client's move legitimately settles before the (older-id)
  /// command it unblocks.
  struct AccessFinal {
    std::uint64_t cmd_id = 0;
    CachedReply reply;
  };
  std::unordered_map<std::uint32_t, AccessFinal> access_final_;
  /// Cache-repair state (only maintained when config_.cache_repair): the
  /// monotone epoch of each variable this partition holds (or held), and a
  /// bounded forwarding table for variables moved away — the repair payload
  /// that lets a retried client go straight to the new owner.
  common::FlatMap<VarId, std::uint64_t> var_epochs_;
  struct Forward {
    GroupId dest = kNoGroup;
    std::uint64_t epoch = 0;
  };
  BoundedMap<VarId, Forward> forwards_{1 << 15};
  PartitionServerConfig config_;
  stats::Metrics* metrics_ = nullptr;
  /// See set_retired().
  bool retired_ = false;

  /// Interned counter handles (see ClientProxy::Counters).
  struct Counters {
    stats::Counter* retries_issued;
    stats::Counter* single_partition;
    stats::Counter* multi_partition;
    stats::Counter* moves_source;
    stats::Counter* moves_dest;
    stats::Counter* moves_failed;
    stats::Counter* creates;
    stats::Counter* deletes;
  } ctr_{};
};

}  // namespace dssmr::core
