// The replicated partitioning oracle (Algorithm "Oracle" of the paper).
//
// The oracle is deployed as its own multicast group. It answers `consult`
// requests with prophecies, tracks the dynamic variable->partition mapping
// by delivering every create/delete/move command, and coordinates with
// partitions on create/delete via signal exchange so that its reply to the
// client implies the partition has applied the change (execution atomicity).
//
// Placement decisions are delegated to an OraclePolicy: the DS-SMR policy
// needs no workload knowledge; the DynaStar-style policy (an extension, see
// DESIGN.md) maintains a workload graph and a graph-partitioner-computed
// ideal partitioning, and — when `oracle_issues_moves` is set — the oracle
// leader multicasts the move itself instead of leaving it to the client.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bounded.h"
#include "common/flat_map.h"
#include "common/small_set.h"
#include "common/types.h"
#include "core/mapping.h"
#include "multicast/atomic.h"
#include "smr/command.h"
#include "smr/execution.h"
#include "stats/metrics.h"

namespace dssmr::core {

struct OracleConfig {
  /// DynaStar mode: the oracle issues collocation moves itself.
  bool oracle_issues_moves = false;
  /// Simulated CPU cost of answering one consult.
  Duration consult_service = usec(5);
  /// Simulated CPU cost of applying one command / hint batch.
  Duration command_service = usec(3);
  /// Locality fast path (all off by default; see DESIGN.md):
  /// prophecies carry up to this many co-accessed prefetch entries.
  std::size_t prefetch_k = 0;
  /// Prophecies (and server replies) carry mapping epochs for piggybacked
  /// cache repair.
  bool cache_repair = false;
  /// Elastic repartitioning armed (a ScalePlan may deliver membership
  /// records). Gates the interning of the elastic.* counters so non-elastic
  /// run records stay byte-identical to the pre-elasticity output.
  bool elastic = false;
  /// Variables per rebalance move command (one chunk = one kMove multicast).
  std::size_t rebalance_chunk = 16;
};

/// Command::op values of a kReconfig membership record.
inline constexpr std::uint32_t kReconfigAdd = 0;
inline constexpr std::uint32_t kReconfigRetire = 1;

/// Deterministic move-command id derived from the consult id, so the client
/// knows which reply to wait for when the oracle issues the move.
MsgId derive_move_id(MsgId consult_id);

class OracleNode : public multicast::GroupNode {
 public:
  void init_oracle(net::Network& network, const multicast::Directory& directory, GroupId gid,
                   multicast::GroupNodeConfig node_config,
                   std::unique_ptr<OraclePolicy> policy, std::vector<GroupId> partitions,
                   OracleConfig config, stats::Metrics* metrics, std::uint64_t seed);

  /// Pre-registers a variable's location (initial state distribution).
  void preload(VarId v, GroupId p);

  /// Pre-sizes the mapping (deployments know the variable count up front).
  void reserve_vars(std::size_t n) { mapping_->reserve(n); }

  const Mapping& mapping() const { return *mapping_; }
  OraclePolicy& policy() { return *policy_; }
  const OraclePolicy& policy() const { return *policy_; }
  Duration busy_time() const { return exec_->busy_time(); }

  /// Telemetry gauge (see harness/deployment.cpp).
  std::size_t queue_depth() const { return exec_->queue_depth(); }

  /// Elastic membership entry point (called on the current leader by the
  /// Scaler): atomically multicasts a kReconfig record to the oracle group so
  /// EVERY replica admits/drains `partition` at the same point in the
  /// delivered command order. `op` is kReconfigAdd or kReconfigRetire.
  /// Idempotent at delivery — re-submitting a retire re-sweeps whatever
  /// variables are still mapped to the draining partition (in-flight moves
  /// can land variables on it between planning and delivery).
  void submit_reconfig(GroupId partition, std::uint32_t op);

 protected:
  void on_amdeliver(const multicast::AmcastMessage& m) override;
  void on_rmdeliver(ProcessId origin, const net::MessagePtr& payload) override;

 private:
  struct CachedReply {
    smr::ReplyCode code;
    smr::ReplyTiming timing;
  };

  void handle_consult(const multicast::AmcastMessage& m, const smr::ConsultMsg& consult);
  void handle_create(const multicast::AmcastMessage& m, const smr::Command& cmd);
  void handle_delete(const multicast::AmcastMessage& m, const smr::Command& cmd);
  void handle_move(const smr::Command& cmd);
  void handle_hint(const smr::HintMsg& hint);
  void handle_reconfig(const smr::Command& cmd);

  /// Rebalance planners (leader only, run while processing a delivered
  /// kReconfig): fill a fresh partition up to the per-partition quota /
  /// drain every variable off a retiring one, by issuing chunked kMove
  /// commands through the regular move machinery.
  void plan_rebalance_in(GroupId target);
  void plan_drain(GroupId retiring);
  /// One chunked rebalance move: sources = {from}, dest = to.
  void issue_rebalance_move(GroupId from, GroupId to, std::vector<VarId> chunk);

  void queue_reply_task(Duration service, sim::Callback run);
  void bump(stats::Counter* c);
  void trace(stats::TraceEvent e, std::uint64_t id, std::int64_t arg = 0);
  void account(Duration service);

  std::unique_ptr<Mapping> mapping_;
  std::unique_ptr<OraclePolicy> policy_;
  std::unique_ptr<smr::ExecutionEngine> exec_;
  std::vector<GroupId> partitions_;
  OracleConfig config_;
  stats::Metrics* metrics_ = nullptr;
  /// Signals received from partitions, per command. Tiny per-command sets
  /// (bounded by the partition count), probed on the execution hot path.
  common::FlatMap<MsgId, common::SmallSet<GroupId>> signals_;
  BoundedMap<MsgId, CachedReply> completed_{1 << 15};

  /// Interned counter handles (see ClientProxy::Counters): consults and hints
  /// arrive per command, so the by-name map lookup is a hot-path cost.
  struct Counters {
    stats::Counter* consults;
    stats::Counter* creates;
    stats::Counter* deletes;
    stats::Counter* moves_issued;
    stats::Counter* moves_applied;
    stats::Counter* hints;
    stats::Counter* prefetch_sent;
    stats::Counter* partitions_added;
    stats::Counter* partitions_retired;
    stats::Counter* rebalance_moves;
    stats::Counter* rebalance_vars;
  } ctr_{};
  /// Interned series handles; nullptr when no metrics sink is wired.
  stats::TimeSeries* busy_series_ = nullptr;
  stats::TimeSeries* moves_series_ = nullptr;
};

}  // namespace dssmr::core
