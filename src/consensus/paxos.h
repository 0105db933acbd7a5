// Multi-Paxos replicated log, one instance per multicast group.
//
// This is the repository's substitute for the paper's URingPaxos deployment:
// each partition (and the oracle) is a group of replicas that agree on a
// totally ordered log of batches. The atomic-multicast layer consumes this
// log; it never talks to Paxos internals directly.
//
// Design notes:
//  * Leader-based. Ballot numbers encode (round, member-index); the member
//    with the highest granted ballot leads, proposes batches into slots, and
//    broadcasts commits. Followers monitor heartbeats and run an election
//    (phase 1) after a randomized timeout.
//  * Batching: submissions are buffered for up to `batch_delay` (or
//    `max_batch` entries) and decided as one slot, which is both realistic
//    (Ring Paxos batches aggressively) and essential for simulation speed.
//  * Uniform agreement: a value is committed only after a majority accepted
//    it, so any later leader's phase 1 re-discovers it.
//  * The log lives in one power-of-two ring of per-slot records (acceptor,
//    learner and proposer state side by side), indexed by slot and covering
//    [base_, top_): from the trim point up to the highest slot touched. The
//    ring grows when a slot lands past its end and otherwise never
//    allocates. Trimming keeps `retain_window` decided slots behind the
//    delivery point to answer catch-up requests; it only advances base_ and
//    resets the records it passes over. Every undecided proposal sits at or
//    above the delivery point, so the resend timer scans only the in-flight
//    slots [next_deliver_, top_).
//
// PaxosCore is deliberately not a net::Actor: the owning replica feeds it
// messages and it emits messages through a callback, which keeps it unit
// testable without a full deployment.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/bounded.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/message.h"
#include "sim/engine.h"
#include "stats/trace.h"

namespace dssmr::stats {
class Metrics;
}  // namespace dssmr::stats

namespace dssmr::consensus {

using Slot = std::uint64_t;
/// Ballot = (round << 16) | owner-member-index. 0 means "none".
using Ballot = std::uint64_t;

constexpr Ballot make_ballot(std::uint64_t round, std::uint32_t owner_index) {
  return (round << 16) | owner_index;
}
constexpr std::uint64_t ballot_round(Ballot b) { return b >> 16; }
constexpr std::uint32_t ballot_owner_index(Ballot b) {
  return static_cast<std::uint32_t>(b & 0xffff);
}

/// One submitted value. `id` is globally unique and used by upper layers to
/// deduplicate entries that get re-proposed across leader changes.
struct LogEntry {
  MsgId id;
  net::MessagePtr payload;
};

using Batch = std::vector<LogEntry>;
/// A proposal's batch is built once, by the leader that first proposes it,
/// and never changes afterwards: the proposal, the acceptor and learner
/// state on every replica and every P1b/P2a/CommitMsg carrying it share this
/// one immutable object instead of holding copies.
using BatchPtr = std::shared_ptr<const Batch>;
/// Accepted values carried by a P1b: slot -> (ballot it was accepted in,
/// batch). Only elections build one.
using AcceptedMap = std::map<Slot, std::pair<Ballot, BatchPtr>>;

struct PaxosConfig {
  Duration heartbeat_interval = msec(20);
  Duration election_timeout = msec(120);
  Duration resend_interval = msec(40);
  Duration batch_delay = usec(100);
  std::size_t max_batch = 64;
  /// Decided slots kept behind the delivery point for catch-up.
  Slot retain_window = 4096;
  /// Max undecided slots the leader keeps in flight. 0 = unbounded: every
  /// flush proposes all pending entries as one slot (the original behavior).
  /// With a window, each flush proposes chunks of up to `max_batch` entries
  /// while the window has room; the rest accumulates in `pending_` and is
  /// re-flushed as decisions free slots, so batches grow under load instead
  /// of queueing one slot per arrival burst.
  std::size_t pipeline_depth = 0;
};

// ---- wire messages ---------------------------------------------------------

struct P1a final : net::Tagged<net::Kind::kP1a> {
  GroupId gid;
  Ballot ballot;
  Slot committed;  // candidate's delivery point, bounds the P1b payload
  P1a(GroupId g, Ballot b, Slot c) : gid(g), ballot(b), committed(c) {}
};

struct P1b final : net::Tagged<net::Kind::kP1b> {
  GroupId gid;
  Ballot ballot;
  bool granted;
  Slot committed;
  AcceptedMap accepted;
  P1b(GroupId g, Ballot b, bool ok, Slot c, AcceptedMap acc)
      : gid(g), ballot(b), granted(ok), committed(c), accepted(std::move(acc)) {}
  std::size_t size_bytes() const override;
};

struct P2a final : net::Tagged<net::Kind::kP2a> {
  GroupId gid;
  Ballot ballot;
  Slot slot;
  BatchPtr batch;
  P2a(GroupId g, Ballot b, Slot s, BatchPtr bt)
      : gid(g), ballot(b), slot(s), batch(std::move(bt)) {}
  std::size_t size_bytes() const override;
};

struct P2b final : net::Tagged<net::Kind::kP2b> {
  GroupId gid;
  Ballot ballot;
  Slot slot;
  bool accepted;
  P2b(GroupId g, Ballot b, Slot s, bool ok) : gid(g), ballot(b), slot(s), accepted(ok) {}
};

struct CommitMsg final : net::Tagged<net::Kind::kCommit> {
  GroupId gid;
  Slot slot;
  BatchPtr batch;
  CommitMsg(GroupId g, Slot s, BatchPtr b) : gid(g), slot(s), batch(std::move(b)) {}
  std::size_t size_bytes() const override;
};

struct HeartbeatMsg final : net::Tagged<net::Kind::kHeartbeat> {
  GroupId gid;
  Ballot ballot;
  Slot committed;
  HeartbeatMsg(GroupId g, Ballot b, Slot c) : gid(g), ballot(b), committed(c) {}
};

struct LearnReq final : net::Tagged<net::Kind::kLearnReq> {
  GroupId gid;
  Slot from;
  LearnReq(GroupId g, Slot f) : gid(g), from(f) {}
};

// ---- core ------------------------------------------------------------------

class PaxosCore {
 public:
  struct Callbacks {
    /// Emits a protocol message to a peer (never called for self).
    std::function<void(ProcessId to, net::MessagePtr)> send;
    /// Delivers decided batches in strict slot order, exactly once.
    std::function<void(Slot slot, const Batch& batch)> on_decide;
    /// Optional: leadership gained/lost notification.
    std::function<void(bool leading)> on_leadership;
  };

  /// Entry ids the leader remembers for submission dedup. Retransmitted
  /// submissions (amcast timestamp pushes retry every 50 ms, clients every
  /// few hundred) arrive well inside this window even at one submission per
  /// microsecond; older ids are forgotten, so a long leadership does not
  /// grow the set without bound.
  static constexpr std::size_t kSubmitDedupWindow = std::size_t{1} << 16;

  PaxosCore(sim::Engine& engine, GroupId gid, std::vector<ProcessId> members, ProcessId self,
            PaxosConfig config, Callbacks callbacks, std::uint64_t seed);

  /// Arms initial timers. Member 0 immediately stands for election so quiet
  /// groups get a leader without waiting for a timeout.
  void start();

  /// Submits an entry for ordering. Returns false when this replica is not
  /// currently leading (callers should retry via another member).
  bool submit(LogEntry entry);

  /// Routes a consensus message. Returns false if `m` is not a Paxos message
  /// for this group (so callers can try other handlers).
  bool handle(ProcessId from, const net::MessagePtr& m);

  bool is_leader() const { return role_ == Role::Leader; }
  /// Undecided proposals currently in flight (telemetry; leader-side).
  std::size_t inflight_proposals() const { return inflight_; }
  /// Entries buffered but not yet proposed (telemetry; leader-side).
  std::size_t pending_entries() const { return pending_.size(); }
  /// Best guess at the current leader (self while leading).
  ProcessId leader_hint() const;
  Slot delivered_upto() const { return next_deliver_ - 1; }
  /// The decided batch of `slot` while it is retained (null otherwise).
  /// Tests use it to check that decisions share the proposed batch.
  BatchPtr decided_batch(Slot slot) const;
  /// Entry ids currently held for submission dedup (at most
  /// kSubmitDedupWindow).
  std::size_t submit_dedup_size() const { return submitted_ids_.size(); }
  GroupId group() const { return gid_; }
  const std::vector<ProcessId>& members() const { return members_; }

  /// Stops all timers; the replica is considered crashed (tests use this to
  /// silence a node without tearing down the object).
  void halt();

  /// Rejoins after halt(): back to follower, proposer-side state wiped.
  /// Acceptor state (promised ballot, accepted slots) survives — it is the
  /// "stable storage" that makes crash-recovery safe — and the missed log
  /// tail is re-learned through the existing heartbeat -> LearnReq ->
  /// CommitMsg machinery. Callers pair this with Network::recover.
  void restart();

  /// Event trace for leader changes (owned by the deployment's Metrics; may
  /// stay null for standalone cores).
  void set_trace(stats::Trace* trace) { trace_ = trace; }
  /// Counter sink for `paxos.learn_gap_slots` (may stay null). The counter
  /// is created on the first gap, so runs without one record nothing.
  void set_metrics(stats::Metrics* metrics) { metrics_ = metrics; }

  /// Catch-up slots this replica was asked for but had already trimmed,
  /// summed over LearnReqs. A requester that falls this far behind can never
  /// deliver again: the log holds no snapshot to restart it from.
  std::uint64_t learn_gap_slots() const { return learn_gap_slots_; }
  /// Lowest slot still held in the log (the trim point).
  Slot log_base() const { return base_; }

 private:
  enum class Role { Follower, Candidate, Leader };

  /// Member indexes as bits (groups have at most 64 members).
  using MemberMask = std::uint64_t;
  static std::size_t count(MemberMask m) { return static_cast<std::size_t>(std::popcount(m)); }
  static MemberMask bit(std::uint32_t index) { return MemberMask{1} << index; }

  /// Everything this replica knows about one slot. A null batch means
  /// "none": nothing accepted, not decided, or not proposed by this
  /// leadership. Records outside [base_, top_) are always empty.
  struct SlotRecord {
    Ballot accepted_ballot = 0;
    BatchPtr accepted;  // acceptor
    BatchPtr decided;   // learner
    BatchPtr proposal;  // proposer
    MemberMask acks = 0;
    bool proposal_decided = false;
  };

  std::size_t majority() const { return members_.size() / 2 + 1; }
  std::uint32_t index_of(ProcessId p) const;

  void broadcast(const net::MessagePtr& m);
  void start_election();
  void become_leader();
  void step_down(Ballot seen);

  void handle_p1a(ProcessId from, const P1a& m);
  void handle_p1b(ProcessId from, const P1b& m);
  void handle_p2a(ProcessId from, const P2a& m);
  void handle_p2b(ProcessId from, const P2b& m);
  void handle_commit(ProcessId from, const CommitMsg& m);
  void handle_heartbeat(ProcessId from, const HeartbeatMsg& m);
  void handle_learnreq(ProcessId from, const LearnReq& m);

  /// The record of a slot in [base_, top_).
  SlotRecord& at(Slot slot) { return ring_[slot & (ring_.size() - 1)]; }
  const SlotRecord& at(Slot slot) const { return ring_[slot & (ring_.size() - 1)]; }
  /// The record of `slot` >= base_, widening [base_, top_) (and growing the
  /// ring) to cover it. Growth moves every record: callers copy any BatchPtr
  /// they still need out of the ring before a call that may touch a new slot
  /// (propose, on_decide).
  SlotRecord& touch(Slot slot);
  /// Takes a proposal out of the pipeline once its slot is decided.
  void retire_proposal(SlotRecord& r);
  /// Drops every proposal of the previous leadership.
  void clear_proposals();

  void propose(Slot slot, BatchPtr batch);
  void flush_pending();
  void arm_batch_timer();
  void decide(Slot slot, const BatchPtr& batch, bool broadcast_commit);
  void advance_delivery();
  void trim();
  void arm_election_timer();
  void arm_heartbeat_timer();
  void arm_resend_timer();
  void maybe_request_catchup(Slot leader_committed, ProcessId from);

  sim::Engine& engine_;
  GroupId gid_;
  std::vector<ProcessId> members_;
  ProcessId self_;
  std::uint32_t self_index_;
  PaxosConfig cfg_;
  Callbacks cb_;
  Rng rng_;
  bool halted_ = false;
  stats::Trace* trace_ = nullptr;
  stats::Metrics* metrics_ = nullptr;
  std::uint64_t learn_gap_slots_ = 0;

  // The slot log: a power-of-two ring holding the records of [base_, top_).
  std::vector<SlotRecord> ring_;
  Slot base_ = 1;  // trim point: lowest retained slot
  Slot top_ = 1;   // one past the highest slot touched

  // Acceptor state (accepted values live in the ring).
  Ballot promised_ = 0;

  // Learner state (decided values live in the ring).
  Slot next_deliver_ = 1;

  // Proposer state.
  Role role_ = Role::Follower;
  Ballot ballot_ = 0;           // ballot of my current candidacy/leadership
  Ballot max_seen_ballot_ = 0;  // highest ballot observed anywhere
  MemberMask p1b_granted_ = 0;
  AcceptedMap p1b_accepted_;
  Slot next_slot_ = 1;
  /// Count of undecided proposals in the ring (the pipeline occupancy).
  std::size_t inflight_ = 0;
  /// Submitted entries not yet proposed. Keeps its capacity across flushes:
  /// each flush copies the entries into a right-sized shared batch.
  Batch pending_;
  BoundedSet<std::uint64_t> submitted_ids_{kSubmitDedupWindow};

  sim::TimerId election_timer_ = 0;
  sim::TimerId heartbeat_timer_ = 0;
  sim::TimerId resend_timer_ = 0;
  sim::TimerId batch_timer_ = 0;
};

}  // namespace dssmr::consensus
