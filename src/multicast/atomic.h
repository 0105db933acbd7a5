// Genuine atomic multicast across groups (Section 2.4 of the paper),
// implemented Skeen-style over the per-group Paxos logs.
//
// Protocol, per destination group g of message m:
//   1. The submitter gets a StampEntry(m) sequenced in g's log. Processing it
//      advances g's logical clock and assigns m's local timestamp ts_g(m).
//      All replicas of g derive the same clock because they consume the same
//      log. If m addresses only g, ts_g(m) is final immediately.
//   2. For multi-group messages, g's current leader submits TsEntry(m, g,
//      ts_g(m)) into every other destination group's log (retried across
//      leader changes; receivers deduplicate). A pull path (TsQuery) covers
//      the corner where a group delivered m and stopped pushing while a peer
//      group still lacks its timestamp.
//   3. When g has processed timestamps from all of m.dests, the final
//      timestamp is their maximum, and m is delivered once no other pending
//      message can precede it: every other stamped-but-undelivered message's
//      timestamp lower bound must exceed (final_ts(m), m.id). Messages not
//      yet stamped cannot overtake, because stamping always exceeds the
//      clock, which is >= final_ts(m) by the time m finalizes.
//
// This yields integrity, uniform agreement (from Paxos), acyclic delivery
// order and prefix order — exactly the primitive S-SMR/DS-SMR assume.
//
// GroupNode bundles one Paxos replica + the amcast state machine + a
// reliable-multicast engine into a single simulated process; the SMR server
// proxy and the oracle replica derive from it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/bounded.h"
#include "common/types.h"
#include "consensus/paxos.h"
#include "multicast/batcher.h"
#include "multicast/directory.h"
#include "multicast/messages.h"
#include "multicast/reliable.h"
#include "net/network.h"
#include "sim/engine.h"
#include "stats/metrics.h"
#include "stats/span.h"
#include "stats/trace.h"

namespace dssmr::multicast {

/// Pull request for a missing timestamp (see step 2 above).
struct TsQuery final : net::Tagged<net::Kind::kTsQuery> {
  MsgId mid;
  GroupId requester;
  TsQuery(MsgId m, GroupId r) : mid(m), requester(r) {}
  std::size_t size_bytes() const override { return 24; }
};

class AmcastCore {
 public:
  struct Callbacks {
    /// Atomic delivery, in the group's total order. `stamped_at` is when this
    /// group stamped the message (step 1) — the delivery latency m spent in
    /// the multicast here is now - stamped_at.
    std::function<void(const AmcastMessage&, Time stamped_at)> deliver;
    /// Submit `entry` for sequencing in group `g` (leader duty).
    std::function<void(GroupId g, consensus::LogEntry entry)> submit_remote;
    /// Ask the members of group `g` for their timestamp of `mid`.
    std::function<void(GroupId g, MsgId mid)> query_ts;
    /// Whether this replica currently leads its group.
    std::function<bool()> is_leader;
  };

  AmcastCore(sim::Engine& engine, GroupId self_group, Callbacks callbacks,
             Duration ts_retry_interval);

  /// Consumes one decided log entry (in log order). Returns false if the
  /// entry's payload is not an amcast entry type.
  bool on_log_entry(const consensus::LogEntry& entry);

  /// Re-issues timestamp propagation for unfinished messages; call when this
  /// replica gains leadership.
  void on_gained_leadership();

  /// This group's timestamp for `mid`, if it stamped the message recently
  /// (pending now, or delivered within the retention window).
  std::optional<std::uint64_t> lookup_ts(MsgId mid) const;

  void halt();
  /// Undoes halt(): re-arms the timestamp-retry timer. Pending state is kept
  /// — the replica re-learns any missed log entries through Paxos and the
  /// dedup here absorbs the replay.
  void restart();

  std::uint64_t delivered_count() const { return delivered_count_; }
  std::size_t pending_count() const { return pending_.size(); }
  std::uint64_t clock() const { return clock_; }

 private:
  /// Groups whose timestamp for a message was seen (ours too, once stamped)
  /// and the largest of them: all the protocol reads. Inline for up to eight
  /// groups; only a wider message spills to the heap.
  class GroupTimestamps {
   public:
    /// Returns false if `g`'s timestamp was already seen.
    bool add(GroupId g, std::uint64_t ts) {
      if (contains(g)) return false;
      (n_ < inline_.size() ? inline_[n_] : spill_.emplace_back()) = g;
      ++n_;
      max_ = std::max(max_, ts);
      return true;
    }
    bool contains(GroupId g) const {
      const auto end = inline_.begin() + std::min<std::size_t>(n_, inline_.size());
      return std::find(inline_.begin(), end, g) != end ||
             std::find(spill_.begin(), spill_.end(), g) != spill_.end();
    }
    std::size_t size() const { return n_; }
    std::uint64_t max() const { return max_; }

   private:
    std::array<GroupId, 8> inline_{};
    std::vector<GroupId> spill_;
    std::uint32_t n_ = 0;
    std::uint64_t max_ = 0;
  };

  struct Pending {
    MsgId id;
    /// The stamp entry this group sequenced (null until stamped here): an
    /// aliasing pointer into the decided log entry's payload, so the message
    /// is neither copied on stamping nor on delivery, and a stale stamp is
    /// re-disseminated by re-submitting this very payload.
    std::shared_ptr<const StampEntry> stamp;
    std::optional<std::uint64_t> local_ts;  // our group's timestamp
    GroupTimestamps ts;                     // per-group timestamps seen
    std::optional<std::uint64_t> final_ts;
    Time stamped_at = 0;
    /// Lower bound on the final timestamp given current knowledge.
    std::uint64_t bound() const { return final_ts.value_or(ts.max()); }
  };

  /// The pending entry for `mid`, inserted in id order if absent.
  Pending& pending_entry(MsgId mid);
  void process_stamp(const net::MessagePtr& payload, const StampEntry& e);
  void process_ts(const TsEntry& e);
  void maybe_finalize(Pending& p);
  void push_ts(const Pending& p, bool pull_missing);
  void try_deliver();
  void arm_retry_timer();

  sim::Engine& engine_;
  GroupId self_group_;
  Callbacks cb_;
  Duration ts_retry_interval_;
  bool halted_ = false;

  std::uint64_t clock_ = 0;
  /// Sorted by id, so timestamp pushes go out in id order; every operation
  /// stays within the O(pending) scan try_deliver() already pays.
  std::vector<Pending> pending_;
  BoundedSet<MsgId> delivered_;
  BoundedMap<MsgId, std::uint64_t> delivered_ts_;
  std::uint64_t delivered_count_ = 0;
  sim::TimerId retry_timer_ = 0;
};

// ---------------------------------------------------------------------------

struct GroupNodeConfig {
  consensus::PaxosConfig paxos;
  Duration ts_retry_interval = msec(50);
  /// Reliable-multicast flooding (turn off in crash-free perf runs).
  bool rmcast_relay = true;
  /// Server-tier submission batching: remote submissions (timestamp pushes,
  /// stamp re-disseminations) queue in an embedded SubmitBatcher instead of
  /// fanning out per entry. Off by default — the node then constructs no
  /// batcher and the message schedule matches the pre-batching code exactly.
  BatchConfig batching;
};

/// A replica process belonging to exactly one multicast group.
class GroupNode : public net::Actor {
 public:
  GroupNode() = default;
  ~GroupNode() override = default;

  /// Two-phase init: the node must already be registered with the network
  /// (so pid() is valid) and `directory` must already contain the group.
  void init_group_node(net::Network& network, const Directory& directory, GroupId gid,
                       GroupNodeConfig config, std::uint64_t seed);

  /// Arms Paxos timers; call on every node after the whole deployment is wired.
  virtual void start();

  /// Stops timers and silences the node (simulated crash, usually together
  /// with Network::crash). A halted node processes no messages at all: even
  /// if the network still delivers to it, it answers nothing.
  void halt_node();

  /// Rejoins after halt_node(): the node comes back as a follower and
  /// re-learns the log it missed via Paxos catch-up. Pair with
  /// Network::recover when the crash also cut the network.
  void restart_node();

  bool halted() const { return halted_; }

  void on_message(ProcessId from, const net::MessagePtr& m) final;

  GroupId group() const { return gid_; }
  bool is_leader() const { return paxos_ != nullptr && paxos_->is_leader(); }
  const Directory& directory() const { return *directory_; }
  net::Network& network() { return *network_; }
  sim::Engine& engine() { return network_->engine(); }

  /// Atomically multicasts `payload` to `dests` (this node acts as submitter;
  /// used by servers that originate commands, e.g. an oracle issuing moves).
  MsgId amcast(std::vector<GroupId> dests, net::MessagePtr payload);

  /// Reliably multicasts to the members of `dests`.
  void rmcast(std::vector<GroupId> dests, net::MessagePtr payload);

  /// Point-to-point message (replies to clients).
  void send_direct(ProcessId to, net::MessagePtr payload);

  std::uint64_t amcast_delivered() const { return amcast_->delivered_count(); }
  /// Stamped-but-undelivered multicasts at this replica (telemetry gauge).
  std::size_t amcast_pending() const { return amcast_->pending_count(); }
  /// Undecided Paxos proposals in flight here (telemetry gauge; nonzero only
  /// while leading).
  std::size_t paxos_inflight() const { return paxos_->inflight_proposals(); }
  /// Entries queued in the embedded server-tier batcher (0 when batching is
  /// off or nothing is queued).
  std::size_t batch_pending() const {
    return batcher_ != nullptr ? batcher_->pending_entries() : 0;
  }

  /// Wires the deployment-wide event trace (leader-gated kAmcastDeliver here,
  /// kLeaderChange in the Paxos core). Call after init_group_node().
  void set_trace(stats::Trace* trace);

  /// Wires the deployment-wide span store: each traced payload delivered here
  /// gets a leader-gated kAmcast span covering stamp -> delivery. Call after
  /// init_group_node().
  void set_spans(stats::SpanStore* spans) { spans_ = spans; }

  /// Wires the deployment-wide metrics registry: interns a leader-gated
  /// `amcast.delivered` counter bumped once per group delivery (the interned
  /// handle keeps the per-delivery hot path free of by-name map lookups),
  /// and hands the registry to the Paxos core for `paxos.learn_gap_slots`.
  /// Call after init_group_node().
  void set_metrics(stats::Metrics* metrics);

 protected:
  /// Atomic delivery hook — same sequence on every group member.
  virtual void on_amdeliver(const AmcastMessage& m) = 0;
  /// Reliable delivery hook.
  virtual void on_rmdeliver(ProcessId origin, const net::MessagePtr& payload) = 0;
  /// Everything that is not consensus/multicast traffic.
  virtual void on_direct(ProcessId from, const net::MessagePtr& m) {
    (void)from;
    (void)m;
  }

  MsgId next_msg_id();

 private:
  void submit_local_or_remote(GroupId g, consensus::LogEntry entry);

  net::Network* network_ = nullptr;
  const Directory* directory_ = nullptr;
  GroupId gid_ = kNoGroup;
  GroupNodeConfig config_;
  bool halted_ = false;
  std::unique_ptr<consensus::PaxosCore> paxos_;
  std::unique_ptr<AmcastCore> amcast_;
  std::unique_ptr<RmcastEngine> rmcast_;
  /// Server-tier submission batcher; null unless config_.batching enables it.
  std::unique_ptr<SubmitBatcher> batcher_;
  stats::Trace* trace_ = nullptr;
  stats::SpanStore* spans_ = nullptr;
  /// Interned by set_metrics(); nullptr when no metrics sink is wired.
  stats::Counter* delivered_ctr_ = nullptr;
  std::uint64_t next_msg_seq_ = 0;
};

}  // namespace dssmr::multicast
