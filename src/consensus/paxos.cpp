#include "consensus/paxos.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "stats/metrics.h"

namespace dssmr::consensus {
namespace {

std::size_t batch_bytes(const BatchPtr& b) {
  std::size_t n = 16;
  for (const auto& e : *b) n += 16 + (e.payload != nullptr ? e.payload->size_bytes() : 0);
  return n;
}

/// Moves `entries[first, last)` into a new right-sized shared batch.
BatchPtr share_batch(Batch::iterator first, Batch::iterator last) {
  return std::make_shared<const Batch>(std::make_move_iterator(first),
                                       std::make_move_iterator(last));
}

}  // namespace

std::size_t P1b::size_bytes() const {
  std::size_t n = 64;
  for (const auto& [slot, entry] : accepted) {
    (void)slot;
    n += batch_bytes(entry.second);
  }
  return n;
}

std::size_t P2a::size_bytes() const { return 64 + batch_bytes(batch); }
std::size_t CommitMsg::size_bytes() const { return 64 + batch_bytes(batch); }

PaxosCore::PaxosCore(sim::Engine& engine, GroupId gid, std::vector<ProcessId> members,
                     ProcessId self, PaxosConfig config, Callbacks callbacks,
                     std::uint64_t seed)
    : engine_(engine),
      gid_(gid),
      members_(std::move(members)),
      self_(self),
      cfg_(config),
      cb_(std::move(callbacks)),
      rng_(seed) {
  DSSMR_ASSERT_MSG(!members_.empty(), "group needs at least one member");
  DSSMR_ASSERT_MSG(members_.size() <= 64, "member sets are 64-bit masks");
  DSSMR_ASSERT(cb_.send != nullptr && cb_.on_decide != nullptr);
  self_index_ = index_of(self_);
}

std::uint32_t PaxosCore::index_of(ProcessId p) const {
  for (std::uint32_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == p) return i;
  }
  DSSMR_FAIL("process is not a member of this group");
}

void PaxosCore::start() {
  if (self_index_ == 0) {
    // Bootstrap: the first member stands for election right away.
    engine_.schedule(usec(1), [this] {
      if (!halted_ && role_ == Role::Follower && max_seen_ballot_ == 0) start_election();
    });
  }
  arm_election_timer();
}

void PaxosCore::halt() {
  halted_ = true;
  engine_.cancel(election_timer_);
  engine_.cancel(heartbeat_timer_);
  engine_.cancel(resend_timer_);
  engine_.cancel(batch_timer_);
  election_timer_ = heartbeat_timer_ = resend_timer_ = batch_timer_ = 0;
}

void PaxosCore::restart() {
  if (!halted_) return;
  halted_ = false;
  role_ = Role::Follower;
  ballot_ = 0;
  p1b_granted_ = 0;
  p1b_accepted_.clear();
  clear_proposals();
  pending_.clear();
  submitted_ids_ = BoundedSet<std::uint64_t>(kSubmitDedupWindow);
  // The election timer doubles as the catch-up trigger: the current leader's
  // next heartbeat arrives well before it fires and carries a committed slot
  // ahead of ours, so maybe_request_catchup() pulls the missed log tail.
  arm_election_timer();
}

BatchPtr PaxosCore::decided_batch(Slot slot) const {
  return slot >= base_ && slot < top_ ? at(slot).decided : nullptr;
}

PaxosCore::SlotRecord& PaxosCore::touch(Slot slot) {
  DSSMR_ASSERT(slot >= base_);
  if (slot - base_ >= ring_.size()) {
    const std::size_t capacity = std::max<std::size_t>(16, std::bit_ceil(slot - base_ + 1));
    std::vector<SlotRecord> grown(capacity);
    for (Slot s = base_; s < top_; ++s) grown[s & (capacity - 1)] = std::move(at(s));
    ring_ = std::move(grown);
  }
  top_ = std::max(top_, slot + 1);
  return at(slot);
}

void PaxosCore::retire_proposal(SlotRecord& r) {
  if (r.proposal == nullptr || r.proposal_decided) return;
  r.proposal_decided = true;
  if (inflight_ > 0) --inflight_;
}

void PaxosCore::clear_proposals() {
  for (Slot s = base_; s < top_; ++s) {
    SlotRecord& r = at(s);
    r.proposal = nullptr;
    r.acks = 0;
    r.proposal_decided = false;
  }
  inflight_ = 0;
}

ProcessId PaxosCore::leader_hint() const {
  if (role_ == Role::Leader) return self_;
  if (max_seen_ballot_ == 0) return members_[0];
  return members_[ballot_owner_index(max_seen_ballot_) % members_.size()];
}

void PaxosCore::broadcast(const net::MessagePtr& m) {
  for (ProcessId p : members_) {
    if (p == self_) continue;
    cb_.send(p, m);
  }
}

// ---- timers ----------------------------------------------------------------

void PaxosCore::arm_election_timer() {
  if (halted_) return;
  engine_.cancel(election_timer_);
  const Duration t = cfg_.election_timeout + rng_.range(0, cfg_.election_timeout);
  election_timer_ = engine_.schedule(t, [this] {
    election_timer_ = 0;
    if (halted_ || role_ == Role::Leader) return;
    start_election();
  });
}

void PaxosCore::arm_heartbeat_timer() {
  if (halted_ || role_ != Role::Leader) return;
  engine_.cancel(heartbeat_timer_);
  heartbeat_timer_ = engine_.schedule(cfg_.heartbeat_interval, [this] {
    heartbeat_timer_ = 0;
    if (halted_ || role_ != Role::Leader) return;
    broadcast(net::make_msg<HeartbeatMsg>(gid_, ballot_, next_deliver_ - 1));
    arm_heartbeat_timer();
  });
}

void PaxosCore::arm_resend_timer() {
  if (halted_ || role_ != Role::Leader) return;
  engine_.cancel(resend_timer_);
  resend_timer_ = engine_.schedule(cfg_.resend_interval, [this] {
    resend_timer_ = 0;
    if (halted_ || role_ != Role::Leader) return;
    // Undecided proposals all sit at or above the delivery point.
    for (Slot s = next_deliver_; s < top_; ++s) {
      const SlotRecord& r = at(s);
      if (r.proposal != nullptr && !r.proposal_decided) {
        broadcast(net::make_msg<P2a>(gid_, ballot_, s, r.proposal));
      }
    }
    arm_resend_timer();
  });
}

void PaxosCore::arm_batch_timer() {
  if (halted_ || batch_timer_ != 0) return;
  batch_timer_ = engine_.schedule(cfg_.batch_delay, [this] {
    batch_timer_ = 0;
    if (!halted_ && role_ == Role::Leader) flush_pending();
  });
}

// ---- election --------------------------------------------------------------

void PaxosCore::start_election() {
  role_ = Role::Candidate;
  ballot_ = make_ballot(ballot_round(max_seen_ballot_) + 1, self_index_);
  max_seen_ballot_ = ballot_;
  p1b_granted_ = 0;
  p1b_accepted_.clear();

  // Grant own promise.
  if (ballot_ > promised_) promised_ = ballot_;
  p1b_granted_ |= bit(self_index_);
  for (Slot s = next_deliver_; s < top_; ++s) {
    const SlotRecord& r = at(s);
    // Decided-but-not-everywhere slots are also "accepted" by us.
    if (r.decided != nullptr) {
      p1b_accepted_[s] = {promised_, r.decided};
    } else if (r.accepted != nullptr) {
      p1b_accepted_[s] = {r.accepted_ballot, r.accepted};
    }
  }

  broadcast(net::make_msg<P1a>(gid_, ballot_, next_deliver_ - 1));
  arm_election_timer();  // retry with a higher round if this attempt stalls
  if (count(p1b_granted_) >= majority()) become_leader();
}

void PaxosCore::become_leader() {
  role_ = Role::Leader;
  clear_proposals();
  if (trace_ != nullptr) {
    trace_->record(stats::TraceEvent::kLeaderChange, engine_.now(), self_.value, gid_.value,
                   static_cast<std::int64_t>(ballot_));
  }

  Slot max_slot = next_deliver_ - 1;
  for (const auto& [slot, acc] : p1b_accepted_) max_slot = std::max(max_slot, slot);
  next_slot_ = std::max(next_slot_, max_slot + 1);

  // Re-propose every potentially-chosen value; fill gaps with no-ops so the
  // log stays contiguous.
  for (Slot s = next_deliver_; s <= max_slot; ++s) {
    auto it = p1b_accepted_.find(s);
    propose(s, it != p1b_accepted_.end() ? it->second.second : std::make_shared<const Batch>());
  }
  p1b_accepted_.clear();

  engine_.cancel(election_timer_);
  election_timer_ = 0;
  arm_heartbeat_timer();
  arm_resend_timer();
  if (cb_.on_leadership) cb_.on_leadership(true);
  if (!pending_.empty()) flush_pending();
}

void PaxosCore::step_down(Ballot seen) {
  max_seen_ballot_ = std::max(max_seen_ballot_, seen);
  if (role_ == Role::Leader && cb_.on_leadership) cb_.on_leadership(false);
  role_ = Role::Follower;
  engine_.cancel(heartbeat_timer_);
  engine_.cancel(resend_timer_);
  heartbeat_timer_ = resend_timer_ = 0;
  arm_election_timer();
}

// ---- submission ------------------------------------------------------------

bool PaxosCore::submit(LogEntry entry) {
  if (halted_ || role_ != Role::Leader) return false;
  if (!submitted_ids_.insert(entry.id.value)) return true;  // duplicate
  pending_.push_back(std::move(entry));
  if (pending_.size() >= cfg_.max_batch) {
    flush_pending();
  } else {
    arm_batch_timer();
  }
  return true;
}

void PaxosCore::flush_pending() {
  // Each batch leaves pending_ before it is proposed: in a one-member group
  // propose() decides at once, and decide() may re-enter flush_pending() or
  // a submit() may land, both of which must see only the entries still owed.
  if (cfg_.pipeline_depth == 0) {
    // Unbounded: everything pending becomes one slot (original behavior).
    if (pending_.empty()) return;
    BatchPtr batch = share_batch(pending_.begin(), pending_.end());
    pending_.clear();
    propose(next_slot_++, std::move(batch));
    return;
  }
  // Pipelined: propose chunks of up to max_batch while the window has room.
  // Leftover entries stay pending and are re-flushed as decisions land, so
  // under load the per-slot batches grow instead of the slot count.
  while (!pending_.empty() && inflight_ < cfg_.pipeline_depth) {
    const auto chunk_end =
        pending_.begin() + static_cast<std::ptrdiff_t>(std::min(pending_.size(), cfg_.max_batch));
    BatchPtr batch = share_batch(pending_.begin(), chunk_end);
    pending_.erase(pending_.begin(), chunk_end);
    propose(next_slot_++, std::move(batch));
  }
  if (!pending_.empty()) arm_batch_timer();
}

void PaxosCore::propose(Slot slot, BatchPtr batch) {
  if (slot < next_deliver_) {
    // Only a deposed leader that has not heard of its successor can get here:
    // the successor's commits carried delivery past next_slot_. The slot is
    // decided already, so nothing is recorded; the acceptors' refusal of the
    // P2a makes this replica step down.
    broadcast(net::make_msg<P2a>(gid_, ballot_, slot, std::move(batch)));
    return;
  }
  SlotRecord& r = touch(slot);
  if (r.proposal != nullptr && r.proposal_decided) return;
  if (r.proposal == nullptr) ++inflight_;
  r.proposal = std::move(batch);
  r.acks = bit(self_index_);

  // Self-accept.
  r.accepted_ballot = ballot_;
  r.accepted = r.proposal;

  const BatchPtr proposed = r.proposal;  // decide() may grow the ring
  const bool chosen = count(r.acks) >= majority();
  broadcast(net::make_msg<P2a>(gid_, ballot_, slot, proposed));
  if (chosen) decide(slot, proposed, /*broadcast_commit=*/true);
}

// ---- message handling ------------------------------------------------------

bool PaxosCore::handle(ProcessId from, const net::MessagePtr& m) {
  if (halted_) return false;
  // Each arm hands the payload on only when it belongs to this group.
  const auto route = [&](const auto& msg, auto handler) {
    if (msg.gid != gid_) return false;
    (this->*handler)(from, msg);
    return true;
  };
  switch (m->kind()) {
    case net::Kind::kP1a: return route(net::msg_as<P1a>(m), &PaxosCore::handle_p1a);
    case net::Kind::kP1b: return route(net::msg_as<P1b>(m), &PaxosCore::handle_p1b);
    case net::Kind::kP2a: return route(net::msg_as<P2a>(m), &PaxosCore::handle_p2a);
    case net::Kind::kP2b: return route(net::msg_as<P2b>(m), &PaxosCore::handle_p2b);
    case net::Kind::kCommit: return route(net::msg_as<CommitMsg>(m), &PaxosCore::handle_commit);
    case net::Kind::kHeartbeat:
      return route(net::msg_as<HeartbeatMsg>(m), &PaxosCore::handle_heartbeat);
    case net::Kind::kLearnReq:
      return route(net::msg_as<LearnReq>(m), &PaxosCore::handle_learnreq);
    default: return false;
  }
}

void PaxosCore::handle_p1a(ProcessId from, const P1a& m) {
  if (m.ballot > promised_) {
    promised_ = m.ballot;
    if (m.ballot > max_seen_ballot_ || role_ != Role::Follower) step_down(m.ballot);
    max_seen_ballot_ = std::max(max_seen_ballot_, m.ballot);

    AcceptedMap acc;
    for (Slot s = std::max(base_, m.committed + 1); s < top_; ++s) {
      const SlotRecord& r = at(s);
      if (r.decided != nullptr) {
        acc[s] = {promised_, r.decided};
      } else if (r.accepted != nullptr) {
        acc[s] = {r.accepted_ballot, r.accepted};
      }
    }
    cb_.send(from, net::make_msg<P1b>(gid_, m.ballot, true, next_deliver_ - 1, std::move(acc)));
  } else {
    cb_.send(from, net::make_msg<P1b>(gid_, m.ballot, false, next_deliver_ - 1, AcceptedMap{}));
  }
  arm_election_timer();
}

void PaxosCore::handle_p1b(ProcessId from, const P1b& m) {
  if (role_ != Role::Candidate || m.ballot != ballot_) return;
  if (!m.granted) {
    // Someone promised a higher ballot; back off and retry later.
    step_down(std::max(max_seen_ballot_, m.ballot));
    return;
  }
  p1b_granted_ |= bit(index_of(from));
  for (const auto& [slot, entry] : m.accepted) {
    auto it = p1b_accepted_.find(slot);
    if (it == p1b_accepted_.end() || entry.first > it->second.first) {
      p1b_accepted_[slot] = entry;
    }
  }
  if (count(p1b_granted_) >= majority()) become_leader();
}

void PaxosCore::handle_p2a(ProcessId from, const P2a& m) {
  max_seen_ballot_ = std::max(max_seen_ballot_, m.ballot);
  if (m.ballot >= promised_) {
    promised_ = m.ballot;
    if (role_ != Role::Follower && ballot_ != m.ballot) step_down(m.ballot);
    if (m.slot >= next_deliver_) {
      SlotRecord& r = touch(m.slot);
      r.accepted_ballot = m.ballot;
      r.accepted = m.batch;
    }
    cb_.send(from, net::make_msg<P2b>(gid_, m.ballot, m.slot, true));
    arm_election_timer();
  } else {
    cb_.send(from, net::make_msg<P2b>(gid_, m.ballot, m.slot, false));
  }
}

void PaxosCore::handle_p2b(ProcessId from, const P2b& m) {
  if (role_ != Role::Leader || m.ballot != ballot_) return;
  if (!m.accepted) {
    step_down(std::max(max_seen_ballot_, m.ballot + 1));
    return;
  }
  if (m.slot < base_ || m.slot >= top_) return;
  SlotRecord& r = at(m.slot);
  if (r.proposal == nullptr || r.proposal_decided) return;
  r.acks |= bit(index_of(from));
  if (count(r.acks) >= majority()) {
    const BatchPtr chosen = r.proposal;  // decide() may grow the ring
    decide(m.slot, chosen, /*broadcast_commit=*/true);
  }
}

void PaxosCore::handle_commit(ProcessId /*from*/, const CommitMsg& m) {
  decide(m.slot, m.batch, /*broadcast_commit=*/false);
}

void PaxosCore::handle_heartbeat(ProcessId from, const HeartbeatMsg& m) {
  max_seen_ballot_ = std::max(max_seen_ballot_, m.ballot);
  if (role_ == Role::Leader && m.ballot > ballot_) step_down(m.ballot);
  if (role_ != Role::Leader) arm_election_timer();
  maybe_request_catchup(m.committed, from);
}

void PaxosCore::handle_learnreq(ProcessId from, const LearnReq& m) {
  if (m.from < base_) {
    // Trimmed already: the requester can never learn these slots from us.
    const Slot gap = base_ - m.from;
    learn_gap_slots_ += gap;
    if (metrics_ != nullptr) metrics_->inc("paxos.learn_gap_slots", gap);
  }
  // Every slot in [base_, next_deliver_) is decided.
  for (Slot s = std::max(base_, m.from); s < next_deliver_; ++s) {
    cb_.send(from, net::make_msg<CommitMsg>(gid_, s, at(s).decided));
  }
}

void PaxosCore::maybe_request_catchup(Slot leader_committed, ProcessId from) {
  if (leader_committed >= next_deliver_) {
    cb_.send(from, net::make_msg<LearnReq>(gid_, next_deliver_));
  }
}

// ---- learning --------------------------------------------------------------

void PaxosCore::decide(Slot slot, const BatchPtr& batch, bool broadcast_commit) {
  if (slot < next_deliver_) return;  // already delivered
  SlotRecord& r = touch(slot);
  const bool fresh = r.decided == nullptr;
  if (fresh) r.decided = batch;
  retire_proposal(r);
  if (broadcast_commit && fresh) {
    broadcast(net::make_msg<CommitMsg>(gid_, slot, batch));
  }
  advance_delivery();
  // A decision freed a pipeline slot; push the backlog into it right away.
  if (cfg_.pipeline_depth != 0 && role_ == Role::Leader && !pending_.empty() &&
      inflight_ < cfg_.pipeline_depth) {
    flush_pending();
  }
}

void PaxosCore::advance_delivery() {
  while (next_deliver_ < top_ && at(next_deliver_).decided != nullptr) {
    SlotRecord& r = at(next_deliver_);
    // A new leader re-proposes slots it had already learned past a gap; when
    // the gap fills, those are delivered before their own quorum answers.
    // They are decided either way, so they leave the pipeline here.
    retire_proposal(r);
    const Slot slot = next_deliver_++;
    const BatchPtr batch = r.decided;  // on_decide may grow the ring
    cb_.on_decide(slot, *batch);
  }
  trim();
}

void PaxosCore::trim() {
  if (next_deliver_ <= cfg_.retain_window) return;
  const Slot low = next_deliver_ - cfg_.retain_window;
  for (; base_ < low; ++base_) {
    SlotRecord& r = at(base_);
    DSSMR_ASSERT_MSG(r.proposal == nullptr || r.proposal_decided,
                     "undecided proposal below the delivery point");
    r = SlotRecord{};
  }
}

}  // namespace dssmr::consensus
