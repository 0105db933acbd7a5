// Wire and log-entry types of the multicast layer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "consensus/paxos.h"
#include "net/message.h"

namespace dssmr::multicast {

/// An atomically multicast application message. `dests` is sorted and
/// duplicate-free; `sender` lets the executing servers address their reply.
struct AmcastMessage {
  MsgId id;
  ProcessId sender = kNoProcess;
  std::vector<GroupId> dests;
  net::MessagePtr payload;

  bool single_group() const { return dests.size() == 1; }
  std::size_t size_bytes() const {
    return 48 + dests.size() * 4 + (payload != nullptr ? payload->size_bytes() : 0);
  }
};

inline void normalize_dests(std::vector<GroupId>& dests) {
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
}

/// Log entry: "message m was addressed to this group" — processing it
/// assigns the group's local timestamp (Skeen step 1).
struct StampEntry final : net::Tagged<net::Kind::kStamp> {
  AmcastMessage msg;
  explicit StampEntry(AmcastMessage m) : msg(std::move(m)) {}
  std::size_t size_bytes() const override { return msg.size_bytes(); }
};

/// Log entry: "group `from` assigned timestamp `ts` to message `mid`"
/// (Skeen step 2, routed through the receiving group's log so that every
/// replica of the group observes timestamps in the same order).
struct TsEntry final : net::Tagged<net::Kind::kTs> {
  MsgId mid;
  GroupId from;
  std::uint64_t ts;
  TsEntry(MsgId m, GroupId f, std::uint64_t t) : mid(m), from(f), ts(t) {}
  std::size_t size_bytes() const override { return 32; }
};

/// Request that a group sequence `entry` into its log. Sent to every group
/// member; only the current Paxos leader acts on it, so duplicated
/// submissions collapse via the leader's entry-id dedup.
struct SubmitToLog final : net::Tagged<net::Kind::kSubmit> {
  GroupId gid;
  consensus::LogEntry entry;
  SubmitToLog(GroupId g, consensus::LogEntry e) : gid(g), entry(std::move(e)) {}
  std::size_t size_bytes() const override {
    return 32 + (entry.payload != nullptr ? entry.payload->size_bytes() : 0);
  }
};

/// A batch of log-entry submissions for one group, accumulated by a
/// SubmitBatcher (see multicast/batcher.h) and shipped as a single message.
/// Like SubmitToLog, it is sent to every group member and only the current
/// Paxos leader sequences the entries; the leader's entry-id dedup absorbs
/// duplicated batches from retries.
struct BatchSubmitMsg final : net::Tagged<net::Kind::kBatchSubmit> {
  GroupId gid;
  std::vector<consensus::LogEntry> entries;
  BatchSubmitMsg(GroupId g, std::vector<consensus::LogEntry> e)
      : gid(g), entries(std::move(e)) {}
  std::size_t size_bytes() const override {
    std::size_t n = 24;
    for (const auto& e : entries) {
      n += 16 + (e.payload != nullptr ? e.payload->size_bytes() : 0);
    }
    return n;
  }
};

/// Reliable-multicast envelope.
struct RmMsg final : net::Tagged<net::Kind::kRm> {
  MsgId id;
  ProcessId origin;
  std::vector<GroupId> dests;
  net::MessagePtr payload;
  bool relayed;  // true once forwarded by a receiver (stops re-relaying)
  RmMsg(MsgId i, ProcessId o, std::vector<GroupId> d, net::MessagePtr p, bool r)
      : id(i), origin(o), dests(std::move(d)), payload(std::move(p)), relayed(r) {}
  std::size_t size_bytes() const override {
    return 48 + dests.size() * 4 + (payload != nullptr ? payload->size_bytes() : 0);
  }
};

/// Mixes a message id and a group into a deterministic log-entry id, so that
/// retried submissions of the same logical entry deduplicate at the leader.
inline MsgId derive_entry_id(MsgId base, GroupId g, std::uint64_t salt) {
  std::uint64_t x = base.value ^
                    (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(g.value) + 1)) ^
                    (salt * 0xbf58476d1ce4e5b9ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return MsgId{x ^ (x >> 31)};
}

}  // namespace dssmr::multicast
