// Reliable multicast (Section 2.3 of the paper).
//
// Properties: validity (a correct sender's message reaches all correct
// destination-group members), agreement (if any correct process delivers,
// all correct destination members deliver) and integrity (at-most-once, only
// if sent). Implementation is the classic flooding scheme: the sender sends
// to every member of every destination group; on first receipt each member
// relays once to the other members, which masks a sender that crashes midway
// through its sends.
//
// Relaying costs O(n^2) messages per multicast. Experiments that do not
// inject crashes can disable it (`relay = false`); with per-pair reliable
// FIFO channels and no crashes, the direct sends alone already implement
// reliable multicast.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bounded.h"
#include "common/types.h"
#include "multicast/directory.h"
#include "multicast/messages.h"
#include "net/network.h"

namespace dssmr::multicast {

class RmcastEngine {
 public:
  /// `deliver` is invoked exactly once per multicast this process is a
  /// destination of, with the original sender and payload.
  using DeliverFn = std::function<void(ProcessId origin, const net::MessagePtr& payload)>;

  /// Ids of the last kSeenWindow deliveries are remembered to absorb relayed
  /// and duplicated copies, which arrive within a few network hops.
  static constexpr std::size_t kSeenWindow = std::size_t{1} << 16;

  RmcastEngine(net::Network& network, const Directory& directory, bool relay,
               DeliverFn deliver);

  /// Multicasts `payload` from `self` to all members of `dests`.
  /// If `self` is itself a member of a destination group, it self-delivers.
  void rmcast(ProcessId self, std::vector<GroupId> dests, net::MessagePtr payload);

  /// Routes an incoming message. Returns false when `m` is not an RmMsg.
  bool handle(ProcessId self, const net::MessagePtr& m);

  std::uint64_t delivered_count() const { return delivered_count_; }
  std::size_t seen_size() const { return seen_.size(); }

 private:
  void deliver_if_new(ProcessId self, const RmMsg& m);

  net::Network& network_;
  const Directory& directory_;
  bool relay_;
  DeliverFn deliver_;
  BoundedSet<MsgId> seen_{kSeenWindow};
  std::uint64_t delivered_count_ = 0;
  std::uint64_t next_local_ = 0;
};

}  // namespace dssmr::multicast
