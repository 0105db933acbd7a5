#include "multicast/reliable.h"

#include <utility>

#include "common/assert.h"

namespace dssmr::multicast {

RmcastEngine::RmcastEngine(net::Network& network, const Directory& directory, bool relay,
                           DeliverFn deliver)
    : network_(network), directory_(directory), relay_(relay), deliver_(std::move(deliver)) {
  DSSMR_ASSERT(deliver_ != nullptr);
}

void RmcastEngine::rmcast(ProcessId self, std::vector<GroupId> dests,
                          net::MessagePtr payload) {
  normalize_dests(dests);
  const MsgId id{(static_cast<std::uint64_t>(self.value) << 32) |
                 (0x8000'0000ull + next_local_++)};
  auto msg = std::make_shared<const RmMsg>(id, self, dests, std::move(payload),
                                           /*relayed=*/false);
  bool self_is_dest = false;
  for (GroupId g : msg->dests) {
    for (ProcessId p : directory_.members(g)) {
      if (p == self) {
        self_is_dest = true;
        continue;
      }
      network_.send(self, p, msg);
    }
  }
  if (self_is_dest) deliver_if_new(self, *msg);
}

bool RmcastEngine::handle(ProcessId self, const net::MessagePtr& m) {
  const auto* rm = net::msg_cast<RmMsg>(m);
  if (rm == nullptr) return false;
  const bool fresh = !seen_.contains(rm->id);
  deliver_if_new(self, *rm);
  if (fresh && relay_ && !rm->relayed) {
    auto relayed = std::make_shared<const RmMsg>(rm->id, rm->origin, rm->dests, rm->payload,
                                                 /*relayed=*/true);
    for (GroupId g : rm->dests) {
      for (ProcessId p : directory_.members(g)) {
        if (p == self || p == rm->origin) continue;
        network_.send(self, p, relayed);
      }
    }
  }
  return true;
}

void RmcastEngine::deliver_if_new(ProcessId self, const RmMsg& m) {
  (void)self;
  if (!seen_.insert(m.id)) return;
  ++delivered_count_;
  deliver_(m.origin, m.payload);
}

}  // namespace dssmr::multicast
