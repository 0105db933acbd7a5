#include "multicast/client.h"

#include <utility>

#include "common/assert.h"

namespace dssmr::multicast {

void ClientNode::init_client_node(net::Network& network, const Directory& directory) {
  DSSMR_ASSERT_MSG(pid() != kNoProcess, "register the client with the network first");
  network_ = &network;
  directory_ = &directory;
}

void ClientNode::on_message(ProcessId from, const net::MessagePtr& m) {
  on_reply(from, m);
}

MsgId ClientNode::fresh_id() {
  return MsgId{(static_cast<std::uint64_t>(pid().value) << 32) | next_msg_seq_++};
}

void ClientNode::amcast_with_id(MsgId id, std::vector<GroupId> dests, net::MessagePtr payload,
                                SubmitBatcher::FlushFn on_flush) {
  normalize_dests(dests);
  AmcastMessage msg{id, pid(), std::move(dests), std::move(payload)};
  if (batcher_ != nullptr) {
    batcher_->amcast(std::move(msg), std::move(on_flush));
    return;
  }
  const auto stamp = net::make_msg<StampEntry>(std::move(msg));
  for (GroupId g : stamp->msg.dests) {
    auto wrapped = net::make_msg<SubmitToLog>(
        g, consensus::LogEntry{derive_entry_id(id, g, 0x57a3), stamp});
    for (ProcessId p : directory_->members(g)) network_->send(pid(), p, wrapped);
  }
}

MsgId ClientNode::amcast(std::vector<GroupId> dests, net::MessagePtr payload) {
  const MsgId id = fresh_id();
  amcast_with_id(id, std::move(dests), std::move(payload));
  return id;
}

}  // namespace dssmr::multicast
