// Shared test fixtures: minimal nodes over the real engine/network stack.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "consensus/paxos.h"
#include "multicast/atomic.h"
#include "multicast/client.h"
#include "multicast/directory.h"
#include "net/network.h"
#include "sim/engine.h"

namespace dssmr::testing {

/// Payload carrying a plain integer, for protocol-level tests.
struct IntMsg final : net::Tagged<net::Kind::kTestInt> {
  std::int64_t value;
  explicit IntMsg(std::int64_t v) : value(v) {}
};

/// A bare Paxos replica actor that records decided entries in order.
class TestPaxosNode : public net::Actor {
 public:
  void init(net::Network& network, GroupId gid, std::vector<ProcessId> members,
            consensus::PaxosConfig cfg, std::uint64_t seed) {
    network_ = &network;
    consensus::PaxosCore::Callbacks cb;
    cb.send = [this](ProcessId to, net::MessagePtr m) {
      if (on_send) on_send(to, m);
      network_->send(pid(), to, std::move(m));
    };
    cb.on_decide = [this](consensus::Slot slot, const consensus::Batch& batch) {
      for (const auto& e : batch) {
        decided_slots.push_back(slot);
        decided.push_back(e);
        if (on_entry) on_entry(e);
      }
    };
    core = std::make_unique<consensus::PaxosCore>(network.engine(), gid, std::move(members),
                                                  pid(), cfg, std::move(cb), seed);
  }

  void on_message(ProcessId from, const net::MessagePtr& m) override {
    core->handle(from, m);
  }

  std::unique_ptr<consensus::PaxosCore> core;
  /// Optional hook run inside on_decide for each decided entry.
  std::function<void(const consensus::LogEntry&)> on_entry;
  /// Optional hook run for each message the core sends.
  std::function<void(ProcessId to, const net::MessagePtr&)> on_send;
  std::vector<consensus::Slot> decided_slots;
  std::vector<consensus::LogEntry> decided;
  net::Network* network_ = nullptr;
};

/// GroupNode that records its atomic, reliable and direct deliveries.
class RecordingGroupNode : public multicast::GroupNode {
 public:
  std::vector<multicast::AmcastMessage> amdelivered;
  std::vector<net::MessagePtr> rmdelivered;
  std::vector<std::pair<ProcessId, net::MessagePtr>> direct;

 protected:
  void on_amdeliver(const multicast::AmcastMessage& m) override { amdelivered.push_back(m); }
  void on_rmdeliver(ProcessId, const net::MessagePtr& payload) override {
    rmdelivered.push_back(payload);
  }
  void on_direct(ProcessId from, const net::MessagePtr& m) override {
    direct.emplace_back(from, m);
  }
};

/// Client that records replies.
class RecordingClient : public multicast::ClientNode {
 public:
  std::vector<net::MessagePtr> replies;

 protected:
  void on_reply(ProcessId, const net::MessagePtr& m) override { replies.push_back(m); }
};

/// A full multicast fabric: `groups` groups of `replicas` RecordingGroupNodes
/// plus `clients` RecordingClients, wired and started.
class Fabric {
 public:
  Fabric(std::size_t groups, std::size_t replicas, std::size_t clients,
         net::NetworkConfig net_cfg = {}, multicast::GroupNodeConfig node_cfg = {},
         std::uint64_t seed = 7)
      : network(engine, net_cfg, seed) {
    replicas_per_group = replicas;
    for (std::size_t g = 0; g < groups; ++g) {
      std::vector<ProcessId> members;
      for (std::size_t r = 0; r < replicas; ++r) {
        auto node = std::make_unique<RecordingGroupNode>();
        members.push_back(network.add_process(*node, static_cast<int>(g % 2)));
        nodes.push_back(std::move(node));
      }
      directory.add_group(std::move(members));
    }
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t r = 0; r < replicas; ++r) {
        node(g, r).init_group_node(network, directory, GroupId{static_cast<std::uint32_t>(g)},
                                   node_cfg, seed * 1000 + g * 10 + r);
      }
    }
    for (auto& n : nodes) n->start();
    for (std::size_t c = 0; c < clients; ++c) {
      auto cl = std::make_unique<RecordingClient>();
      network.add_process(*cl, static_cast<int>(c % 2));
      cl->init_client_node(network, directory);
      this->clients.push_back(std::move(cl));
    }
  }

  RecordingGroupNode& node(std::size_t g, std::size_t r) {
    return *nodes[g * replicas_per_group + r];
  }

  sim::Engine engine;
  net::Network network;
  multicast::Directory directory;
  std::vector<std::unique_ptr<RecordingGroupNode>> nodes;
  std::vector<std::unique_ptr<RecordingClient>> clients;
  std::size_t replicas_per_group = 0;
};

}  // namespace dssmr::testing
