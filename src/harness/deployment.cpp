#include "harness/deployment.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/assert.h"

namespace dssmr::harness {

Deployment::Deployment(DeploymentConfig config, smr::AppFactory app_factory,
                       PolicyFactory policy_factory)
    : config_(config),
      app_factory_(std::move(app_factory)),
      policy_factory_(std::move(policy_factory)),
      network_(engine_, config.net, config.seed),
      metrics_(config.metrics_bucket),
      static_map_(std::make_shared<core::StaticMap>()) {
  DSSMR_ASSERT(config_.partitions >= 1);
  DSSMR_ASSERT(config_.replicas_per_partition >= 1);
  DSSMR_ASSERT(config_.oracle_replicas >= 1);

  if (config_.trace) metrics_.trace().enable();
  if (config_.spans) {
    metrics_.spans().enable();
    if (config_.spans_capacity != 0) metrics_.spans().set_capacity(config_.spans_capacity);
    for (std::size_t p = 0; p < config_.partitions; ++p) {
      metrics_.spans().set_group_name(partition_gid(p), "partition " + std::to_string(p));
    }
    metrics_.spans().set_group_name(oracle_gid(), "oracle");
  }

  config_.server.oracle_group = GroupId{static_cast<std::uint32_t>(config_.partitions)};

  // Batching/pipelining knobs fan into the per-node configs before any node
  // is initialized. batch_size == 0 leaves both configs at their defaults,
  // so the deployment stays byte-identical to the pre-batching layout.
  config_.node.batching.batch_size = config_.batch_size;
  config_.node.batching.batch_delay = config_.batch_delay;
  config_.node.paxos.pipeline_depth = config_.pipeline_depth;

  // Locality fast path: fan the deployment knobs into the per-node configs.
  // All default off, leaving every config at its pre-locality value.
  config_.oracle.prefetch_k = config_.prefetch_k;
  config_.oracle.cache_repair = config_.cache_repair;
  config_.server.cache_repair = config_.cache_repair;

  // Register partition replicas: partition i lives in rack i % 2 (two
  // switches in the paper's testbed).
  for (std::size_t p = 0; p < config_.partitions; ++p) {
    std::vector<ProcessId> members;
    for (std::size_t r = 0; r < config_.replicas_per_partition; ++r) {
      auto node = std::make_unique<core::PartitionServer>();
      members.push_back(network_.add_process(*node, static_cast<int>(p % 2)));
      servers_.push_back(std::move(node));
    }
    directory_.add_group(std::move(members));
    static_map_->partitions.push_back(partition_gid(p));
    live_partition_gids_.push_back(partition_gid(p));
    retired_.push_back(false);
  }

  // Oracle group, rack 0.
  {
    std::vector<ProcessId> members;
    for (std::size_t r = 0; r < config_.oracle_replicas; ++r) {
      auto node = std::make_unique<core::OracleNode>();
      members.push_back(network_.add_process(*node, 0));
      oracles_.push_back(std::move(node));
    }
    directory_.add_group(std::move(members));
  }

  // Init nodes now that the directory is complete.
  for (std::size_t p = 0; p < config_.partitions; ++p) {
    for (std::size_t r = 0; r < config_.replicas_per_partition; ++r) {
      server(p, r).init_partition(network_, directory_, partition_gid(p), config_.node,
                                  app_factory_, config_.server, &metrics_,
                                  config_.seed * 7919 + p * 131 + r);
      server(p, r).set_trace(&metrics_.trace());
      server(p, r).set_spans(&metrics_.spans());
      server(p, r).set_metrics(&metrics_);
    }
  }
  for (std::size_t r = 0; r < config_.oracle_replicas; ++r) {
    DSSMR_ASSERT(policy_factory_ != nullptr);
    oracles_[r]->init_oracle(network_, directory_, oracle_gid(), config_.node,
                             policy_factory_(), partition_gids(), config_.oracle, &metrics_,
                             config_.seed * 104729 + r);
    oracles_[r]->set_trace(&metrics_.trace());
    oracles_[r]->set_spans(&metrics_.spans());
    oracles_[r]->set_metrics(&metrics_);
  }

  // Client-tier batch relays, one per rack, only when batching is on (the
  // process-id layout must not shift for batching-off runs).
  if (config_.node.batching.enabled()) {
    for (int rack = 0; rack < 2; ++rack) {
      auto relay = std::make_unique<multicast::BatchRelay>();
      network_.add_process(*relay, rack);
      relay->init_relay(network_, directory_, config_.node.batching);
      relay->batcher().set_metrics(&metrics_);
      relays_.push_back(std::move(relay));
    }
  }

  // Clients, alternating racks.
  core::ClientConfig ccfg;
  ccfg.strategy = config_.strategy;
  ccfg.use_cache = config_.client_cache;
  ccfg.max_retries = config_.client_max_retries;
  ccfg.op_timeout = config_.client_timeout;
  ccfg.oracle_group = oracle_gid();
  ccfg.partitions = partition_gids();
  // Fallback universe tracks elastic membership; initially identical to
  // ccfg.partitions, so non-elastic runs behave (and serialize) the same.
  ccfg.partition_universe = &live_partition_gids_;
  ccfg.static_map = static_map_;
  ccfg.send_hints = config_.client_hints;
  ccfg.prefetch = config_.prefetch_k > 0;
  ccfg.cache_repair = config_.cache_repair;
  for (std::size_t c = 0; c < config_.clients; ++c) {
    auto client = std::make_unique<core::ClientProxy>();
    network_.add_process(*client, static_cast<int>(c % 2));
    client->init_client(network_, directory_, ccfg, &metrics_);
    if (!relays_.empty()) client->set_batcher(&relays_[c % relays_.size()]->batcher());
    clients_.push_back(std::move(client));
  }

  if (config_.telemetry) {
    metrics_.recorder().enable(config_.telemetry_interval, config_.partitions);
    register_telemetry_gauges();
  }
}

void Deployment::register_telemetry_gauges() {
  stats::Recorder& rec = metrics_.recorder();

  // Per-partition execution-queue depth: the max over live replicas (a
  // crashed replica's frozen queue would otherwise mask the live ones).
  for (std::size_t p = 0; p < config_.partitions; ++p) {
    rec.register_gauge("queue_depth.p" + std::to_string(p), [this, p] {
      std::size_t depth = 0;
      for (std::size_t r = 0; r < config_.replicas_per_partition; ++r) {
        core::PartitionServer& s = server(p, r);
        if (!s.halted()) depth = std::max(depth, s.queue_depth());
      }
      return static_cast<double>(depth);
    });
  }
  rec.register_gauge("oracle.queue_depth", [this] {
    std::size_t depth = 0;
    for (auto& o : oracles_) {
      if (!o->halted()) depth = std::max(depth, o->queue_depth());
    }
    return static_cast<double>(depth);
  });

  // Messages currently in flight on the simulated network.
  rec.register_gauge("net.in_flight", [this] {
    const net::NetworkStats& s = network_.stats();
    return static_cast<double>(s.messages_sent - s.messages_delivered - s.messages_dropped);
  });

  // Stamped-but-undelivered atomic multicasts, summed over every group node.
  rec.register_gauge("amcast.pending", [this] {
    std::size_t pending = 0;
    for (auto& s : servers_) pending += s->amcast_pending();
    for (auto& o : oracles_) pending += o->amcast_pending();
    return static_cast<double>(pending);
  });

  // Reply-cache occupancy, summed over partition replicas.
  rec.register_gauge("reply_cache.entries", [this] {
    std::size_t entries = 0;
    for (auto& s : servers_) entries += s->reply_cache_size();
    return static_cast<double>(entries);
  });

  // Client location caches: total cached entries and the cumulative hit rate
  // (hits / consult-or-hit decisions so far).
  rec.register_gauge("client_cache.entries", [this] {
    std::size_t entries = 0;
    for (auto& c : clients_) entries += c->cache_size();
    return static_cast<double>(entries);
  });
  rec.register_gauge("client_cache.hit_rate", [this] {
    const std::uint64_t hits = metrics_.counter("client.cache_hits");
    const std::uint64_t consults = metrics_.counter("client.consults");
    const std::uint64_t decisions = hits + consults;
    return decisions == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(decisions);
  });

  // Batching/pipelining occupancy, only when the knobs are live (the gauge
  // set of a batching-off run must match the pre-batching one).
  if (config_.node.batching.enabled() || config_.pipeline_depth != 0) {
    rec.register_gauge("batch.occupancy", [this] {
      std::size_t queued = 0;
      for (auto& rl : relays_) queued += rl->batcher().pending_entries();
      for (auto& s : servers_) queued += s->batch_pending();
      for (auto& o : oracles_) queued += o->batch_pending();
      return static_cast<double>(queued);
    });
    rec.register_gauge("paxos.pipeline_inflight", [this] {
      std::size_t inflight = 0;
      for (auto& s : servers_) inflight += s->paxos_inflight();
      for (auto& o : oracles_) inflight += o->paxos_inflight();
      return static_cast<double>(inflight);
    });
  }

  // Locality fast path: cache hit rate vs. consult rate over time (the
  // report's cache-effectiveness sparkline). Only when a locality flag is on —
  // the gauge set of a locality-off run must match the pre-locality one.
  if (config_.prefetch_k > 0 || config_.cache_repair) {
    rec.register_gauge("locality.window_hit_rate", [this] {
      const std::uint64_t hits = metrics_.counter("client.cache_hits");
      const std::uint64_t consults = metrics_.counter("client.consults");
      const std::uint64_t decisions = hits + consults;
      return decisions == 0 ? 0.0
                            : static_cast<double>(hits) / static_cast<double>(decisions);
    });
    rec.register_gauge("locality.consult_rate", [this] {
      const std::uint64_t ops = metrics_.counter("client.ops");
      const std::uint64_t consults = metrics_.counter("client.consults");
      return ops == 0 ? 0.0 : static_cast<double>(consults) / static_cast<double>(ops);
    });
  }

  // Elastic repartitioning: live partition count over time (the report's
  // partition-count strip). Only when a scale plan is armed — the gauge set
  // of a non-elastic run must match the pre-elasticity one.
  if (config_.elastic) {
    rec.register_gauge("elastic.partitions",
                       [this] { return static_cast<double>(live_partition_gids_.size()); });
  }

  // Oracle state: mapped variables and (for DynaStar-style policies) the
  // workload-graph size. Replica 0's view — replicas hold identical state.
  rec.register_gauge("oracle.mapped_vars", [this] {
    return static_cast<double>(oracles_[0]->mapping().var_count());
  });
  rec.register_gauge("oracle.graph_edges", [this] {
    return static_cast<double>(oracles_[0]->policy().workload_graph_edges());
  });
}

void Deployment::telemetry_tick() {
  metrics_.recorder().tick(engine_.now());
  engine_.schedule(config_.telemetry_interval, [this] { telemetry_tick(); });
}

std::vector<GroupId> Deployment::partition_gids() const {
  std::vector<GroupId> gids;
  gids.reserve(config_.partitions);
  for (std::size_t p = 0; p < config_.partitions; ++p) gids.push_back(partition_gid(p));
  return gids;
}

core::PartitionServer& Deployment::server(std::size_t partition, std::size_t replica) {
  return *servers_[partition * config_.replicas_per_partition + replica];
}

GroupId Deployment::add_partition() {
  const std::size_t p = partition_count();
  std::vector<ProcessId> members;
  for (std::size_t r = 0; r < config_.replicas_per_partition; ++r) {
    auto node = std::make_unique<core::PartitionServer>();
    members.push_back(network_.add_process(*node, static_cast<int>(p % 2)));
    servers_.push_back(std::move(node));
  }
  const GroupId gid = directory_.add_group(std::move(members));
  // The directory hands out dense ids; the oracle group registered right
  // after the initial partitions, so the next id is exactly partition_gid(p)
  // (which skips the oracle's reserved band).
  DSSMR_ASSERT(gid == partition_gid(p));
  if (config_.spans) {
    metrics_.spans().set_group_name(gid, "partition " + std::to_string(p));
  }
  for (std::size_t r = 0; r < config_.replicas_per_partition; ++r) {
    server(p, r).init_partition(network_, directory_, gid, config_.node, app_factory_,
                                config_.server, &metrics_, config_.seed * 7919 + p * 131 + r);
    server(p, r).set_trace(&metrics_.trace());
    server(p, r).set_spans(&metrics_.spans());
    server(p, r).set_metrics(&metrics_);
    server(p, r).start();
  }
  live_partition_gids_.push_back(gid);
  retired_.push_back(false);
  return gid;
}

void Deployment::finish_retire(std::size_t i) {
  DSSMR_ASSERT(i < partition_count());
  DSSMR_ASSERT_MSG(!retired_[i], "partition retired twice");
  retired_[i] = true;
  const GroupId gid = partition_gid(i);
  for (std::size_t r = 0; r < config_.replicas_per_partition; ++r) {
    server(i, r).set_retired();
  }
  live_partition_gids_.erase(
      std::remove(live_partition_gids_.begin(), live_partition_gids_.end(), gid),
      live_partition_gids_.end());
  DSSMR_ASSERT_MSG(!live_partition_gids_.empty(), "retired the last partition");
}

bool Deployment::partition_drained(std::size_t i) {
  const GroupId gid = partition_gid(i);
  for (std::size_t r = 0; r < config_.replicas_per_partition; ++r) {
    core::PartitionServer& s = server(i, r);
    if (s.halted()) continue;  // a crashed replica re-learns the log on recovery
    if (s.owned_count() != 0 || s.queue_depth() != 0 || s.amcast_pending() != 0) return false;
  }
  for (auto& o : oracles_) {
    if (o->halted()) continue;
    if (o->mapping().load(gid) != 0) return false;
  }
  return true;
}

void Deployment::reserve_vars(std::size_t n) {
  for (auto& o : oracles_) o->reserve_vars(n);
  static_map_->location.reserve(n);
}

void Deployment::preload_var(VarId v, GroupId p, const smr::VarValue& value) {
  for (std::size_t r = 0; r < config_.replicas_per_partition; ++r) {
    server(p.value, r).preload(v, value.clone());
  }
  for (auto& o : oracles_) o->preload(v, p);
  static_map_->location[v] = p;
}

void Deployment::start() {
  for (auto& s : servers_) s->start();
  for (auto& o : oracles_) o->start();
  // First telemetry sample lands one interval in; the chain then keeps one
  // event pending forever (drive the engine with run_until, not run-to-empty).
  if (config_.telemetry) {
    engine_.schedule(config_.telemetry_interval, [this] { telemetry_tick(); });
  }
}

void Deployment::settle(Duration max_wait) {
  const Time deadline = engine_.now() + max_wait;
  while (engine_.now() < deadline) {
    bool all_led = true;
    for (std::size_t p = 0; p < config_.partitions && all_led; ++p) {
      bool led = false;
      for (std::size_t r = 0; r < config_.replicas_per_partition; ++r) {
        led = led || server(p, r).is_leader();
      }
      all_led = led;
    }
    if (all_led) {
      bool led = false;
      for (auto& o : oracles_) led = led || o->is_leader();
      all_led = led;
    }
    if (all_led) return;
    engine_.run_until(std::min<Time>(engine_.now() + msec(10), deadline));
  }
  DSSMR_FAIL("deployment did not elect leaders in time");
}

std::vector<std::string> Deployment::audit_consistency() {
  std::vector<std::string> violations;
  auto complain = [&violations](const std::string& what) { violations.push_back(what); };

  // Reference replica per partition: the first live one (a crashed replica's
  // state is legitimately stale). Retired partitions stay in the audit — they
  // must own nothing and agree on it.
  std::vector<std::size_t> ref_replica(partition_count(), config_.replicas_per_partition);
  for (std::size_t p = 0; p < partition_count(); ++p) {
    for (std::size_t r = 0; r < config_.replicas_per_partition; ++r) {
      if (!network_.crashed(server(p, r).pid())) {
        ref_replica[p] = r;
        break;
      }
    }
    if (ref_replica[p] == config_.replicas_per_partition) {
      std::ostringstream os;
      os << "partition " << p << " has no live replica";
      complain(os.str());
      return violations;
    }
  }

  // 1. Live replicas of each partition agree on the owned set.
  for (std::size_t p = 0; p < partition_count(); ++p) {
    const auto& ref = server(p, ref_replica[p]).owned_vars();
    for (std::size_t r = ref_replica[p] + 1; r < config_.replicas_per_partition; ++r) {
      if (network_.crashed(server(p, r).pid())) continue;
      const auto& other = server(p, r).owned_vars();
      if (ref != other) {
        std::ostringstream os;
        os << "partition " << p << ": replica " << r << " owns " << other.size()
           << " vars, replica " << ref_replica[p] << " owns " << ref.size();
        complain(os.str());
      }
    }
  }

  // 2. Every variable is owned by at most one partition.
  std::unordered_map<VarId, GroupId> owner;
  for (std::size_t p = 0; p < partition_count(); ++p) {
    for (VarId v : server(p, ref_replica[p]).owned_vars()) {
      auto [it, inserted] = owner.try_emplace(v, partition_gid(p));
      if (!inserted) {
        std::ostringstream os;
        os << "var " << v.value << " owned by partitions " << it->second.value << " and "
           << p;
        complain(os.str());
      }
    }
  }

  // 3. The oracle mapping points at the actual owner.
  std::size_t ref_oracle = 0;
  while (ref_oracle < oracles_.size() && network_.crashed(oracles_[ref_oracle]->pid())) {
    ++ref_oracle;
  }
  if (ref_oracle == oracles_.size()) {
    complain("no live oracle replica");
    return violations;
  }
  const auto& mapping = oracles_[ref_oracle]->mapping();
  for (const auto& [v, p] : mapping.entries()) {
    auto it = owner.find(v);
    if (it == owner.end()) {
      std::ostringstream os;
      os << "oracle maps var " << v.value << " to partition " << p.value
         << " but no partition owns it";
      complain(os.str());
    } else if (it->second != p) {
      std::ostringstream os;
      os << "oracle maps var " << v.value << " to partition " << p.value
         << " but partition " << it->second.value << " owns it";
      complain(os.str());
    }
  }
  for (const auto& [v, p] : owner) {
    (void)p;
    if (!mapping.contains(v)) {
      std::ostringstream os;
      os << "var " << v.value << " is owned but unknown to the oracle";
      complain(os.str());
    }
  }

  // 4. Live oracle replicas agree.
  for (std::size_t r = ref_oracle + 1; r < oracles_.size(); ++r) {
    if (network_.crashed(oracles_[r]->pid())) continue;
    if (oracles_[r]->mapping().entries() != mapping.entries()) {
      std::ostringstream os;
      os << "oracle replica " << r << " mapping diverges from replica " << ref_oracle;
      complain(os.str());
    }
  }
  return violations;
}

std::uint64_t Deployment::total_executed() const {
  std::uint64_t n = 0;
  for (std::size_t p = 0; p < partition_count(); ++p) {
    n += const_cast<Deployment*>(this)->server(p, 0).executed_count();
  }
  return n;
}

}  // namespace dssmr::harness
