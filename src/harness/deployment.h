// Deployment builder: wires a full simulated cluster.
//
// Mirrors the paper's testbed shape: k partitions of r replicas each, an
// oracle group, and a population of closed-loop clients, spread over two
// "racks" (the two switches of the original cluster). All objects live in
// one Deployment so tests and benches construct an entire system in a few
// lines.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "core/client_proxy.h"
#include "core/mapping.h"
#include "core/oracle.h"
#include "core/server_proxy.h"
#include "multicast/batcher.h"
#include "multicast/directory.h"
#include "net/network.h"
#include "sim/engine.h"
#include "smr/app.h"
#include "stats/metrics.h"

namespace dssmr::harness {

using PolicyFactory = std::function<std::unique_ptr<core::OraclePolicy>()>;

struct DeploymentConfig {
  std::size_t partitions = 2;
  std::size_t replicas_per_partition = 3;
  std::size_t oracle_replicas = 3;
  std::size_t clients = 10;
  core::Strategy strategy = core::Strategy::kDssmr;

  net::NetworkConfig net;
  multicast::GroupNodeConfig node;
  core::PartitionServerConfig server;
  core::OracleConfig oracle;

  bool client_cache = true;
  int client_max_retries = 3;
  Duration client_timeout = msec(250);
  bool client_hints = false;

  /// Submission batching (multicast/batcher.h): 0 disables it and the
  /// deployment is byte-identical to a build without batching — no relay
  /// processes exist and group nodes construct no batcher. When > 0, one
  /// BatchRelay per rack collects its clients' multicasts and every group
  /// node batches its remote submissions with the same knobs.
  std::size_t batch_size = 0;
  /// Max virtual-time wait from the first queued submission to the flush.
  Duration batch_delay = usec(100);
  /// Paxos pipeline window: in-flight proposals per leader (0 = unbounded,
  /// the original single-slot-per-flush behavior).
  std::size_t pipeline_depth = 0;

  /// Locality fast path (all off by default; defaults keep the deployment —
  /// process layout, wire bytes, run record — byte-identical to a build
  /// without it). prefetch_k > 0 makes prophecies carry up to k co-accessed
  /// neighbour locations that clients install into their caches.
  std::size_t prefetch_k = 0;
  /// Replies piggyback ⟨var, partition, epoch⟩ repair entries; clients heal
  /// stale caches monotonically and re-route retries without re-consulting.
  bool cache_repair = false;

  Duration metrics_bucket = sec(1);
  std::uint64_t seed = 1;

  /// Enables the structured event trace (stats::Trace) for the whole
  /// deployment; off by default so hot paths only pay the enabled-check.
  bool trace = false;
  /// Enables causal span tracing (stats/span.h): per-command phase latency
  /// decomposition and Chrome-trace export. Same default-off rationale.
  bool spans = false;
  /// Caps the spans retained for export (0 = SpanStore default). Phase
  /// histograms and counts keep accumulating past the cap, so the run
  /// record's `phases` section stays complete; only the exported span list
  /// is truncated (benches cap it to keep Chrome traces loadable).
  std::size_t spans_capacity = 0;

  /// Enables flight-recorder telemetry (stats::Recorder): gauge sampling on
  /// a virtual-time cadence, windowed per-partition heat, windowed latency
  /// percentiles and timeline marks. Off by default; when off, no tick chain
  /// is scheduled and every record_* call is a one-branch no-op, so the
  /// virtual-time schedule is identical to a build without telemetry.
  bool telemetry = false;
  /// Gauge-sampling cadence and heat/latency bucket width.
  Duration telemetry_interval = msec(100);

  /// Elastic repartitioning (a ScalePlan will add/retire partitions mid-run).
  /// Off by default; when off, no elastic gauge registers and the deployment
  /// is byte-identical to a build without elasticity.
  bool elastic = false;
};

class Deployment {
 public:
  Deployment(DeploymentConfig config, smr::AppFactory app_factory,
             PolicyFactory policy_factory);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Arms all protocol timers. Call after preloading state.
  void start();

  /// Runs the simulation until every group has an elected leader (call after
  /// start(), before driving load).
  void settle(Duration max_wait = sec(2));

  /// Installs variable `v` on partition `p` with `value` on every replica,
  /// registers it with every oracle replica and the S-SMR static map.
  void preload_var(VarId v, GroupId p, const smr::VarValue& value);

  /// Pre-sizes the oracle mappings and the static map for `n` variables —
  /// call before the preload loop to avoid rehash churn during setup.
  void reserve_vars(std::size_t n);

  sim::Engine& engine() { return engine_; }
  net::Network& network() { return network_; }
  stats::Metrics& metrics() { return metrics_; }
  const DeploymentConfig& config() const { return config_; }

  /// GroupId layout: the initial k partitions take ids 0..k-1 and the oracle
  /// holds the fixed id k for the deployment's whole lifetime. Dynamically
  /// added partition i (i >= k) takes id i+1, skipping over the oracle's
  /// reserved band — the id is still exactly what Directory::add_group hands
  /// out, because the oracle group was registered between the initial
  /// partitions and any elastic one.
  GroupId partition_gid(std::size_t i) const {
    return GroupId{static_cast<std::uint32_t>(i < config_.partitions ? i : i + 1)};
  }
  GroupId oracle_gid() const { return GroupId{static_cast<std::uint32_t>(config_.partitions)}; }
  std::vector<GroupId> partition_gids() const;

  /// Partitions ever created, including retired ones (indexes `server()`).
  std::size_t partition_count() const { return servers_.size() / config_.replicas_per_partition; }
  /// GroupIds of the partitions currently serving (admitted, not retired).
  /// The vector's address is stable for the deployment's lifetime — clients
  /// hold a pointer to it as their fallback-destination universe.
  const std::vector<GroupId>& live_partition_gids() const { return live_partition_gids_; }
  bool partition_retired(std::size_t i) const { return retired_[i]; }

  /// Boots a fresh replica group mid-run (elastic scale-out): registers the
  /// processes and the multicast group, wires trace/spans/metrics and starts
  /// the replicas. The oracle does NOT know about it yet — the caller (the
  /// Scaler) must follow up with an atomically multicast membership record so
  /// every oracle replica admits it at the same point in the command order.
  GroupId add_partition();

  /// Finalizes a drain (elastic scale-in): marks every replica of `i` retired
  /// — they keep participating in multicast (in-flight commands addressed to
  /// them must still deliver) but answer kRetired — and removes the group
  /// from the clients' fallback universe. Call only once drained() holds.
  void finish_retire(std::size_t i);

  /// Drain barrier predicate for partition `i`: no replica owns a variable,
  /// queues and pending multicasts are empty, and every live oracle replica's
  /// mapping shows zero load on it.
  bool partition_drained(std::size_t i);

  core::PartitionServer& server(std::size_t partition, std::size_t replica);
  core::OracleNode& oracle(std::size_t replica) { return *oracles_[replica]; }
  core::ClientProxy& client(std::size_t i) { return *clients_[i]; }
  std::size_t client_count() const { return clients_.size(); }
  /// Client-tier batch relays (empty when batching is off).
  std::size_t relay_count() const { return relays_.size(); }
  multicast::BatchRelay& relay(std::size_t i) { return *relays_[i]; }

  core::StaticMap& static_map() { return *static_map_; }

  /// Sum of executed commands over one replica of each partition.
  std::uint64_t total_executed() const;

  /// Whole-deployment consistency audit, meaningful once the system is
  /// quiescent (run the engine until in-flight work drains first):
  ///   * every variable is owned by at most one partition;
  ///   * replicas of a partition agree on the owned set;
  ///   * the oracle's mapping points at the actual owner;
  ///   * oracle replicas agree with each other.
  /// Returns human-readable violations (empty = consistent).
  std::vector<std::string> audit_consistency();

 private:
  /// Registers the standard gauge set with the recorder (queue depths,
  /// in-flight messages, cache occupancy, pending amcast, oracle state).
  void register_telemetry_gauges();
  /// One telemetry tick: sample gauges, then reschedule. The chain keeps one
  /// event pending forever, so telemetry runs must drive the engine with
  /// run_until (run-to-empty would never drain).
  void telemetry_tick();

  DeploymentConfig config_;
  /// Kept for elastic add_partition(): late replica groups are constructed
  /// with the same factories as the initial ones.
  smr::AppFactory app_factory_;
  PolicyFactory policy_factory_;
  sim::Engine engine_;
  net::Network network_;
  multicast::Directory directory_;
  stats::Metrics metrics_;
  std::shared_ptr<core::StaticMap> static_map_;
  /// Live (non-retired) partition GroupIds; address-stable, see accessor.
  std::vector<GroupId> live_partition_gids_;
  /// Parallel to partition indices (partition_count() entries).
  std::vector<bool> retired_;
  std::vector<std::unique_ptr<core::PartitionServer>> servers_;
  std::vector<std::unique_ptr<core::OracleNode>> oracles_;
  /// One per rack when batching is on; registered after the oracles so that
  /// batching-off deployments keep the exact seed process-id layout.
  std::vector<std::unique_ptr<multicast::BatchRelay>> relays_;
  std::vector<std::unique_ptr<core::ClientProxy>> clients_;
};

}  // namespace dssmr::harness
