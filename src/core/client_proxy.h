// Client proxy (Algorithm "DS-SMR Client Proxy" of the paper).
//
// The application calls issue(cmd, done) and eventually receives a reply; the
// proxy hides the whole partitioning machinery:
//
//   1. Optionally answer the destination question from the location cache
//      (Section "Performance optimizations"); otherwise consult the oracle.
//   2. If the prophecy spans several partitions, collocate first: in DS-SMR
//      mode the proxy multicasts a move command to {oracle} ∪ sources ∪
//      {destination}; in DynaStar mode the oracle has already issued the move
//      and the proxy waits for the destination partition's confirmation.
//   3. Multicast the command to the single destination partition.
//   4. A `retry` answer means the mapping changed under us: invalidate the
//      cache and go back to 1. After `max_retries` attempts, fall back to
//      S-SMR — multicast to every partition — which always terminates.
//
// The same proxy also implements the S-SMR baseline (`kStaticSsmr`): the
// oracle is a local immutable map and commands go straight to the statically
// assigned partitions (multi-partition commands use the S-SMR execution).
//
// Every network interaction is guarded by a timeout that re-sends with a
// fresh multicast id; logical command ids stay stable so servers answer
// retransmissions from their reply caches (end-to-end exactly-once).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "core/mapping.h"
#include "multicast/client.h"
#include "smr/command.h"
#include "stats/metrics.h"

namespace dssmr::core {

enum class Strategy : std::uint8_t {
  kStaticSsmr,  // S-SMR: static map, no oracle service, no moves
  kDssmr,       // DS-SMR: dynamic oracle, client-issued moves
  kDynaStar,    // extension: oracle-issued moves + workload-graph policy
};

const char* to_string(Strategy s);

struct ClientConfig {
  Strategy strategy = Strategy::kDssmr;
  bool use_cache = true;
  int max_retries = 3;
  Duration op_timeout = msec(250);
  GroupId oracle_group = kNoGroup;
  std::vector<GroupId> partitions;
  /// Live partition universe for the S-SMR fallback under elastic
  /// repartitioning. Points at the deployment's address-stable live-group
  /// list: retired partitions drop out and added ones join, so a fallback
  /// never waits on a drained group. nullptr (or in non-elastic runs,
  /// identical contents) falls back to `partitions`.
  const std::vector<GroupId>* partition_universe = nullptr;
  /// Required for kStaticSsmr.
  std::shared_ptr<const StaticMap> static_map;
  /// Send workload-graph hints to the oracle after commands that carry them.
  bool send_hints = false;
  /// Locality fast path (all off by default; see OracleConfig for the oracle
  /// halves). `prefetch` installs the prophecy's piggybacked co-access
  /// neighbours into the location cache; `cache_repair` consumes the
  /// ⟨var, partition, epoch⟩ repair entries on replies (monotone install) and
  /// lets a `retry` re-route directly from the repaired cache instead of
  /// restarting at the oracle.
  bool prefetch = false;
  bool cache_repair = false;
};

class ClientProxy : public multicast::ClientNode {
 public:
  using DoneFn = std::function<void(smr::ReplyCode, const net::MessagePtr& app_reply)>;

  void init_client(net::Network& network, const multicast::Directory& directory,
                   ClientConfig config, stats::Metrics* metrics);

  /// Issues one command; `done` fires exactly once. One outstanding command
  /// per proxy (clients are closed-loop, as in the paper's evaluation).
  void issue(smr::Command command, DoneFn done);

  bool busy() const { return phase_ != Phase::kIdle; }

  /// Location-cache introspection (tests).
  std::optional<GroupId> cached_location(VarId v) const;
  /// Cached-entry count (telemetry gauge).
  std::size_t cache_size() const { return cache_.size(); }
  const ClientConfig& config() const { return cfg_; }

  /// Installs piggybacked repair entries into the location cache. Monotone:
  /// an entry only lands when its epoch is strictly newer than what the cache
  /// already knows for that variable, so a stale (or forged-stale) repair can
  /// never roll a fresher mapping back. Public for tests.
  void apply_repair(const std::vector<smr::RepairEntry>& repair);
  /// The newest epoch the cache has seen for `v` (0 = never). Survives
  /// cache_.erase on retry, so re-installs stay monotone. Public for tests.
  std::uint64_t cached_epoch(VarId v) const;

 protected:
  void on_reply(ProcessId from, const net::MessagePtr& m) override;

 private:
  enum class Phase : std::uint8_t {
    kIdle,
    kConsult,
    kAwaitMove,
    kAwaitCommand,
    kAwaitFallback,
  };

  void start_attempt();
  void do_consult();
  void on_prophecy(const smr::ProphecyMsg& p);
  void send_dssmr_move(GroupId dest, const std::vector<GroupId>& sources);
  void send_command(std::vector<GroupId> dests, Phase next_phase);
  void do_fallback();
  void finish(smr::ReplyCode code, const net::MessagePtr& app_reply);
  void arm_timeout();
  void trace(stats::TraceEvent e, std::uint64_t id, std::int64_t arg = 0);

  /// The deployment span store, or nullptr when metrics are not wired.
  stats::SpanStore* spans();
  /// Folds one client-attributed phase span [start, now] into the trace.
  void record_phase(stats::SpanPhase p, Time start, GroupId group, std::int64_t arg = 0);
  /// Decomposes the post-send window [sent_at_, now] into amcast / queue /
  /// execute / reply spans using the server timestamps piggybacked on `r`
  /// (plus a leading batch span when submissions ride a batcher).
  void decompose_reply(const smr::ReplyMsg& r);

  ClientConfig cfg_;
  stats::Metrics* metrics_ = nullptr;

  /// Interned counter handles (resolved once in init_client); hot-path inc()
  /// avoids the per-call map lookup of Metrics::inc. Point at a shared dummy
  /// counter when no metrics sink is wired.
  struct Counters {
    stats::Counter* ops;
    stats::Counter* consults;
    stats::Counter* cache_hits;
    stats::Counter* multi_partition;
    stats::Counter* moves;
    stats::Counter* retries;
    stats::Counter* fallbacks;
    stats::Counter* timeouts;
    stats::Counter* hints;
    stats::Counter* ok;
    stats::Counter* nok;
    /// Locality fast path (interned only when the matching flag is on, so
    /// default-off runs never materialize `locality.*` counters and their
    /// run records stay byte-identical).
    stats::Counter* prefetch_installed;
    stats::Counter* prefetch_hits;
    stats::Counter* repairs;
    stats::Counter* repair_reroutes;
  } ctr_{};

  /// Interned histogram/series handles, same rationale as ctr_: finish() and
  /// send_dssmr_move run per command, so the by-name map lookups add up.
  /// nullptr when no metrics sink is wired.
  stats::Histogram* latency_hist_ = nullptr;
  stats::TimeSeries* completions_series_ = nullptr;
  stats::TimeSeries* moves_series_ = nullptr;

  Phase phase_ = Phase::kIdle;
  /// The outstanding command, wrapped once at issue(): every attempt, resend
  /// and consult carries this same immutable payload instead of a copy.
  std::shared_ptr<const smr::CommandMsg> cmd_msg_;
  const smr::Command& cmd() const { return cmd_msg_->cmd; }
  /// cmd().vars(), computed once per issue() into a buffer that keeps its
  /// capacity across commands.
  std::vector<VarId> cmd_vars_;
  /// Destinations of the current command send (resends reuse them).
  std::vector<GroupId> cmd_dests_;
  DoneFn done_;
  int retries_ = 0;
  Time issued_at_ = 0;
  /// Consult ids issued for the current attempt: retransmissions use fresh
  /// ids (see do_consult), and with timeouts shorter than the round trip the
  /// answer to an *older* consult may arrive first — it is equally valid, so
  /// any of them is accepted. Bounded: a new attempt purges the previous
  /// attempt's ids, and within one attempt only the newest
  /// kMaxOutstandingConsults survive (older answers are stale enough that
  /// re-asking beats accepting them).
  static constexpr std::size_t kMaxOutstandingConsults = 8;
  std::vector<std::uint64_t> outstanding_consults_;
  MsgId awaited_reply_{0};
  GroupId pending_dest_ = kNoGroup;
  std::function<void()> resend_;
  sim::TimerId timeout_ = 0;

  /// Span bookkeeping. The proxy is in exactly one phase at a time and phase
  /// transitions are synchronous, so tracking each segment's start suffices
  /// to attribute every microsecond of [issued_at_, finish] to one phase.
  std::uint64_t root_span_ = 0;  // pre-allocated root span id (0 = tracing off)
  Time consult_start_ = 0;
  Time move_start_ = 0;
  Time sent_at_ = 0;       // first multicast of the current command window
  /// When the batch carrying the current command's first send left the relay
  /// (0 until the flush callback fires; only set on the batched path).
  Time batch_flushed_at_ = 0;
  Time fallback_start_ = 0;

  /// Location cache (Section "Performance optimizations"): consulted on
  /// every access command, so it shares the oracle's open-addressing map.
  LocationMap cache_;
  /// Locality-fast-path sidecar for cache_: the newest epoch seen per
  /// variable (guards repair/prefetch installs against regression) plus
  /// whether the current cached entry came from a prophecy prefetch (counted
  /// once as a hit when the fast path uses it). Deliberately survives
  /// cache_.erase so monotonicity holds across retries.
  struct VarMeta {
    std::uint64_t epoch = 0;
    bool prefetched = false;
  };
  common::FlatMap<VarId, VarMeta> cache_meta_;

  void install_prefetch(const smr::ProphecyMsg& p);
  /// After a repaired retry: if every variable now resolves to one cached
  /// partition, re-send there directly (no oracle consult). Returns false
  /// when the repair did not pin all variables to a single destination.
  bool try_repair_reroute();
};

}  // namespace dssmr::core
