// Commands, prophecies and replies — the vocabulary shared by clients,
// partition servers and the oracle (Section 3 of the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/message.h"

namespace dssmr::smr {

/// The five DS-SMR command types. Consult is carried separately (it never
/// reaches a partition); the rest are delivered to partitions by atomic
/// multicast.
enum class CommandType : std::uint8_t {
  kAccess,    // application command reading/writing a set of variables
  kCreate,    // create one variable
  kDelete,    // delete one variable
  kMove,      // relocate a set of variables to one partition
  kReconfig,  // partition-membership record (elastic add/retire), oracle-only
};

const char* to_string(CommandType t);

struct Command {
  CommandType type = CommandType::kAccess;
  /// Stable across client retries; servers deduplicate on it.
  MsgId id{};
  /// Causal trace id (stats/span.h): the root client command's id, set by the
  /// issuing client proxy and copied onto derived commands (moves), so every
  /// layer's spans land in the same trace tree. 0 when tracing is off.
  std::uint64_t trace_id = 0;
  /// Process the reply should go to when it differs from the multicast
  /// submitter (oracle-issued moves are answered to the consulting client).
  ProcessId requester = kNoProcess;

  // -- kAccess --------------------------------------------------------------
  /// Application opcode, interpreted by the AppStateMachine.
  std::uint32_t op = 0;
  /// Variables read / written. For create/delete/move these double as the
  /// target variable set.
  std::vector<VarId> read_set;
  std::vector<VarId> write_set;
  /// Opaque application argument (e.g. the text of a post).
  std::string arg;

  // -- kReconfig ------------------------------------------------------------
  // Membership records are multicast to the oracle group only, so they ride
  // the kMove fields: move_dest names the affected partition and `op` is 0
  // for add, 1 for retire (see core/oracle.h kReconfigAdd/kReconfigRetire).

  // -- kMove ----------------------------------------------------------------
  /// Source partitions variables may currently live in.
  std::vector<GroupId> move_sources;
  /// Destination partition.
  GroupId move_dest = kNoGroup;
  /// Mapping epoch each moved variable reaches once installed (parallel to
  /// vars(), which is sorted): the issuer's known epoch + 1. Only filled when
  /// piggybacked cache repair is on — empty keeps the wire size identical to
  /// the pre-locality code.
  std::vector<std::uint64_t> move_epochs;

  /// Workload-graph edges this command implies (filled by the application for
  /// structural operations); the client proxy forwards them to DynaStar-style
  /// oracles after a successful execution.
  std::vector<std::pair<VarId, VarId>> hint_edges;

  /// read_set ∪ write_set, deduplicated (sorted).
  std::vector<VarId> vars() const;
  /// Same as vars(), written into `out` (cleared first), so a caller that
  /// keeps the buffer reuses its capacity.
  void vars_into(std::vector<VarId>& out) const;

  /// Approximate wire size (drives the bandwidth model).
  std::size_t size_bytes() const;
};

/// A command shared read-only by everything that handles it after issue: the
/// client's attempts and consults, and every server execution closure. Often
/// an aliasing pointer into the CommandMsg that carries it.
using CommandPtr = std::shared_ptr<const Command>;

/// Envelope for a command travelling through atomic multicast.
struct CommandMsg final : net::Tagged<net::Kind::kCommand> {
  Command cmd;
  explicit CommandMsg(Command c) : cmd(std::move(c)) {}
  std::size_t size_bytes() const override { return cmd.size_bytes(); }
  std::uint64_t trace_id() const override { return cmd.trace_id; }
};

enum class ReplyCode : std::uint8_t {
  kOk,
  kRetry,    // partition did not hold all variables — re-consult the oracle
  kNok,      // command cannot execute (missing/duplicate variable)
  kRetired,  // partition has drained and left the deployment — re-consult
};

const char* to_string(ReplyCode c);

/// One piggybacked cache-repair fact: "variable `var` lives on `loc` as of
/// mapping epoch `epoch`". Clients install it only when `epoch` is strictly
/// newer than what they hold, so a delayed repair can never roll a cache
/// back (see the locality fast path in DESIGN.md).
struct RepairEntry {
  VarId var;
  GroupId loc = kNoGroup;
  std::uint64_t epoch = 0;
};

/// Server-side timestamps piggybacked on replies (Dapper-style annotations):
/// when the executing group delivered the command, and when execution started
/// and finished on its simulated CPU. The client proxy uses them to decompose
/// its post-send wait into amcast / queue / execute / reply span phases.
/// All-zero when the server predates tracing or answered without executing.
struct ReplyTiming {
  Time delivered_at = 0;
  Time exec_start = 0;
  Time exec_end = 0;
};

/// Server -> client reply.
struct ReplyMsg final : net::Tagged<net::Kind::kReply> {
  MsgId cmd_id;
  ReplyCode code;
  GroupId from_group;
  net::MessagePtr app_reply;  // application-level result (may be null)
  ReplyTiming timing;
  /// Piggybacked cache repair for the command's variables (empty unless the
  /// server runs with cache repair on): current ⟨var, partition, epoch⟩ as
  /// the replying partition knows them, including forwarding pointers for
  /// variables it moved away. Lets a kRetry re-route directly instead of
  /// restarting at the oracle.
  std::vector<RepairEntry> repair;
  ReplyMsg(MsgId id, ReplyCode c, GroupId g, net::MessagePtr r = nullptr,
           ReplyTiming t = {}, std::vector<RepairEntry> rep = {})
      : cmd_id(id), code(c), from_group(g), app_reply(std::move(r)), timing(t),
        repair(std::move(rep)) {}
  std::size_t size_bytes() const override {
    return 32 + 24 + repair.size() * 20 +
           (app_reply != nullptr ? app_reply->size_bytes() : 0);
  }
};

/// Move destination -> client: which of the move's variables are actually
/// installed (held before the move or shipped by a source). Carried as the
/// move reply's app payload. Variables missing from `installed` hit a stale
/// mapping — no source shipped them and the destination gave their claim up —
/// so the client must not cache them at the destination.
struct MoveResultMsg final : net::Tagged<net::Kind::kMoveResult> {
  std::vector<VarId> installed;
  explicit MoveResultMsg(std::vector<VarId> v) : installed(std::move(v)) {}
  std::size_t size_bytes() const override { return 16 + installed.size() * 8; }
};

// ---- oracle interaction -----------------------------------------------------

/// Client -> oracle: which partitions does `cmd` touch?
struct ConsultMsg final : net::Tagged<net::Kind::kConsult> {
  MsgId consult_id;  // distinct from cmd->id (one command may re-consult)
  /// The consulting client shares its outstanding command here (an aliasing
  /// pointer into its CommandMsg) rather than copying it per consult.
  CommandPtr cmd;
  ConsultMsg(MsgId id, CommandPtr c) : consult_id(id), cmd(std::move(c)) {}
  std::size_t size_bytes() const override { return 16 + cmd->size_bytes(); }
  std::uint64_t trace_id() const override { return cmd->trace_id; }
};

/// The oracle's answer (the paper's "prophecy").
struct ProphecyMsg final : net::Tagged<net::Kind::kProphecy> {
  MsgId consult_id;
  ReplyCode code;  // kNok when the command cannot execute
  /// Per-variable location, <v, P>.
  std::vector<std::pair<VarId, GroupId>> locations;
  /// Destination the oracle recommends for collocation (kNoGroup if the
  /// command is already single-partition).
  GroupId dest = kNoGroup;
  /// True when the oracle itself issued the move (DynaStar mode) and the
  /// client must wait for the destination partition before multicasting.
  bool oracle_moved = false;
  /// Mapping epochs parallel to `locations` (locality fast path; filled only
  /// when cache repair is on, else empty and free on the wire).
  std::vector<std::uint64_t> epochs;
  /// Prophecy prefetch: up to --prefetch-k variables recently co-accessed
  /// with the command's, with their current locations, so the client warms
  /// its cache and skips future consults. Empty when prefetch is off.
  std::vector<RepairEntry> prefetch;

  ProphecyMsg(MsgId id, ReplyCode c) : consult_id(id), code(c) {}
  std::size_t size_bytes() const override {
    return 32 + locations.size() * 12 + epochs.size() * 8 + prefetch.size() * 20;
  }
};

/// Workload hint: edges of the workload graph (DynaStar-style oracles).
struct HintMsg final : net::Tagged<net::Kind::kHint> {
  std::vector<std::pair<VarId, VarId>> edges;
  explicit HintMsg(std::vector<std::pair<VarId, VarId>> e) : edges(std::move(e)) {}
  std::size_t size_bytes() const override { return 16 + edges.size() * 16; }
};

// ---- inter-partition coordination -------------------------------------------

struct VarValue;  // smr/app.h

/// Variables (possibly none) shipped from one partition to another for a
/// command: S-SMR variable exchange when `is_move` is false, ownership
/// transfer when true. An empty `vars` still counts as the sender's signal.
struct VarShipMsg final : net::Tagged<net::Kind::kVarShip> {
  MsgId cmd_id;
  GroupId from_group;
  bool is_move;
  /// Cloned snapshots; receivers clone again before mutating.
  std::vector<std::pair<VarId, std::shared_ptr<const VarValue>>> vars;

  VarShipMsg(MsgId id, GroupId g, bool mv,
             std::vector<std::pair<VarId, std::shared_ptr<const VarValue>>> v)
      : cmd_id(id), from_group(g), is_move(mv), vars(std::move(v)) {}
  std::size_t size_bytes() const override;
};

/// Execution-atomicity signal (create/delete coordination with the oracle).
struct SignalMsg final : net::Tagged<net::Kind::kSignal> {
  MsgId cmd_id;
  GroupId from_group;
  SignalMsg(MsgId id, GroupId g) : cmd_id(id), from_group(g) {}
  std::size_t size_bytes() const override { return 24; }
};

}  // namespace dssmr::smr
