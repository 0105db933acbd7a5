// Message base type for all inter-process traffic.
//
// Processes in the simulation share an address space, so "serialization" is
// a shared_ptr to an immutable payload; size_bytes() supplies the wire size
// used by the network's bandwidth model.
//
// The vocabulary is closed: every concrete payload has one entry in `Kind`,
// carried as a one-byte tag that its constructor sets (through
// `Tagged<K>`). Receivers dispatch with `switch (m->kind())`, and
// `msg_cast<T>` is a tag compare plus a static_cast — no RTTI on the
// delivery path. Adding a message type: add its kind directly above
// kKindCount_, give it a to_string() name and a layer_of() layer (both are
// exhaustive switches, so -Wswitch flags a miss and a static_assert below
// checks the names), and derive the struct, `final`, from `Tagged<kind>`.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/assert.h"
#include "common/pool.h"

namespace dssmr::net {

/// The protocol layer a message belongs to (ROADMAP's layers).
enum class Layer : std::uint8_t {
  kNet,
  kPaxos,
  kAmcast,
  kRmcast,
  kOracle,
  kClient,
  kServer,
  kApp,
  kLayerCount_,
};

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kLayerCount_);

constexpr std::string_view to_string(Layer l) {
  switch (l) {
    case Layer::kNet: return "net";
    case Layer::kPaxos: return "paxos";
    case Layer::kAmcast: return "amcast";
    case Layer::kRmcast: return "rmcast";
    case Layer::kOracle: return "oracle";
    case Layer::kClient: return "client";
    case Layer::kServer: return "server";
    case Layer::kApp: return "app";
    case Layer::kLayerCount_: break;  // not a real layer
  }
  return "unknown";
}

/// One entry per concrete message type.
enum class Kind : std::uint8_t {
  // consensus/paxos.h
  kP1a,
  kP1b,
  kP2a,
  kP2b,
  kCommit,
  kHeartbeat,
  kLearnReq,
  // multicast/messages.h, multicast/atomic.h
  kStamp,
  kTs,
  kSubmit,
  kBatchSubmit,
  kTsQuery,
  kRm,
  // smr/command.h
  kCommand,
  kReply,
  kMoveResult,
  kConsult,
  kProphecy,
  kHint,
  kVarShip,
  kSignal,
  // application replies (smr/kv.h, chirper/chirper.h)
  kKvReply,
  kTimelineReply,
  kStatusReply,
  // Reserved for payloads defined outside src/ (tests, benches, examples).
  // A program binds each to at most one type.
  kTestProbe,
  kTestInt,
  kBenchInt,
  kExampleReply,
  // Add new kinds directly above, with a to_string() and a layer_of() case.
  kKindCount_,
};

inline constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kKindCount_);

constexpr std::string_view to_string(Kind k) {
  switch (k) {
    case Kind::kP1a: return "paxos.p1a";
    case Kind::kP1b: return "paxos.p1b";
    case Kind::kP2a: return "paxos.p2a";
    case Kind::kP2b: return "paxos.p2b";
    case Kind::kCommit: return "paxos.commit";
    case Kind::kHeartbeat: return "paxos.heartbeat";
    case Kind::kLearnReq: return "paxos.learnreq";
    case Kind::kStamp: return "amcast.stamp";
    case Kind::kTs: return "amcast.ts";
    case Kind::kSubmit: return "amcast.submit";
    case Kind::kBatchSubmit: return "amcast.batchsubmit";
    case Kind::kTsQuery: return "amcast.tsquery";
    case Kind::kRm: return "rmcast.msg";
    case Kind::kCommand: return "smr.command";
    case Kind::kReply: return "smr.reply";
    case Kind::kMoveResult: return "smr.move_result";
    case Kind::kConsult: return "oracle.consult";
    case Kind::kProphecy: return "oracle.prophecy";
    case Kind::kHint: return "oracle.hint";
    case Kind::kVarShip: return "smr.varship";
    case Kind::kSignal: return "smr.signal";
    case Kind::kKvReply: return "kv.reply";
    case Kind::kTimelineReply: return "chirper.timeline";
    case Kind::kStatusReply: return "chirper.status";
    case Kind::kTestProbe: return "test.probe";
    case Kind::kTestInt: return "test.int";
    case Kind::kBenchInt: return "bench.int";
    case Kind::kExampleReply: return "example.reply";
    case Kind::kKindCount_: break;  // not a real kind
  }
  return "unknown";
}

constexpr Layer layer_of(Kind k) {
  switch (k) {
    case Kind::kP1a:
    case Kind::kP1b:
    case Kind::kP2a:
    case Kind::kP2b:
    case Kind::kCommit:
    case Kind::kHeartbeat:
    case Kind::kLearnReq:
      return Layer::kPaxos;
    case Kind::kStamp:
    case Kind::kTs:
    case Kind::kSubmit:
    case Kind::kBatchSubmit:
    case Kind::kTsQuery:
      return Layer::kAmcast;
    case Kind::kRm:
      return Layer::kRmcast;
    case Kind::kCommand:
      return Layer::kClient;
    case Kind::kConsult:
    case Kind::kProphecy:
    case Kind::kHint:
      return Layer::kOracle;
    case Kind::kReply:
    case Kind::kMoveResult:
    case Kind::kVarShip:
    case Kind::kSignal:
      return Layer::kServer;
    case Kind::kKvReply:
    case Kind::kTimelineReply:
    case Kind::kStatusReply:
    case Kind::kTestInt:
    case Kind::kBenchInt:
    case Kind::kExampleReply:
      return Layer::kApp;
    case Kind::kTestProbe:
      return Layer::kNet;
    case Kind::kKindCount_:
      break;  // not a real kind
  }
  return Layer::kLayerCount_;
}

namespace detail {
constexpr bool every_kind_named() {
  for (std::size_t i = 0; i < kKinds; ++i) {
    const auto k = static_cast<Kind>(i);
    if (to_string(k) == "unknown" || layer_of(k) == Layer::kLayerCount_) return false;
  }
  return true;
}
}  // namespace detail

static_assert(kKinds == static_cast<std::size_t>(Kind::kExampleReply) + 1,
              "Kind changed: point this assert at the new last kind and add its "
              "to_string() and layer_of() cases");
static_assert(detail::every_kind_named(), "every Kind needs a to_string() name and a layer");

struct Message {
  virtual ~Message() = default;

  Kind kind() const { return kind_; }

  /// Simulated wire size, including headers. Drives the bandwidth model.
  virtual std::size_t size_bytes() const { return 64; }

  /// Causal trace id of the client command this payload belongs to, 0 when
  /// untraced. Overridden by command-carrying payloads so lower layers (the
  /// atomic multicast) can attribute spans without parsing SMR vocabulary.
  virtual std::uint64_t trace_id() const { return 0; }

 protected:
  explicit Message(Kind k) : kind_(k) {}

 private:
  Kind kind_;
};

/// Base of every concrete message: `struct P1a final : Tagged<Kind::kP1a>`.
/// Its constructor stamps the tag; `kKind` names it for msg_cast.
template <Kind K>
struct Tagged : Message {
  static constexpr Kind kKind = K;

 protected:
  Tagged() : Message(K) {}
};

/// A concrete message type: carries a `kKind` and derives from its Tagged.
template <class T>
concept KindTagged = requires {
  { T::kKind } -> std::convertible_to<Kind>;
} && std::is_base_of_v<Tagged<T::kKind>, T>;

using MessagePtr = std::shared_ptr<const Message>;

/// Allocates the payload and its shared_ptr control block in one pooled
/// block (common/pool.h): simulations create and retire millions of
/// messages, and the pool's thread-local free lists recycle them without
/// touching the general-purpose allocator. The typed pointer converts to
/// MessagePtr; keeping it lets the sender read the payload it just built.
template <class T, class... Args>
std::shared_ptr<const T> make_msg(Args&&... args) {
  return std::allocate_shared<T>(common::PoolAllocator<T>{}, std::forward<Args>(args)...);
}

/// Downcast helper; returns nullptr when `m` is null or of another kind.
template <class T>
const T* msg_cast(const MessagePtr& m) {
  static_assert(std::is_final_v<T>, "msg_cast needs a final message type");
  static_assert(KindTagged<T>, "msg_cast needs a kKind carried by a Tagged<kKind> base");
  return m != nullptr && m->kind() == T::kKind ? static_cast<const T*>(m.get()) : nullptr;
}

/// Downcast that must succeed; aborts otherwise (protocol bug). Also the
/// cast inside a `switch (m->kind())` arm.
template <class T>
const T& msg_as(const MessagePtr& m) {
  const T* p = msg_cast<T>(m);
  DSSMR_ASSERT_MSG(p != nullptr, "message downcast to wrong type");
  return *p;
}

}  // namespace dssmr::net
