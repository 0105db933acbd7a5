// Message base type for all inter-process traffic.
//
// Processes in the simulation share an address space, so "serialization" is
// a shared_ptr to an immutable payload; size_bytes() supplies the wire size
// used by the network's bandwidth model. Each protocol defines its own
// concrete message structs deriving from Message.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/assert.h"
#include "common/pool.h"

namespace dssmr::net {

struct Message {
  virtual ~Message() = default;

  /// Human-readable type tag, for tracing and test assertions.
  virtual const char* type_name() const = 0;

  /// Simulated wire size, including headers. Drives the bandwidth model.
  virtual std::size_t size_bytes() const { return 64; }

  /// Causal trace id of the client command this payload belongs to, 0 when
  /// untraced. Overridden by command-carrying payloads so lower layers (the
  /// atomic multicast) can attribute spans without parsing SMR vocabulary.
  virtual std::uint64_t trace_id() const { return 0; }
};

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

/// Downcast helper; returns nullptr when the runtime type differs.
template <class T>
const T* msg_cast(const MessagePtr& m) {
  return dynamic_cast<const T*>(m.get());
}

/// Downcast that must succeed; aborts otherwise (protocol bug).
template <class T>
const T& msg_as(const MessagePtr& m) {
  const T* p = msg_cast<T>(m);
  DSSMR_ASSERT_MSG(p != nullptr, "message downcast to wrong type");
  return *p;
}

}  // namespace dssmr::net
