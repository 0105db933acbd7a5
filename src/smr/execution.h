// In-order command execution engine with input waits.
//
// A partition replica executes delivered commands strictly in delivery
// order, one at a time, each occupying the (simulated) CPU for its service
// time. A multi-partition command at the head of the queue may additionally
// wait for inputs from other partitions (variables and signals); everything
// behind it blocks — this serialization is precisely why multi-partition
// commands cap S-SMR's scalability, so the model must capture it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/engine.h"

namespace dssmr::smr {

class ExecutionEngine {
 public:
  /// `on_head` and `run` are sim::Callbacks: closures of up to 48 bytes (the
  /// single-partition access and the oracle's consult reply among them) live
  /// inline in the task, and the queue is a ring of tasks, so a warm engine
  /// enqueues without allocating.
  struct Task {
    MsgId id;
    /// Called once, when the task first reaches the head of the queue
    /// (e.g. to ship local variables and signals to peer partitions).
    sim::Callback on_head;
    /// Inputs available? Re-checked after every notify().
    std::function<bool()> ready;
    /// CPU time the execution occupies once ready.
    Duration service = 0;
    /// Executes the command (mutates state, sends the reply).
    sim::Callback run;
  };

  explicit ExecutionEngine(sim::Engine& engine) : engine_(engine) {}

  void enqueue(Task t) {
    if (size_ == ring_.size()) {  // grow, oldest first; the size stays a power of two
      std::rotate(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_), ring_.end());
      head_ = 0;
      ring_.resize(ring_.empty() ? 8 : 2 * ring_.size());
    }
    ring_[(head_ + size_++) & (ring_.size() - 1)] = std::move(t);
    pump();
  }

  /// Call when new inputs arrived (shipped variables, signals).
  void notify() { pump(); }

  std::size_t queue_depth() const { return size_; }
  bool idle() const { return size_ == 0 && !executing_; }
  std::uint64_t executed_count() const { return executed_; }

  /// Total simulated CPU-busy time, for utilization metrics.
  Duration busy_time() const { return busy_time_; }

 private:
  void pump() {
    if (executing_ || size_ == 0) return;
    if (ring_[head_].on_head) {
      sim::Callback fn = std::move(ring_[head_].on_head);
      fn();
      // on_head may have re-entered pump() via notify() or enqueued (which can
      // move the ring); restart cleanly.
      if (executing_ || size_ == 0) return;
    }
    Task& head = ring_[head_];
    if (head.ready && !head.ready()) return;  // wait; notify() re-pumps
    executing_ = true;
    busy_time_ += head.service;
    engine_.schedule(head.service, [this] {
      Task done = std::move(ring_[head_]);
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
      ++executed_;
      done.run();
      executing_ = false;
      pump();
    });
  }

  sim::Engine& engine_;
  /// FIFO of queued tasks: size_ of them starting at head_, wrapping around.
  std::vector<Task> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool executing_ = false;
  std::uint64_t executed_ = 0;
  Duration busy_time_ = 0;
};

}  // namespace dssmr::smr
