#include "multicast/batcher.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/assert.h"

namespace dssmr::multicast {
namespace {

/// Same salt as the amcast layer's stamp entries (atomic.cpp, client.cpp):
/// a batched and an unbatched submission of the same multicast must derive
/// identical entry ids so the leaders' dedup collapses them.
constexpr std::uint64_t kStampSalt = 0x57a3;

}  // namespace

void SubmitBatcher::init(net::Network& network, const Directory& directory, ProcessId self,
                         BatchConfig config) {
  DSSMR_ASSERT_MSG(self != kNoProcess, "register the batcher's endpoint first");
  DSSMR_ASSERT_MSG(config.enabled(), "constructing a batcher with batching off");
  network_ = &network;
  directory_ = &directory;
  self_ = self;
  cfg_ = config;
}

void SubmitBatcher::set_metrics(stats::Metrics* metrics) {
  if (metrics == nullptr) return;
  flushes_ctr_ = &metrics->counter_handle("batch.flushes");
  entries_ctr_ = &metrics->counter_handle("batch.entries");
  full_flush_ctr_ = &metrics->counter_handle("batch.flush_full");
  timer_flush_ctr_ = &metrics->counter_handle("batch.flush_timer");
  size_hist_ = &metrics->histogram("batch.size_entries");
}

void SubmitBatcher::amcast(AmcastMessage msg, FlushFn on_flush) {
  DSSMR_ASSERT_MSG(network_ != nullptr, "init() not called");
  if (halted_) return;
  const auto stamp = net::make_msg<StampEntry>(std::move(msg));
  for (GroupId g : stamp->msg.dests) {
    pending_[g].push_back(
        consensus::LogEntry{derive_entry_id(stamp->msg.id, g, kStampSalt), stamp});
  }
  if (on_flush) flush_cbs_.push_back(std::move(on_flush));
  ++queued_items_;
  if (queued_items_ >= cfg_.batch_size) {
    if (full_flush_ctr_ != nullptr) full_flush_ctr_->inc();
    flush();
  } else {
    arm_timer();
  }
}

void SubmitBatcher::submit(GroupId g, consensus::LogEntry entry) {
  DSSMR_ASSERT_MSG(network_ != nullptr, "init() not called");
  if (halted_) return;
  pending_[g].push_back(std::move(entry));
  ++queued_items_;
  if (queued_items_ >= cfg_.batch_size) {
    if (full_flush_ctr_ != nullptr) full_flush_ctr_->inc();
    flush();
  } else {
    arm_timer();
  }
}

void SubmitBatcher::flush() {
  if (pending_.empty()) return;
  network_->engine().cancel(timer_);
  timer_ = 0;
  std::size_t total = 0;
  for (auto& [g, entries] : pending_) {
    total += entries.size();
    auto batch = net::make_msg<BatchSubmitMsg>(g, std::move(entries));
    const std::span<const ProcessId> members = directory_->members(g);
    if (std::find(members.begin(), members.end(), self_) == members.end()) {
      network_->multisend(self_, members, batch);
    } else {
      // A group node batching for its own group while following: peers only.
      for (ProcessId p : members) {
        if (p != self_) network_->send(self_, p, batch);
      }
    }
  }
  if (flushes_ctr_ != nullptr) {
    flushes_ctr_->inc();
    entries_ctr_->inc(total);
    size_hist_->record(static_cast<std::int64_t>(total));
  }
  pending_.clear();
  queued_items_ = 0;
  const Time now = network_->engine().now();
  // Reset before firing: a callback may enqueue the next command.
  std::vector<FlushFn> cbs = std::exchange(flush_cbs_, {});
  for (FlushFn& cb : cbs) cb(now);
}

std::size_t SubmitBatcher::pending_entries() const {
  std::size_t n = 0;
  for (const auto& [g, entries] : pending_) n += entries.size();
  return n;
}

void SubmitBatcher::arm_timer() {
  if (halted_ || timer_ != 0) return;
  timer_ = network_->engine().schedule(cfg_.batch_delay, [this] {
    timer_ = 0;
    if (halted_) return;
    if (timer_flush_ctr_ != nullptr && !pending_.empty()) timer_flush_ctr_->inc();
    flush();
  });
}

void SubmitBatcher::halt() {
  halted_ = true;
  if (network_ != nullptr) network_->engine().cancel(timer_);
  timer_ = 0;
  pending_.clear();
  flush_cbs_.clear();
  queued_items_ = 0;
}

void SubmitBatcher::restart() { halted_ = false; }

}  // namespace dssmr::multicast
