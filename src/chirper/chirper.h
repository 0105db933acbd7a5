// Chirper: the Twitter-like service of the paper's evaluation (Section 5.2).
//
// Each user is one state variable holding profile links (followers /
// following) and a materialized timeline. Post fan-out writes the new post
// into every follower's timeline at post time, which makes getTimeline a
// guaranteed single-partition command — the design decision the paper calls
// out; the flip side is that post/follow/unfollow may touch several
// partitions and therefore drive DS-SMR's moves.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "smr/app.h"
#include "smr/command.h"

namespace dssmr::chirper {

enum Op : std::uint32_t {
  kPost = 1,         // write_set = {poster} ∪ followers(poster); arg = text
  kFollow = 2,       // write_set = {follower, followee}
  kUnfollow = 3,     // write_set = {follower, followee}
  kGetTimeline = 4,  // read_set = {user}
};

constexpr std::size_t kTimelineCap = 50;
constexpr std::size_t kMaxPostLength = 140;

/// Immutable post text with value semantics. Copies share one buffer, so a
/// post fanned out to many timelines, cloned with a UserValue or returned in
/// a TimelineReply copies a pointer, not the characters. Assigning new text
/// rebinds only the assigned value: a clone never observes it.
class PostText {
 public:
  PostText() = default;
  PostText(std::string_view s)  // NOLINT(google-explicit-constructor)
      : size_(s.size()) {
    if (s.empty()) return;
    std::shared_ptr<char[]> buf = std::make_shared<char[]>(s.size() + 1);
    std::memcpy(buf.get(), s.data(), s.size());
    data_ = std::move(buf);
  }
  PostText(const char* s) : PostText(std::string_view(s)) {}  // NOLINT

  std::size_t size() const { return size_; }
  const char* c_str() const { return data_ != nullptr ? data_.get() : ""; }
  std::string_view view() const { return {c_str(), size_}; }
  /// Whether both values share one buffer (tests check fan-out sharing).
  bool shares_buffer_with(const PostText& o) const {
    return data_ != nullptr && data_ == o.data_;
  }

  friend bool operator==(const PostText& a, std::string_view b) { return a.view() == b; }
  friend std::ostream& operator<<(std::ostream& os, const PostText& t) {
    return os << t.view();
  }

 private:
  std::shared_ptr<const char[]> data_;  // NUL-terminated; null when empty
  std::size_t size_ = 0;
};

struct Post {
  VarId author{};
  std::uint64_t seq = 0;  // command id: deterministic, totally ordered per user
  PostText text;
};

/// A user's newest kTimelineCap posts, oldest first. A ring: its storage
/// grows with the first kTimelineCap posts (an empty timeline holds none)
/// and is then overwritten in place, so appending to a full timeline
/// releases the oldest post and allocates nothing.
class Timeline {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Post;
    using difference_type = std::ptrdiff_t;
    using pointer = const Post*;
    using reference = const Post&;

    const_iterator() = default;
    const_iterator(const Timeline* t, std::size_t i) : t_(t), i_(i) {}
    const Post& operator*() const { return (*t_)[i_]; }
    const Post* operator->() const { return &(*t_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) { return {t_, i_++}; }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const Timeline* t_ = nullptr;
    std::size_t i_ = 0;
  };

  std::size_t size() const { return posts_.size(); }
  /// The i-th oldest post.
  const Post& operator[](std::size_t i) const { return posts_[slot(i)]; }
  Post& operator[](std::size_t i) { return posts_[slot(i)]; }
  const Post& front() const { return (*this)[0]; }
  const Post& back() const { return (*this)[size() - 1]; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  /// Appends `p` as the newest post, evicting the oldest once full.
  void push(Post p) {
    if (posts_.size() < kTimelineCap) {
      if (posts_.size() == posts_.capacity()) {
        posts_.reserve(std::min(kTimelineCap, std::max<std::size_t>(4, 2 * posts_.size())));
      }
      posts_.push_back(std::move(p));
      return;
    }
    posts_[head_] = std::move(p);
    head_ = head_ + 1 == kTimelineCap ? 0 : head_ + 1;
  }

 private:
  std::size_t slot(std::size_t i) const {
    const std::size_t s = head_ + i;
    return s < posts_.size() ? s : s - posts_.size();
  }

  std::vector<Post> posts_;
  std::size_t head_ = 0;  // oldest post's slot; nonzero only once full
};

struct UserValue final : smr::VarValue {
  std::vector<VarId> followers;
  std::vector<VarId> following;
  Timeline timeline;

  std::unique_ptr<smr::VarValue> clone() const override {
    return std::make_unique<UserValue>(*this);
  }
  std::size_t size_bytes() const override {
    std::size_t n = 64 + (followers.size() + following.size()) * 8;
    for (const Post& p : timeline) n += 24 + p.text.size();
    return n;
  }

  void append_post(Post p) { timeline.push(std::move(p)); }
};

struct TimelineReply final : net::Tagged<net::Kind::kTimelineReply> {
  std::vector<Post> posts;
  explicit TimelineReply(std::vector<Post> p) : posts(std::move(p)) {}
  std::size_t size_bytes() const override {
    std::size_t n = 16;
    for (const Post& p : posts) n += 24 + p.text.size();
    return n;
  }
};

struct StatusReply final : net::Tagged<net::Kind::kStatusReply> {
  bool ok;
  explicit StatusReply(bool o) : ok(o) {}
  std::size_t size_bytes() const override { return 9; }
};

class ChirperApp final : public smr::AppStateMachine {
 public:
  struct Costs {
    Duration base = usec(8);
    Duration per_write_var = usec(1);
    Duration per_timeline_post = usec(0);
  };

  ChirperApp() : costs_(Costs{}) {}
  explicit ChirperApp(Costs costs) : costs_(costs) {}

  net::MessagePtr execute(const smr::Command& cmd, smr::ExecutionView& view) override;
  std::unique_ptr<smr::VarValue> make_default(VarId v) override;
  Duration service_time(const smr::Command& cmd) const override;

 private:
  Costs costs_;
};

inline smr::AppFactory chirper_app_factory(ChirperApp::Costs costs = ChirperApp::Costs{}) {
  return [costs] { return std::make_unique<ChirperApp>(costs); };
}

// ---- command builders (the client-side application vocabulary) -------------

/// post(u): the caller supplies u's follower list (clients track the part of
/// the social graph they interact with; the workload driver plays that role).
smr::Command make_post(VarId user, const std::vector<VarId>& followers, std::string text);
smr::Command make_follow(VarId follower, VarId followee);
smr::Command make_unfollow(VarId follower, VarId followee);
smr::Command make_get_timeline(VarId user);

}  // namespace dssmr::chirper
