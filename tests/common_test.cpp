#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/bounded.h"
#include "common/flat_map.h"
#include "common/pool.h"
#include "common/rng.h"
#include "common/types.h"

namespace dssmr {
namespace {

TEST(StrongId, ComparesAndHashes) {
  ProcessId a{1}, b{2}, c{1};
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  std::unordered_set<ProcessId> s{a, b, c};
  EXPECT_EQ(s.size(), 2u);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(msec(3), usec(3000));
  EXPECT_EQ(sec(2), msec(2000));
  EXPECT_DOUBLE_EQ(to_seconds(sec(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_millis(msec(5)), 5.0);
}

TEST(Rng, Deterministic) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng r{7};
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng r{7};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng r{9};
  bool lo = false, hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo |= (v == -3);
    hi |= (v == 3);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r{11};
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng r{13};
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng r{17};
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / 20000, 5.0, 0.25);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a{42};
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r{19};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(BoundedSet, DedupsWithinWindow) {
  BoundedSet<int> s{4};
  EXPECT_TRUE(s.insert(1));
  EXPECT_FALSE(s.insert(1));
  EXPECT_TRUE(s.contains(1));
}

TEST(BoundedSet, EvictsOldest) {
  BoundedSet<int> s{3};
  s.insert(1);
  s.insert(2);
  s.insert(3);
  s.insert(4);  // evicts 1
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
  EXPECT_TRUE(s.contains(4));
  EXPECT_EQ(s.size(), 3u);
}

TEST(BoundedMap, PutFindEvict) {
  BoundedMap<int, std::string> m{2};
  m.put(1, "a");
  m.put(2, "b");
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), "a");
  m.put(3, "c");  // evicts key 1
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_NE(m.find(2), nullptr);
  EXPECT_NE(m.find(3), nullptr);
}

TEST(BoundedMap, OverwriteDoesNotGrow) {
  BoundedMap<int, int> m{2};
  m.put(1, 10);
  m.put(1, 20);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.find(1), 20);
}

TEST(BoundedMap, OverwritingALiveKeyKeepsItsPlace) {
  BoundedMap<int, int> m{3};
  m.put(1, 10);
  m.put(2, 20);
  m.put(3, 30);
  EXPECT_FALSE(m.put(1, 11));  // overwrite: still the oldest entry
  m.put(4, 40);                // so it is the one evicted
  EXPECT_EQ(m.find(1), nullptr);
  ASSERT_NE(m.find(2), nullptr);
  EXPECT_EQ(*m.find(2), 20);
}

TEST(BoundedMap, KeyReinsertedAfterEvictionIsFresh) {
  BoundedMap<int, int> m{2};
  m.put(1, 10);
  m.put(2, 20);
  m.put(3, 30);               // evicts 1
  EXPECT_TRUE(m.put(1, 11));  // new again, and now the newest
  m.put(4, 40);               // evicts 2, then 3 is the oldest
  EXPECT_EQ(m.find(2), nullptr);
  EXPECT_EQ(m.find(3), nullptr);
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 11);
}

TEST(BoundedMap, ValueSurvivesRingWrap) {
  BoundedMap<int, std::string> m{4};
  for (int k = 0; k < 6; ++k) m.put(k, "old");  // the ring has wrapped once
  const std::string value(64, 'v');             // heap-allocated, so moves matter
  m.put(6, value);
  for (int k = 7; k < 10; ++k) m.put(k, "new");  // wraps past 6's slot's neighbours
  ASSERT_NE(m.find(6), nullptr);
  EXPECT_EQ(*m.find(6), value);
  EXPECT_EQ(m.size(), 4u);
  m.put(10, "new");  // 6 is the oldest now
  EXPECT_EQ(m.find(6), nullptr);
}

/// The pre-ring implementation, kept as the reference: keys in insertion
/// order in a deque, values in a node map.
template <class V>
struct BoundedModel {
  std::size_t capacity;
  std::deque<std::uint64_t> order;
  std::map<std::uint64_t, V> map;

  bool put(std::uint64_t k, V v) {
    const bool inserted = map.insert_or_assign(k, std::move(v)).second;
    if (inserted) order.push_back(k);
    while (order.size() > capacity) {
      map.erase(order.front());
      order.pop_front();
    }
    return inserted;
  }
};

TEST(Bounded, MatchesReferenceModelUnderChurn) {
  for (const std::size_t capacity : {1, 2, 7, 4096}) {
    SCOPED_TRACE(capacity);
    Rng rng{capacity};
    BoundedMap<std::uint64_t, std::uint64_t> m{capacity};
    BoundedSet<std::uint64_t> s{capacity};
    BoundedModel<std::uint64_t> map_model{capacity, {}, {}};
    BoundedModel<bool> set_model{capacity, {}, {}};
    // A key universe a few windows wide: keys recur both while live
    // (overwrites, duplicate inserts) and after eviction (fresh re-inserts).
    const std::uint64_t universe = 3 * capacity + 5;
    for (std::uint64_t step = 0; step < 30000; ++step) {
      const std::uint64_t k = rng.below(universe);
      switch (rng.below(3)) {
        case 0:
          ASSERT_EQ(m.put(k, step), map_model.put(k, step)) << "step " << step;
          break;
        case 1:
          ASSERT_EQ(s.insert(k), set_model.put(k, true)) << "step " << step;
          break;
        default: {
          const auto it = map_model.map.find(k);
          const std::uint64_t* got = m.find(k);
          ASSERT_EQ(got != nullptr, it != map_model.map.end()) << "step " << step;
          if (got != nullptr) {
            ASSERT_EQ(*got, it->second) << "step " << step;
          }
          ASSERT_EQ(s.contains(k), set_model.map.contains(k)) << "step " << step;
        }
      }
      ASSERT_EQ(m.size(), map_model.map.size());
      ASSERT_EQ(s.size(), set_model.map.size());
    }
    for (std::uint64_t k = 0; k < universe; ++k) {
      ASSERT_EQ(m.contains(k), map_model.map.contains(k));
      ASSERT_EQ(s.contains(k), set_model.map.contains(k));
    }
  }
}

TEST(FlatMap, InsertFindErase) {
  common::FlatMap<VarId, GroupId> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(VarId{1}), m.end());
  m[VarId{1}] = GroupId{10};
  m[VarId{2}] = GroupId{20};
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(VarId{1}));
  ASSERT_NE(m.find(VarId{2}), m.end());
  EXPECT_EQ(m.find(VarId{2})->second, GroupId{20});
  EXPECT_TRUE(m.erase(VarId{1}));
  EXPECT_FALSE(m.erase(VarId{1}));
  EXPECT_FALSE(m.contains(VarId{1}));
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  common::FlatMap<std::uint64_t, Time> m;
  EXPECT_EQ(m[7], 0);  // value-initialized, like unordered_map
  m[7] = usec(5);
  EXPECT_EQ(m[7], usec(5));
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EmplaceReportsInsertion) {
  common::FlatMap<VarId, GroupId> m;
  auto [it1, fresh1] = m.emplace(VarId{3}, GroupId{1});
  EXPECT_TRUE(fresh1);
  EXPECT_EQ(it1->second, GroupId{1});
  auto [it2, fresh2] = m.emplace(VarId{3}, GroupId{2});
  EXPECT_FALSE(fresh2);  // existing entry untouched, like unordered_map
  EXPECT_EQ(it2->second, GroupId{1});
}

TEST(FlatMap, IterationCoversAllEntries) {
  common::FlatMap<VarId, GroupId> m;
  for (std::uint64_t i = 0; i < 100; ++i) m[VarId{i}] = GroupId{static_cast<std::uint32_t>(i)};
  std::set<std::uint64_t> seen;
  for (const auto& [k, v] : m) {
    EXPECT_EQ(k.value, v.value);
    seen.insert(k.value);
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(FlatMap, EqualityIsOrderIndependent) {
  common::FlatMap<VarId, GroupId> a, b;
  b.reserve(512);  // different table size, same contents
  for (std::uint64_t i = 0; i < 50; ++i) {
    a[VarId{i}] = GroupId{1};
    b[VarId{49 - i}] = GroupId{1};
  }
  EXPECT_EQ(a, b);
  b[VarId{7}] = GroupId{2};
  EXPECT_NE(a, b);
}

TEST(FlatMap, ReserveAvoidsRehash) {
  common::FlatMap<VarId, GroupId> m;
  m.reserve(1000);
  for (std::uint64_t i = 0; i < 1000; ++i) m[VarId{i}] = GroupId{0};
  EXPECT_EQ(m.size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_TRUE(m.contains(VarId{i}));
}

TEST(FlatMap, MatchesUnorderedMapUnderChurn) {
  // Reference-model stress: random insert/overwrite/erase/clear against
  // std::unordered_map, with lookups after every step. Backward-shift
  // deletion is the subtle part — erase-heavy churn exercises it.
  common::FlatMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng{23};
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t k = rng.below(256);  // dense keys -> long probe chains
    switch (rng.below(4)) {
      case 0:
      case 1:
        flat[k] = step;
        ref[k] = static_cast<std::uint64_t>(step);
        break;
      case 2:
        EXPECT_EQ(flat.erase(k), ref.erase(k) > 0);
        break;
      case 3: {
        auto fit = flat.find(k);
        auto rit = ref.find(k);
        ASSERT_EQ(fit != flat.end(), rit != ref.end());
        if (rit != ref.end()) {
          EXPECT_EQ(fit->second, rit->second);
        }
        break;
      }
    }
  }
  ASSERT_EQ(flat.size(), ref.size());
  for (const auto& [k, v] : ref) {
    auto it = flat.find(k);
    ASSERT_NE(it, flat.end());
    EXPECT_EQ(it->second, v);
  }
  flat.clear();
  EXPECT_TRUE(flat.empty());
  EXPECT_FALSE(flat.contains(1));
}

TEST(FlatMap, EraseByIterator) {
  common::FlatMap<VarId, GroupId> m;
  m[VarId{1}] = GroupId{1};
  m[VarId{2}] = GroupId{2};
  m.erase(m.find(VarId{1}));
  EXPECT_FALSE(m.contains(VarId{1}));
  EXPECT_TRUE(m.contains(VarId{2}));
}

TEST(Pool, ReusesFreedBlocks) {
  const auto before = common::Pool::stats();
  void* a = common::Pool::allocate(64);
  common::Pool::deallocate(a, 64);
  void* b = common::Pool::allocate(64);
  EXPECT_EQ(a, b);  // same size class, LIFO free list
  common::Pool::deallocate(b, 64);
  const auto after = common::Pool::stats();
  EXPECT_GE(after.reused, before.reused + 1);
}

TEST(Pool, LargeBlocksBypassThePool) {
  void* p = common::Pool::allocate(4096);
  ASSERT_NE(p, nullptr);
  common::Pool::deallocate(p, 4096);
}

TEST(PoolAllocator, WorksWithAllocateShared) {
  struct Payload {
    std::uint64_t a, b;
  };
  auto sp = std::allocate_shared<Payload>(common::PoolAllocator<Payload>{});
  sp->a = 1;
  sp->b = 2;
  auto sp2 = sp;
  sp.reset();
  EXPECT_EQ(sp2->a + sp2->b, 3u);
}

}  // namespace
}  // namespace dssmr
