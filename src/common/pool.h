// Pooled allocation for short-lived simulation objects (network messages).
//
// A simulation allocates and frees millions of small message payloads; the
// general-purpose allocator's bookkeeping dominates that path. This pool
// carves fixed 16-byte-granular size classes out of 64 KiB chunks and
// recycles blocks through thread-local free lists.
//
// Threading model: a simulation is single-threaded, but the parallel sweep
// runner drives one simulation per worker thread. Free lists are
// thread-local (no locks on the hot path); chunks, once carved, are
// process-lifetime — they are intentionally never returned to the OS, so a
// block that migrates to another thread's free list can always be recycled
// safely. Peak usage is bounded by the per-thread simulation peak. Every
// chunk stays reachable from one process-wide intrusive list (a link header
// inside the chunk's own allocation), so a leak checker sees live memory
// even after the thread that carved it has exited.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

namespace dssmr::common {

class Pool {
 public:
  static constexpr std::size_t kGranularity = 16;
  static constexpr std::size_t kMaxPooled = 512;
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

  static void* allocate(std::size_t bytes) {
    if (bytes == 0 || bytes > kMaxPooled) return ::operator new(bytes);
    const std::size_t cls = class_of(bytes);
    Lists& l = lists();
    if (void* p = l.head[cls]; p != nullptr) {
      l.head[cls] = *static_cast<void**>(p);
      ++l.reused;
      return p;
    }
    return carve(l, cls);
  }

  static void deallocate(void* p, std::size_t bytes) noexcept {
    if (p == nullptr) return;
    if (bytes == 0 || bytes > kMaxPooled) {
      ::operator delete(p);
      return;
    }
    Lists& l = lists();
    const std::size_t cls = class_of(bytes);
    *static_cast<void**>(p) = l.head[cls];
    l.head[cls] = p;
  }

  struct Stats {
    std::uint64_t carved = 0;       // blocks carved fresh from chunks
    std::uint64_t reused = 0;       // blocks served from a free list
    std::uint64_t chunk_bytes = 0;  // chunk memory held by this thread
  };
  /// This thread's pool statistics (for tests and the perf suite).
  static Stats stats() {
    const Lists& l = lists();
    return {l.carved, l.reused, l.chunk_bytes};
  }

 private:
  static constexpr std::size_t kClasses = kMaxPooled / kGranularity;

  struct Lists {
    void* head[kClasses] = {};
    std::byte* cursor = nullptr;
    std::byte* chunk_end = nullptr;
    std::uint64_t carved = 0;
    std::uint64_t reused = 0;
    std::uint64_t chunk_bytes = 0;
  };

  /// Prefix of every chunk allocation; keeps the blocks after it aligned.
  struct alignas(std::max_align_t) ChunkLink {
    ChunkLink* next;
  };
  static inline std::atomic<ChunkLink*> chunks_{nullptr};

  static std::size_t class_of(std::size_t bytes) { return (bytes - 1) / kGranularity; }

  static Lists& lists() {
    thread_local Lists l;
    return l;
  }

  static void* carve(Lists& l, std::size_t cls) {
    const std::size_t block = (cls + 1) * kGranularity;
    if (l.cursor == nullptr || static_cast<std::size_t>(l.chunk_end - l.cursor) < block) {
      // Chunks are never freed (see file comment): blocks may sit on another
      // thread's free list after this thread exits. The link header shares
      // the chunk's allocation: one allocation per chunk. Nothing walks the
      // list; it only keeps every chunk reachable.
      void* raw = ::operator new(sizeof(ChunkLink) + kChunkBytes);
      auto* link = new (raw) ChunkLink{nullptr};
      link->next = chunks_.exchange(link);
      l.cursor = static_cast<std::byte*>(raw) + sizeof(ChunkLink);
      l.chunk_end = l.cursor + kChunkBytes;
      l.chunk_bytes += kChunkBytes;
    }
    void* p = l.cursor;
    l.cursor += block;
    ++l.carved;
    return p;
  }
};

/// Minimal std allocator over Pool, for allocate_shared and containers whose
/// nodes fit the pooled size classes.
template <class T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <class U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "pool blocks are max_align_t-aligned");
    return static_cast<T*>(Pool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { Pool::deallocate(p, n * sizeof(T)); }

  template <class U>
  friend bool operator==(const PoolAllocator&, const PoolAllocator<U>&) noexcept {
    return true;
  }
};

}  // namespace dssmr::common
