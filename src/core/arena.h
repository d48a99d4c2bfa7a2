// Chunked bump allocator for fit-time scratch: the MLP workspaces allocate
// many short-lived scratch buffers whose lifetimes nest perfectly — a
// mark/rewind arena turns each of those heap round-trips into a pointer
// bump. Not thread-safe: one Arena per
// fitting call (or per thread), never shared concurrently. Allocation is
// limited to trivially-destructible element types; rewinding never runs
// destructors.
//
// Peak usage across all arenas in the process is exported as the
// `arena.bytes_peak` gauge (see OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace acbm::core {

class Arena {
 public:
  /// First chunk size; later chunks double until kMaxChunkBytes. A request
  /// larger than the current chunk size gets a dedicated chunk.
  static constexpr std::size_t kDefaultChunkBytes = std::size_t{64} * 1024;
  static constexpr std::size_t kMaxChunkBytes = std::size_t{8} * 1024 * 1024;
  /// Every allocation is aligned to this (covers AVX2/NEON vector loads).
  static constexpr std::size_t kAlignment = 64;

  explicit Arena(std::size_t first_chunk_bytes = kDefaultChunkBytes);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// A bump position; rewind(mark()) frees everything allocated since.
  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
    std::size_t in_use = 0;
  };

  /// Uninitialized span of `n` elements (64-byte aligned). T must be
  /// trivially destructible — rewind()/reset() never run destructors.
  template <typename T>
  [[nodiscard]] std::span<T> alloc_span(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena only holds trivially destructible types");
    static_assert(alignof(T) <= kAlignment);
    if (n == 0) return {};
    return {static_cast<T*>(allocate(n * sizeof(T))), n};
  }

  [[nodiscard]] Mark mark() const noexcept {
    return {current_, chunks_.empty() ? 0 : chunks_[current_].used, in_use_};
  }

  /// Frees everything allocated after `m` (LIFO only: marks must be
  /// rewound in reverse order of taking them). Chunks are kept for reuse.
  void rewind(const Mark& m) noexcept;

  /// Frees everything but keeps the chunks for reuse.
  void reset() noexcept;

  /// Live bytes (requests currently allocated, excluding padding).
  [[nodiscard]] std::size_t bytes_in_use() const noexcept { return in_use_; }
  /// High-water mark of bytes_in_use() over this arena's lifetime.
  [[nodiscard]] std::size_t bytes_peak() const noexcept { return peak_; }
  /// Total bytes reserved from the heap (sum of chunk sizes).
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    return reserved_;
  }

  /// Process-wide high-water mark across every Arena (what the
  /// `arena.bytes_peak` gauge reports).
  [[nodiscard]] static std::size_t process_bytes_peak() noexcept;

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] void* allocate(std::size_t bytes);
  void add_chunk(std::size_t min_bytes);
  void note_usage() noexcept;

  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;     ///< Chunk currently bumped.
  std::size_t next_size_ = 0;   ///< Size of the next chunk to add.
  std::size_t in_use_ = 0;
  std::size_t peak_ = 0;
  std::size_t reserved_ = 0;
};

}  // namespace acbm::core
