// RoundArena — a bump allocator for the per-batch scratch buffers of the
// Network's hot delivery paths (batch tallies, inbox slot tables, sort keys).
//
// Every exchange/lenzen_route call used to make a handful of heap
// allocations proportional to n and to the batch size; across the tens of
// thousands of batches a Chebyshev solve or an IPM run issues, the
// allocator traffic dominated the simulator's own arithmetic.  The arena
// turns each batch's scratch into pointer bumps against memory retained
// across batches: reset() at the start of a public batch operation recycles
// every block without touching the heap once the high-water mark is reached.
//
// Scope and safety:
//   * Allocations are valid until the next reset(); the Network resets only
//     at public-operation entry, so scratch handed to tally/record/recovery
//     survives the whole operation.
//   * Only trivially-destructible element types are allowed (no destructors
//     run at reset) and every allocation is value-initialized, matching the
//     std::vector zero-fill the call sites previously relied on.
//   * NOT thread-safe: all arena allocations happen on the thread driving
//     the Network (per-shard scratch inside exec::sharded_map stays on the
//     regular heap, where each worker owns its allocation).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

namespace lapclique::clique {

class RoundArena {
 public:
  RoundArena() = default;
  RoundArena(const RoundArena&) = delete;
  RoundArena& operator=(const RoundArena&) = delete;
  RoundArena(RoundArena&&) = default;
  RoundArena& operator=(RoundArena&&) = default;

  /// A value-initialized span of `count` elements, valid until reset().
  template <typename T>
  [[nodiscard]] std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "RoundArena never runs destructors");
    if (count == 0) return {};
    auto* p = static_cast<T*>(grab(count * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < count; ++i) new (p + i) T();
    return {p, count};
  }

  /// Recycle every block; previously returned spans become invalid.
  void reset() {
    block_ = 0;
    used_ = 0;
  }

  /// Bytes currently held across all blocks (capacity, not live data).
  [[nodiscard]] std::size_t capacity() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  static constexpr std::size_t kMinBlock = 1 << 16;  // 64 KiB

  void* grab(std::size_t bytes, std::size_t align) {
    while (block_ < blocks_.size()) {
      Block& b = blocks_[block_];
      const std::size_t at = (used_ + align - 1) & ~(align - 1);
      if (at + bytes <= b.size) {
        used_ = at + bytes;
        return b.data.get() + at;
      }
      ++block_;
      used_ = 0;
    }
    // Doubling growth keeps the block count logarithmic in the high-water
    // mark, so the steady state bumps through O(log) blocks per batch.
    std::size_t size = blocks_.empty() ? kMinBlock : 2 * blocks_.back().size;
    if (size < bytes) size = bytes;
    blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size});
    used_ = bytes;
    return blocks_.back().data.get();
  }

  std::vector<Block> blocks_;
  std::size_t block_ = 0;  ///< index of the block currently being bumped
  std::size_t used_ = 0;   ///< bytes consumed in blocks_[block_]
};

}  // namespace lapclique::clique
