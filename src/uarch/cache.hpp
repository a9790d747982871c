// Set-associative cache model with LRU replacement, write-back +
// write-allocate. Single-level building block for the hierarchy in
// hierarchy.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace advh::uarch {

enum class access_type { load, store };

struct cache_config {
  std::string name = "cache";
  std::size_t size_bytes = 32 * 1024;
  std::size_t line_bytes = 64;
  std::size_t associativity = 8;
};

struct cache_stats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t prefetch_fills = 0;
  std::uint64_t load_misses = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  std::uint64_t accesses() const noexcept { return loads + stores; }
  std::uint64_t misses() const noexcept { return load_misses + store_misses; }
  double miss_rate() const noexcept {
    return accesses() ? static_cast<double>(misses()) /
                            static_cast<double>(accesses())
                      : 0.0;
  }
};

class cache {
 public:
  explicit cache(const cache_config& cfg);

  /// Performs one access; returns true on hit. On miss the line is filled
  /// (write-allocate); a dirty eviction increments writebacks.
  bool access(std::uint64_t addr, access_type type) {
    ++tick_;
    const std::uint64_t tag = addr >> line_shift_;
    const std::size_t base = set_base(tag);
    const bool store = type == access_type::store;
    if (store) {
      ++stats_.stores;
    } else {
      ++stats_.loads;
    }
    const std::size_t w = find(base, tag);
    if (w != ways_) {
      lru_[base + w] = tick_;
      if (store) dirty_[base + w] = 1;
      return true;
    }
    if (store) {
      ++stats_.store_misses;
    } else {
      ++stats_.load_misses;
    }
    install(base, tag, store);
    return false;
  }

  /// True if the line containing addr is currently resident.
  bool probe(std::uint64_t addr) const;

  /// Inserts the line containing addr without touching the demand-access
  /// statistics (prefetch fill). Evictions/writebacks are still counted.
  void fill(std::uint64_t addr);

  void reset() noexcept;
  const cache_stats& stats() const noexcept { return stats_; }
  const cache_config& config() const noexcept { return cfg_; }
  std::size_t num_sets() const noexcept { return sets_; }

 private:
  // memory_hierarchy::fetch_sweeps is the one caller that proves the
  // invariant account_load_hits needs.
  friend class memory_hierarchy;

  /// Accounts `n` load hits without replaying them: advances the LRU clock
  /// and the load count exactly as n hits would. Exact only when the n
  /// hits would land on resident lines that a later access restamps before
  /// any victim choice reads their ticks (memory_hierarchy::fetch_sweeps).
  void account_load_hits(std::uint64_t n) noexcept {
    tick_ += n;
    stats_.loads += n;
  }

  /// Tag of an empty way. Real tags are addr >> line_shift_ with lines of
  /// at least two bytes, so they never reach it.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Index of way 0 of the set holding `tag`.
  std::size_t set_base(std::uint64_t tag) const noexcept {
    return static_cast<std::size_t>(tag & (sets_ - 1)) * ways_;
  }
  /// Way of `tag` in the set at `base`, or ways_ when absent.
  std::size_t find(std::size_t base, std::uint64_t tag) const noexcept {
    // Tags are unique within a set: scan every way without an early exit,
    // so the loop has no data-dependent branch.
    const std::uint64_t* tags = tags_.data() + base;
    std::size_t way = ways_;
    for (std::size_t w = 0; w < ways_; ++w) {
      way = tags[w] == tag ? w : way;
    }
    return way;
  }
  /// Places `tag` in the set at `base` on a miss: the first empty way,
  /// otherwise the least recently used one.
  void install(std::size_t base, std::uint64_t tag, bool dirty);

  cache_config cfg_;
  std::size_t sets_;
  std::size_t ways_;
  std::size_t line_shift_;
  // Packed per-set state, set-major (way w of set s at s * ways_ + w).
  // An empty way holds tag kEmpty and tick 0; every access stamps a tick
  // >= 1, so a set's lowest tick is its first empty way when it has one
  // and its LRU line otherwise.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> lru_;  // last-use tick
  std::vector<std::uint8_t> dirty_;
  std::uint64_t tick_ = 0;
  cache_stats stats_;
};

}  // namespace advh::uarch
