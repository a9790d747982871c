#include "uarch/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace advh::uarch {

cache::cache(const cache_config& cfg) : cfg_(cfg) {
  ADVH_CHECK_MSG(std::has_single_bit(cfg_.line_bytes),
                 "line size must be a power of two");
  ADVH_CHECK_MSG(cfg_.line_bytes >= 2, "line size must be at least 2 bytes");
  ADVH_CHECK(cfg_.associativity > 0);
  ADVH_CHECK(cfg_.size_bytes % (cfg_.line_bytes * cfg_.associativity) == 0);
  sets_ = cfg_.size_bytes / (cfg_.line_bytes * cfg_.associativity);
  ADVH_CHECK_MSG(std::has_single_bit(sets_),
                 "set count must be a power of two");
  ways_ = cfg_.associativity;
  line_shift_ = static_cast<std::size_t>(std::countr_zero(cfg_.line_bytes));
  tags_.assign(sets_ * ways_, kEmpty);
  lru_.assign(sets_ * ways_, 0);
  dirty_.assign(sets_ * ways_, 0);
}

void cache::install(std::size_t base, std::uint64_t tag, bool dirty) {
  const std::uint64_t* lru = lru_.data() + base;
  std::size_t victim = 0;
  std::uint64_t oldest = lru[0];
  for (std::size_t w = 1; w < ways_; ++w) {
    const bool older = lru[w] < oldest;
    victim = older ? w : victim;
    oldest = older ? lru[w] : oldest;
  }
  const std::size_t v = base + victim;
  if (tags_[v] != kEmpty) {
    ++stats_.evictions;
    if (dirty_[v]) ++stats_.writebacks;
  }
  tags_[v] = tag;
  lru_[v] = tick_;
  dirty_[v] = dirty;
}

void cache::fill(std::uint64_t addr) {
  ++tick_;
  const std::uint64_t tag = addr >> line_shift_;
  const std::size_t base = set_base(tag);
  ++stats_.prefetch_fills;
  const std::size_t w = find(base, tag);
  if (w != ways_) {
    // Already resident: refresh recency only.
    lru_[base + w] = tick_;
    return;
  }
  install(base, tag, false);
}

bool cache::probe(std::uint64_t addr) const {
  const std::uint64_t tag = addr >> line_shift_;
  const std::size_t base = set_base(tag);
  return find(base, tag) != ways_;
}

void cache::reset() noexcept {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  std::fill(lru_.begin(), lru_.end(), 0);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  tick_ = 0;
  stats_ = cache_stats{};
}

}  // namespace advh::uarch
