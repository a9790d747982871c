#include "uarch/hierarchy.hpp"

namespace advh::uarch {

memory_hierarchy::memory_hierarchy(const hierarchy_config& cfg)
    : l1d_(cfg.l1d), l1i_(cfg.l1i), llc_(cfg.llc), prefetch_(cfg.l1d_prefetch) {}

void memory_hierarchy::prefetch_after(std::uint64_t addr) {
  // The prefetcher trains on the demand stream (hits included, as L1
  // streamers do) and fills both levels without inflating demand
  // statistics.
  const std::uint64_t line = addr / l1d_.config().line_bytes;
  const std::uint64_t target = prefetch_.observe(line);
  if (target != 0) {
    const std::uint64_t target_addr = target * l1d_.config().line_bytes;
    if (!l1d_.probe(target_addr)) {
      l1d_.fill(target_addr);
      llc_.fill(target_addr);
      prefetch_.note_useful();
    }
  }
}

void memory_hierarchy::fetch(std::uint64_t addr) {
  if (!l1i_.access(addr, access_type::load)) {
    llc_.access(addr, access_type::load);
  }
}

void memory_hierarchy::fetch_sweeps(std::uint64_t base, std::uint64_t stride,
                                    std::size_t lines, std::size_t sweeps) {
  const auto pass = [&] {
    for (std::size_t l = 0; l < lines; ++l) fetch(base + l * stride);
  };
  if (sweeps == 0) return;
  pass();
  // Invariant: once every swept address is resident in L1-I, each further
  // pass is all hits, because nothing else touches L1-I in between and a
  // hit evicts nothing. A hit only advances the L1-I tick and load count
  // and restamps its line; the last pass restamps every swept line in the
  // same order, so passes 2..N-1 leave nothing behind but their ticks and
  // loads, which account_load_hits adds up. Any line missing: replay all.
  bool resident = sweeps > 2;
  for (std::size_t l = 0; resident && l < lines; ++l) {
    resident = l1i_.probe(base + l * stride);
  }
  if (resident) {
    l1i_.account_load_hits(static_cast<std::uint64_t>(sweeps - 2) * lines);
    pass();
    return;
  }
  for (std::size_t s = 1; s < sweeps; ++s) pass();
}

void memory_hierarchy::reset() noexcept {
  l1d_.reset();
  l1i_.reset();
  llc_.reset();
  prefetch_.reset();
}

}  // namespace advh::uarch
