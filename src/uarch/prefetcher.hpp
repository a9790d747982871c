// Hardware prefetcher models.
//
// Real cores hide much of the streaming traffic AdvHunter's simulator
// replays (buffer sweeps) behind next-line / stride prefetchers, which
// *reduces* the constant part of the miss profile and leaves the
// data-dependent gather misses — the signal — more exposed. The ablation
// bench (bench_ablation_uarch) quantifies this. Prefetches are issued into
// the cache that missed, tagged so they do not inflate demand-miss counts.
#pragma once

#include <cstdint>

namespace advh::uarch {

enum class prefetcher_kind {
  none,
  next_line,  ///< on miss to line L, prefetch L+1
  stride,     ///< per-PC-less global stride detector (IP-agnostic stream)
};

struct prefetch_stats {
  std::uint64_t issued = 0;
  /// Prefetches that filled a line absent from L1-D (a target already
  /// resident is dropped). Whether the line is later demanded is not
  /// tracked.
  std::uint64_t useful_hint = 0;
};

/// Decides which line (if any) to prefetch after a demand access.
/// Stateless for next_line; the stride detector keeps a small history.
class prefetcher {
 public:
  explicit prefetcher(prefetcher_kind kind = prefetcher_kind::none)
      : kind_(kind) {}

  /// Observes a demand access to `line` (line-granular address / 64).
  /// Returns the line to prefetch, or 0 when none (line 0 is never a
  /// legitimate prefetch target given the simulator's address layout).
  std::uint64_t observe(std::uint64_t line);

  prefetcher_kind kind() const noexcept { return kind_; }
  const prefetch_stats& stats() const noexcept { return stats_; }
  void note_useful() noexcept { ++stats_.useful_hint; }
  void reset() noexcept;

 private:
  prefetcher_kind kind_;
  std::uint64_t last_line_ = 0;
  std::int64_t last_stride_ = 0;
  bool stride_confirmed_ = false;
  prefetch_stats stats_;
};

}  // namespace advh::uarch
