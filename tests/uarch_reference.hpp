// Reference uarch replay: the array-of-structs cache, the memory hierarchy
// and the trace generator that the packed-set, division-free,
// sweep-skipping replay in src/uarch replaced, with their code copied
// verbatim (some explanatory comments trimmed). Test-only:
// tests/test_uarch_oracle.cpp asserts that the fast replay reproduces
// every return value, every cache statistic and every uarch_counts field
// of this copy bit for bit. The config/stat types, the prefetcher and the
// gshare predictor are shared with the library (they did not change).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "nn/trace.hpp"
#include "uarch/branch_predictor.hpp"
#include "uarch/cache.hpp"
#include "uarch/hierarchy.hpp"
#include "uarch/prefetcher.hpp"
#include "uarch/trace_gen.hpp"

namespace advh::uarch::reference {

class cache {
 public:
  explicit cache(const cache_config& cfg) : cfg_(cfg) {
    ADVH_CHECK_MSG(std::has_single_bit(cfg_.line_bytes),
                   "line size must be a power of two");
    ADVH_CHECK(cfg_.associativity > 0);
    ADVH_CHECK(cfg_.size_bytes % (cfg_.line_bytes * cfg_.associativity) == 0);
    sets_ = cfg_.size_bytes / (cfg_.line_bytes * cfg_.associativity);
    ADVH_CHECK_MSG(std::has_single_bit(sets_),
                   "set count must be a power of two");
    line_shift_ = static_cast<std::size_t>(std::countr_zero(cfg_.line_bytes));
    lines_.assign(sets_ * cfg_.associativity, line{});
  }

  bool access(std::uint64_t addr, access_type type) {
    ++tick_;
    const std::size_t set = set_index(addr);
    const std::uint64_t tag = tag_of(addr);
    line* base = lines_.data() + set * cfg_.associativity;

    if (type == access_type::load) {
      ++stats_.loads;
    } else {
      ++stats_.stores;
    }

    for (std::size_t w = 0; w < cfg_.associativity; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].lru = tick_;
        if (type == access_type::store) base[w].dirty = true;
        return true;
      }
    }

    // Miss: pick invalid way or LRU victim.
    if (type == access_type::load) {
      ++stats_.load_misses;
    } else {
      ++stats_.store_misses;
    }
    std::size_t victim = 0;
    bool found_invalid = false;
    for (std::size_t w = 0; w < cfg_.associativity; ++w) {
      if (!base[w].valid) {
        victim = w;
        found_invalid = true;
        break;
      }
      if (base[w].lru < base[victim].lru) victim = w;
    }
    if (!found_invalid && base[victim].valid) {
      ++stats_.evictions;
      if (base[victim].dirty) ++stats_.writebacks;
    }
    base[victim] = line{tag, tick_, true, type == access_type::store};
    return false;
  }

  bool probe(std::uint64_t addr) const {
    const std::size_t set = set_index(addr);
    const std::uint64_t tag = tag_of(addr);
    const line* base = lines_.data() + set * cfg_.associativity;
    for (std::size_t w = 0; w < cfg_.associativity; ++w) {
      if (base[w].valid && base[w].tag == tag) return true;
    }
    return false;
  }

  void fill(std::uint64_t addr) {
    ++tick_;
    const std::size_t set = set_index(addr);
    const std::uint64_t tag = tag_of(addr);
    line* base = lines_.data() + set * cfg_.associativity;
    ++stats_.prefetch_fills;
    for (std::size_t w = 0; w < cfg_.associativity; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        // Already resident: refresh recency only.
        base[w].lru = tick_;
        return;
      }
    }
    std::size_t victim = 0;
    bool found_invalid = false;
    for (std::size_t w = 0; w < cfg_.associativity; ++w) {
      if (!base[w].valid) {
        victim = w;
        found_invalid = true;
        break;
      }
      if (base[w].lru < base[victim].lru) victim = w;
    }
    if (!found_invalid && base[victim].valid) {
      ++stats_.evictions;
      if (base[victim].dirty) ++stats_.writebacks;
    }
    base[victim] = line{tag, tick_, true, false};
  }

  void reset() noexcept {
    for (auto& l : lines_) l = line{};
    tick_ = 0;
    stats_ = cache_stats{};
  }
  const cache_stats& stats() const noexcept { return stats_; }
  const cache_config& config() const noexcept { return cfg_; }
  std::size_t num_sets() const noexcept { return sets_; }

 private:
  struct line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // last-use timestamp
    bool valid = false;
    bool dirty = false;
  };

  std::size_t set_index(std::uint64_t addr) const noexcept {
    return static_cast<std::size_t>((addr >> line_shift_) & (sets_ - 1));
  }
  std::uint64_t tag_of(std::uint64_t addr) const noexcept {
    return addr >> line_shift_;  // keep the set bits in the tag; harmless
  }

  cache_config cfg_;
  std::size_t sets_;
  std::size_t line_shift_;
  std::vector<line> lines_;  // sets_ * associativity, set-major
  std::uint64_t tick_ = 0;
  cache_stats stats_;
};

class memory_hierarchy {
 public:
  explicit memory_hierarchy(const hierarchy_config& cfg = {})
      : l1d_(cfg.l1d), l1i_(cfg.l1i), llc_(cfg.llc),
        prefetch_(cfg.l1d_prefetch) {}

  void data_access(std::uint64_t addr, access_type type) {
    const bool hit = l1d_.access(addr, type);
    if (!hit) {
      // Write-allocate: a store miss fetches the line before writing, so
      // the LLC sees it on the store path.
      llc_.access(addr, type);
    }
    // The prefetcher trains on the demand stream (hits included, as L1
    // streamers do) and fills both levels without inflating demand
    // statistics.
    if (prefetch_.kind() != prefetcher_kind::none) {
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
  }

  void fetch(std::uint64_t addr) {
    if (!l1i_.access(addr, access_type::load)) {
      llc_.access(addr, access_type::load);
    }
  }

  void reset() noexcept {
    l1d_.reset();
    l1i_.reset();
    llc_.reset();
    prefetch_.reset();
  }

  const cache& l1d() const noexcept { return l1d_; }
  const prefetcher& l1d_prefetcher() const noexcept { return prefetch_; }
  const cache& l1i() const noexcept { return l1i_; }
  const cache& llc() const noexcept { return llc_; }

  std::uint64_t llc_references() const noexcept {
    return llc_.stats().accesses();
  }
  std::uint64_t llc_misses() const noexcept { return llc_.stats().misses(); }
  std::uint64_t llc_load_misses() const noexcept {
    return llc_.stats().load_misses;
  }
  std::uint64_t llc_store_misses() const noexcept {
    return llc_.stats().store_misses;
  }

 private:
  cache l1d_;
  cache l1i_;
  cache llc_;
  prefetcher prefetch_;
};

class trace_generator {
 public:
  explicit trace_generator(const trace_gen_config& cfg = {})
      : cfg_(cfg),
        mem_(cfg.caches),
        bp_(kPredictorBits),
        next_weight_base_(kWeightRegion) {}

  uarch_counts run(const nn::inference_trace& trace) {
    mem_.reset();
    bp_.reset();
    instructions_ = 0;
    extra_branches_ = 0;
    write_to_second_ = true;

    weight_bases_.clear();
    next_weight_base_ = kWeightRegion;
    for (const auto& e : trace.layers) {
      weight_bases_.push_back(next_weight_base_);
      const std::size_t span =
          std::max<std::size_t>(e.weight_bytes, 1) * kUnfoldFactor;
      next_weight_base_ += ((span + kLine - 1) / kLine) * kLine;
    }

    for (std::size_t idx = 0; idx < trace.layers.size(); ++idx) {
      const auto& e = trace.layers[idx];
      switch (e.kind) {
        case nn::layer_kind::conv2d:
        case nn::layer_kind::depthwise_conv2d:
        case nn::layer_kind::linear:
          replay_parametric(e, idx);
          break;
        case nn::layer_kind::relu:
          replay_activation(e, idx);
          break;
        default:
          replay_structural(e, idx);
          break;
      }
    }

    uarch_counts c;
    c.instructions = instructions_;
    c.branches = bp_.stats().branches + extra_branches_;
    c.branch_misses = bp_.stats().mispredictions;
    c.cache_references = mem_.llc_references();
    c.cache_misses = mem_.llc_misses();
    c.l1d_load_misses = mem_.l1d().stats().load_misses;
    c.l1i_load_misses = mem_.l1i().stats().load_misses;
    c.llc_load_misses = mem_.llc_load_misses();
    c.llc_store_misses = mem_.llc_store_misses();
    return c;
  }

  const trace_gen_config& config() const noexcept { return cfg_; }
  const memory_hierarchy& memory() const noexcept { return mem_; }

 private:
  static constexpr std::uint64_t kWeightRegion = 0x1000'0000;
  static constexpr std::uint64_t kActRegionA = 0x2000'0000;
  static constexpr std::uint64_t kActRegionB = 0x2800'0000;
  static constexpr std::uint64_t kCodeRegion = 0x3000'0000;
  static constexpr std::uint64_t kLine = 64;

  std::uint64_t weight_base(std::size_t layer_idx) const {
    ADVH_CHECK(layer_idx < weight_bases_.size());
    return weight_bases_[layer_idx];
  }

  std::uint64_t code_base(std::size_t layer_idx) const {
    return kCodeRegion +
           static_cast<std::uint64_t>(layer_idx) * kCodeBytesPerLayer;
  }

  void sweep(std::uint64_t base, std::size_t bytes, access_type type) {
    const std::size_t lines = (bytes + kLine - 1) / kLine;
    for (std::size_t l = 0; l < lines; ++l) {
      mem_.data_access(base + l * kLine, type);
    }
  }

  void code_sweep(std::size_t layer_idx) {
    const std::uint64_t base = code_base(layer_idx);
    const std::size_t lines = kCodeBytesPerLayer / kLine;
    for (std::size_t l = 0; l < lines; ++l) mem_.fetch(base + l * kLine);
  }

  void loop_branches(std::size_t layer_idx, std::size_t iterations) {
    const std::uint64_t pc = code_base(layer_idx) + 0x8;
    const std::size_t chunks = iterations / 16 + 1;
    for (std::size_t c = 0; c < chunks; ++c) {
      bp_.execute(pc, c + 1 != chunks);
    }
  }

  void replay_parametric(const nn::layer_trace_entry& e,
                         std::size_t layer_idx) {
    const std::uint64_t w_base = weight_base(layer_idx);
    const std::uint64_t in_base = write_to_second_ ? kActRegionA : kActRegionB;
    const std::uint64_t out_base =
        write_to_second_ ? kActRegionB : kActRegionA;

    const std::size_t in_spatial = std::max<std::size_t>(e.in_spatial, 1);
    const std::size_t out_channels = std::max<std::size_t>(e.out_channels, 1);
    const std::size_t out_spatial = std::max<std::size_t>(e.out_spatial, 1);
    const std::size_t w_bytes = std::max<std::size_t>(e.weight_bytes, kLine);
    const std::size_t out_bytes =
        std::max<std::size_t>(e.out_numel * sizeof(float), kLine);

    const std::size_t in_channels = std::max<std::size_t>(e.in_channels, 1);
    const std::size_t panel_bytes = std::max<std::size_t>(
        (w_bytes * kUnfoldFactor / in_channels + kLine - 1) / kLine *
            kLine,
        kLine);
    const std::size_t panel_lines = panel_bytes / kLine;
    const std::size_t out_plane_bytes = out_spatial * sizeof(float);
    const std::size_t fanout =
        std::min<std::size_t>(cfg_.accum_fanout, out_channels);

    for (std::uint32_t i : e.active_inputs) {
      mem_.data_access(in_base + static_cast<std::uint64_t>(i) * sizeof(float),
                       access_type::load);

      const std::size_t channel = i / in_spatial;
      const std::size_t block = (i % in_spatial) / cfg_.spatial_block;
      const std::uint64_t panel =
          w_base + static_cast<std::uint64_t>(channel) * panel_bytes;
      for (std::size_t l = 0; l < cfg_.panel_lines; ++l) {
        mem_.data_access(panel + ((block + l * 0x61ULL) % panel_lines) * kLine,
                         access_type::load);
      }

      const std::size_t spatial_in = i % in_spatial;
      const std::size_t spatial_out =
          in_spatial > 1 ? spatial_in * out_spatial / in_spatial : 0;
      for (std::size_t f = 0; f < fanout; ++f) {
        const std::size_t plane = f * out_channels / fanout;
        const std::uint64_t addr =
            out_base +
            (plane * out_plane_bytes + spatial_out * sizeof(float)) %
                out_bytes;
        mem_.data_access(addr, access_type::load);
        mem_.data_access(addr, access_type::store);
      }
    }

    sweep(out_base, out_bytes, access_type::store);

    const std::size_t n_active = e.active_inputs.size();
    instructions_ += kInsnPerIn * e.in_numel +
                     kInsnPerActive * n_active +
                     cfg_.insn_per_out * e.out_numel + kInsnPerLayer;
    extra_branches_ +=
        (e.in_numel + e.out_numel) / kBranchPerOutDiv + 64;
    loop_branches(layer_idx, e.in_numel);
    const std::size_t sweeps =
        1 + e.out_numel / std::max<std::size_t>(cfg_.code_sweep_interval, 1);
    for (std::size_t s = 0; s < sweeps; ++s) code_sweep(layer_idx);

    write_to_second_ = !write_to_second_;
  }

  void replay_activation(const nn::layer_trace_entry& e,
                         std::size_t layer_idx) {
    const std::uint64_t in_base = write_to_second_ ? kActRegionA : kActRegionB;
    sweep(in_base, e.in_numel * sizeof(float), access_type::load);
    sweep(in_base, e.out_numel * sizeof(float), access_type::store);

    instructions_ += 3 * e.in_numel + kInsnPerLayer / 4;
    extra_branches_ += e.in_numel / kBranchPerOutDiv + 16;
    loop_branches(layer_idx, e.in_numel);
    code_sweep(layer_idx);
  }

  void replay_structural(const nn::layer_trace_entry& e,
                         std::size_t layer_idx) {
    const std::uint64_t in_base = write_to_second_ ? kActRegionA : kActRegionB;
    const std::uint64_t out_base =
        write_to_second_ ? kActRegionB : kActRegionA;

    sweep(in_base, e.in_numel * sizeof(float), access_type::load);
    sweep(out_base, e.out_numel * sizeof(float), access_type::store);

    instructions_ += 4 * e.in_numel + 2 * e.out_numel + kInsnPerLayer / 4;
    extra_branches_ +=
        (e.in_numel + e.out_numel) / kBranchPerOutDiv + 16;
    loop_branches(layer_idx, e.in_numel);
    code_sweep(layer_idx);
    write_to_second_ = !write_to_second_;
  }

  trace_gen_config cfg_;
  memory_hierarchy mem_;
  gshare_predictor bp_;
  std::uint64_t instructions_ = 0;
  std::uint64_t extra_branches_ = 0;
  bool write_to_second_ = true;
  std::vector<std::uint64_t> weight_bases_;
  std::uint64_t next_weight_base_;
};

}  // namespace advh::uarch::reference
