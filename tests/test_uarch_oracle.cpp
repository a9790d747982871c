// Replay oracles.
//
// The uarch replay (packed per-set cache arrays, the division-free
// parametric gather, skipped repeat code sweeps) promises the exact event
// profile of the straightforward replay it replaced. These tests hold it
// to that against the verbatim copy in uarch_reference.hpp at three
// levels: every return value and cache statistic of one cache, step by
// step; every statistic of the hierarchy under repeated code sweeps; and
// every uarch_counts field and cache statistic of whole-trace replays of
// the shipped S1-S3 models, clean and FGSM-perturbed, over the ablation
// geometries and prefetchers and over hand-built traces.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attack/fgsm.hpp"
#include "common/rng.hpp"
#include "data/scenarios.hpp"
#include "nn/models/models.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "uarch/cache.hpp"
#include "uarch/hierarchy.hpp"
#include "uarch/trace_gen.hpp"
#include "uarch_reference.hpp"

using namespace advh;
using namespace advh::uarch;

namespace {

std::string describe(const cache_stats& s) {
  std::ostringstream os;
  os << "loads=" << s.loads << " stores=" << s.stores
     << " prefetch_fills=" << s.prefetch_fills
     << " load_misses=" << s.load_misses << " store_misses=" << s.store_misses
     << " evictions=" << s.evictions << " writebacks=" << s.writebacks;
  return os.str();
}

std::string describe(const uarch_counts& c) {
  std::ostringstream os;
  os << "instructions=" << c.instructions << " branches=" << c.branches
     << " branch_misses=" << c.branch_misses
     << " cache_references=" << c.cache_references
     << " cache_misses=" << c.cache_misses
     << " l1d_load_misses=" << c.l1d_load_misses
     << " l1i_load_misses=" << c.l1i_load_misses
     << " llc_load_misses=" << c.llc_load_misses
     << " llc_store_misses=" << c.llc_store_misses;
  return os.str();
}

std::string describe(const prefetch_stats& p) {
  return "issued=" + std::to_string(p.issued) +
         " useful_hint=" + std::to_string(p.useful_hint);
}

// Every field, compared through its full printout.
template <class Hierarchy>
std::string describe_memory(const Hierarchy& m) {
  return "L1-D{" + describe(m.l1d().stats()) + "} L1-I{" +
         describe(m.l1i().stats()) + "} LLC{" + describe(m.llc().stats()) +
         "} prefetch{" + describe(m.l1d_prefetcher().stats()) + "}";
}

// ------------------------------------------------------------ one cache --

struct geometry {
  std::size_t size_bytes;
  std::size_t line_bytes;
  std::size_t ways;
};

class CacheOracle : public ::testing::TestWithParam<geometry> {};

TEST_P(CacheOracle, RandomStreamMatchesReferenceStepByStep) {
  const geometry g = GetParam();
  const cache_config cfg{"oracle", g.size_bytes, g.line_bytes, g.ways};
  cache fast(cfg);
  reference::cache ref(cfg);
  rng gen(g.size_bytes * 131 + g.line_bytes * 7 + g.ways);
  for (std::size_t step = 0; step < 40000; ++step) {
    // Half the addresses fall inside one cache size (mostly hits), half in
    // eight (capacity and conflict misses); a few sit at the top of the
    // address space, next to the empty-way tag.
    const std::uint64_t pick = gen.uniform_index(100);
    std::uint64_t addr = gen.uniform_index(pick < 50 ? g.size_bytes
                                                      : 8 * g.size_bytes);
    if (pick == 99) addr = ~std::uint64_t{0} - addr;
    const std::uint64_t op = gen.uniform_index(1000);
    if (op < 450) {
      ASSERT_EQ(fast.access(addr, access_type::load),
                ref.access(addr, access_type::load))
          << "load at step " << step;
    } else if (op < 750) {
      ASSERT_EQ(fast.access(addr, access_type::store),
                ref.access(addr, access_type::store))
          << "store at step " << step;
    } else if (op < 900) {
      fast.fill(addr);
      ref.fill(addr);
    } else if (op < 999) {
      ASSERT_EQ(fast.probe(addr), ref.probe(addr)) << "probe at step " << step;
    } else {
      fast.reset();
      ref.reset();
    }
    ASSERT_EQ(describe(fast.stats()), describe(ref.stats()))
        << "after step " << step;
  }
  EXPECT_GT(ref.stats().evictions, 0u);
  EXPECT_GT(ref.stats().writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracle,
    ::testing::Values(geometry{512, 64, 2}, geometry{1024, 64, 4},
                      geometry{4096, 64, 8}, geometry{8192, 32, 4},
                      geometry{32768, 64, 8}, geometry{1024, 128, 2},
                      geometry{2048, 64, 32} /* fully associative */,
                      geometry{64 * 1024, 64, 8} /* default LLC */));

// -------------------------------------------------------- the hierarchy --

hierarchy_config with_l1i(std::size_t size, std::size_t ways,
                          prefetcher_kind prefetch) {
  hierarchy_config cfg;
  cfg.l1i = {"L1-I", size, 64, ways};
  cfg.l1d_prefetch = prefetch;
  return cfg;
}

TEST(HierarchyOracle, FetchSweepsMatchRepeatedFetches) {
  // Random data traffic interleaved with code sweeps of random length and
  // repeat count, through L1-Is that hold a sweep, that do not (1 KB
  // against sweeps up to 4 KB), and that hold it only without conflicts.
  for (const prefetcher_kind prefetch :
       {prefetcher_kind::none, prefetcher_kind::next_line,
        prefetcher_kind::stride}) {
    for (const auto& [size, ways] :
         {std::pair<std::size_t, std::size_t>{8192, 4}, {1024, 4}, {2048, 2},
          {4096, 64}}) {
      const hierarchy_config cfg = with_l1i(size, ways, prefetch);
      memory_hierarchy fast(cfg);
      reference::memory_hierarchy ref(cfg);
      rng gen(size + ways + static_cast<std::size_t>(prefetch));
      for (std::size_t step = 0; step < 3000; ++step) {
        const std::uint64_t op = gen.uniform_index(10);
        if (op < 6) {
          const std::uint64_t addr = 0x2000'0000 + gen.uniform_index(1 << 16);
          const access_type type =
              op < 4 ? access_type::load : access_type::store;
          fast.data_access(addr, type);
          ref.data_access(addr, type);
        } else if (op < 7) {
          const std::uint64_t addr = 0x3000'0000 + gen.uniform_index(1 << 14);
          fast.fetch(addr);
          ref.fetch(addr);
        } else {
          const std::uint64_t base =
              0x3000'0000 + 2048 * gen.uniform_index(8);
          const std::uint64_t stride = std::uint64_t{32} << gen.uniform_index(3);
          const std::size_t lines = gen.uniform_index(65);
          const std::size_t sweeps = gen.uniform_index(7);
          fast.fetch_sweeps(base, stride, lines, sweeps);
          for (std::size_t s = 0; s < sweeps; ++s) {
            for (std::size_t l = 0; l < lines; ++l) {
              ref.fetch(base + l * stride);
            }
          }
        }
        ASSERT_EQ(describe_memory(fast), describe_memory(ref))
            << "l1i " << size << "/" << ways << "-way, prefetcher "
            << static_cast<int>(prefetch) << ", step " << step;
      }
    }
  }
}

// ------------------------------------------------------------ whole traces --

std::string repo_path(const std::string& name) {
  return std::string(ADVH_REPO_DIR) + "/" + name;
}

struct named_config {
  std::string label;
  trace_gen_config cfg;
};

// The default replay, the bench_ablation_uarch variants, an L1-I smaller
// than one layer's code (every repeat sweep misses, so none is skipped)
// and a non-default gather/accumulate shape.
std::vector<named_config> replay_configs() {
  std::vector<named_config> out;
  out.push_back({"default", {}});
  out.push_back({"llc-32K", {}});
  out.back().cfg.caches.llc.size_bytes = 32 * 1024;
  out.push_back({"llc-256K", {}});
  out.back().cfg.caches.llc.size_bytes = 256 * 1024;
  out.push_back({"l1d-32K", {}});
  out.back().cfg.caches.l1d.size_bytes = 32 * 1024;
  out.push_back({"next-line", {}});
  out.back().cfg.caches.l1d_prefetch = prefetcher_kind::next_line;
  out.push_back({"stride", {}});
  out.back().cfg.caches.l1d_prefetch = prefetcher_kind::stride;
  out.push_back({"l1i-1K", {}});
  out.back().cfg.caches.l1i = {"L1-I", 1024, 64, 4};
  out.push_back({"wide-gather", {}});
  out.back().cfg.panel_lines = 3;
  out.back().cfg.accum_fanout = 4;
  out.back().cfg.spatial_block = 3;
  out.back().cfg.code_sweep_interval = 7;
  return out;
}

void expect_replays_match(const std::vector<nn::inference_trace>& traces,
                          const std::string& what) {
  for (const named_config& c : replay_configs()) {
    trace_generator fast(c.cfg);
    reference::trace_generator ref(c.cfg);
    for (std::size_t t = 0; t < traces.size(); ++t) {
      // The same generators replay every trace in turn, as a measurement
      // worker does, so state left by one run must not leak into the next.
      const uarch_counts want = ref.run(traces[t]);
      const uarch_counts got = fast.run(traces[t]);
      ASSERT_EQ(describe(got), describe(want))
          << what << " trace " << t << ", config " << c.label;
      ASSERT_EQ(describe_memory(fast.memory()), describe_memory(ref.memory()))
          << what << " trace " << t << ", config " << c.label;
    }
  }
}

struct scenario_model {
  data::scenario_id id;
  const char* file;
};

constexpr scenario_model kScenarios[] = {
    {data::scenario_id::s1, "advh_models/S1_efficientnet_lite.advh"},
    {data::scenario_id::s2, "advh_models/S2_resnet_small.advh"},
    {data::scenario_id::s3, "advh_models/S3_densenet_small.advh"},
};

constexpr std::size_t kInputsPerScenario = 4;

// Traces of the first test-split examples and of their FGSM-perturbed
// versions through the shipped model.
std::vector<nn::inference_trace> scenario_traces(const scenario_model& s) {
  const data::scenario_spec spec = data::get_scenario(s.id);
  auto test_spec = spec.dataset_spec;
  test_spec.sample_seed = 1;
  const data::dataset d = data::make_synthetic(test_spec, 1);
  auto m = nn::make_model(spec.arch, d.example_shape(), d.num_classes, 1234);
  nn::load_state(*m, repo_path(s.file), /*verify=*/false);

  attack::attack_config acfg;
  acfg.epsilon = 0.1f;
  attack::fgsm fgsm(acfg);
  std::vector<nn::inference_trace> traces;
  for (std::size_t i = 0; i < kInputsPerScenario; ++i) {
    const tensor x = nn::single_example(d.images, i);
    std::size_t predicted = 0;
    traces.push_back(m->trace_inference(x, predicted));
    const tensor adv = fgsm.run(*m, x, d.labels[i]).adversarial;
    traces.push_back(m->trace_inference(adv, predicted));
  }
  return traces;
}

TEST(ReplayOracle, S1CleanAndFgsmTracesMatchReference) {
  expect_replays_match(scenario_traces(kScenarios[0]), "S1");
}

TEST(ReplayOracle, S2CleanAndFgsmTracesMatchReference) {
  expect_replays_match(scenario_traces(kScenarios[1]), "S2");
}

TEST(ReplayOracle, S3CleanAndFgsmTracesMatchReference) {
  expect_replays_match(scenario_traces(kScenarios[2]), "S3");
}

nn::layer_trace_entry parametric(nn::layer_kind kind, std::size_t in_channels,
                                 std::size_t in_spatial,
                                 std::size_t out_channels,
                                 std::size_t out_spatial,
                                 std::vector<std::uint32_t> active) {
  nn::layer_trace_entry e;
  e.kind = kind;
  e.in_channels = in_channels;
  e.in_spatial = in_spatial;
  e.in_numel = in_channels * in_spatial;
  e.out_channels = out_channels;
  e.out_spatial = out_spatial;
  e.out_numel = out_channels * out_spatial;
  e.weight_bytes = in_channels * out_channels * 9 * sizeof(float);
  e.active_inputs = std::move(active);
  return e;
}

nn::layer_trace_entry dense(nn::layer_kind kind, std::size_t in_numel,
                            std::size_t out_numel) {
  nn::layer_trace_entry e;
  e.kind = kind;
  e.in_numel = in_numel;
  e.out_numel = out_numel;
  return e;
}

TEST(ReplayOracle, HandBuiltTracesInAnyOrderMatchReference) {
  rng gen(17);
  // Unsorted, with repeats, and running past in_channels * in_spatial:
  // the incremental channel tracking must fall back to a division on every
  // backward step and every jump past the next channel.
  std::vector<std::uint32_t> shuffled;
  for (std::size_t k = 0; k < 300; ++k) {
    shuffled.push_back(static_cast<std::uint32_t>(gen.uniform_index(400)));
  }
  shuffled.insert(shuffled.end(), {5, 5, 5, 255, 256, 257, 0, 70000, 4000000000u});
  // Ascending with a gap of several channels at once.
  std::vector<std::uint32_t> gapped{0, 1, 2, 63, 64, 65, 127, 128, 1000, 1001};
  for (std::uint32_t i = 1100; i < 1200; ++i) gapped.push_back(i);
  // Fewer active elements than spatial positions, mostly far apart.
  const std::vector<std::uint32_t> sparse{3, 9000, 2, 4095, 4096, 12345};

  nn::inference_trace t;
  t.layers.push_back(
      parametric(nn::layer_kind::conv2d, 4, 64, 8, 16, shuffled));
  t.layers.push_back(dense(nn::layer_kind::relu, 128, 128));
  t.layers.push_back(
      parametric(nn::layer_kind::depthwise_conv2d, 16, 64, 16, 64, gapped));
  t.layers.push_back(dense(nn::layer_kind::maxpool2d, 1024, 256));
  t.layers.push_back(
      parametric(nn::layer_kind::conv2d, 3, 4096, 4, 1024, sparse));
  // Degenerate geometry (zero spatial/channel fields clamp to one).
  t.layers.push_back(parametric(nn::layer_kind::conv2d, 0, 0, 0, 0, {0, 7, 3}));
  t.layers.push_back(parametric(nn::layer_kind::linear, 256, 1, 10, 1,
                                {0, 1, 2, 3, 9, 10, 200, 201, 202, 2, 255}));
  t.layers.push_back(dense(nn::layer_kind::global_avgpool, 256, 16));
  // Wide output: many repeat code sweeps.
  t.layers.push_back(
      parametric(nn::layer_kind::conv2d, 2, 16, 64, 256, gapped));

  nn::inference_trace shuffled_only;
  shuffled_only.layers.push_back(t.layers.front());
  expect_replays_match({t, shuffled_only, nn::inference_trace{}}, "hand-built");
}

}  // namespace
