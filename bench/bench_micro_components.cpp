// google-benchmark microbenchmarks for the performance-critical library
// components: cache simulation, branch prediction, traced inference, GMM
// fitting, and detector scoring. These quantify the overhead budget of
// AdvHunter's online phase.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/detector.hpp"
#include "gmm/gmm.hpp"
#include "hpc/sim_backend.hpp"
#include "nn/models/models.hpp"
#include "uarch/trace_gen.hpp"

using namespace advh;

namespace {

void BM_CacheAccess(benchmark::State& state) {
  uarch::cache c({"l1", 32 * 1024, 64, 8});
  rng gen(1);
  std::vector<std::uint64_t> addrs(4096);
  for (auto& a : addrs) a = gen.uniform_index(1 << 20) * 64;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        c.access(addrs[i++ & 4095], uarch::access_type::load));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_GsharePredict(benchmark::State& state) {
  uarch::gshare_predictor bp(12);
  rng gen(2);
  std::vector<bool> taken(4096);
  for (std::size_t i = 0; i < taken.size(); ++i) taken[i] = gen.bernoulli(0.7);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bp.execute(0x400, taken[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GsharePredict);

void BM_Inference(benchmark::State& state) {
  auto m = nn::make_model(nn::architecture::resnet_small, shape{3, 32, 32},
                          10, 1);
  rng gen(3);
  tensor x = tensor::rand_uniform(shape{1, 3, 32, 32}, gen, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->predict_one(x));
  }
}
BENCHMARK(BM_Inference);

void BM_TracedInferencePlusSim(benchmark::State& state) {
  auto m = nn::make_model(nn::architecture::resnet_small, shape{3, 32, 32},
                          10, 1);
  uarch::trace_generator gen_sim;
  rng gen(4);
  tensor x = tensor::rand_uniform(shape{1, 3, 32, 32}, gen, 0.0f, 1.0f);
  for (auto _ : state) {
    std::size_t pred = 0;
    auto trace = m->trace_inference(x, pred);
    benchmark::DoNotOptimize(gen_sim.run(trace));
  }
}
BENCHMARK(BM_TracedInferencePlusSim);

// The uarch replay alone: one traced forward outside the timed loop, so
// ns/input here is the cache/branch replay cost without the forward pass.
void BM_Replay(benchmark::State& state) {
  auto m = nn::make_model(nn::architecture::resnet_small, shape{3, 32, 32},
                          10, 1);
  uarch::trace_generator gen_sim;
  rng gen(4);
  tensor x = tensor::rand_uniform(shape{1, 3, 32, 32}, gen, 0.0f, 1.0f);
  std::size_t pred = 0;
  const auto trace = m->trace_inference(x, pred);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen_sim.run(trace));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Replay);

void BM_GmmFitBic(benchmark::State& state) {
  rng gen(5);
  std::vector<double> data;
  for (int i = 0; i < 40; ++i) data.push_back(gen.normal(1000.0, 10.0));
  for (int i = 0; i < 40; ++i) data.push_back(gen.normal(1200.0, 12.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gmm::gmm1d::fit_best_bic(data, 4));
  }
}
BENCHMARK(BM_GmmFitBic);

// Calibrate's shape: 50 points from one Gaussian, where the k = 2..4 EM
// chains run long and lose the BIC to k = 1.
void BM_GmmFitBicUnimodal50(benchmark::State& state) {
  rng gen(5);
  std::vector<double> data;
  for (int i = 0; i < 50; ++i) data.push_back(gen.normal(2000.0, 12.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gmm::gmm1d::fit_best_bic(data, 4));
  }
}
BENCHMARK(BM_GmmFitBicUnimodal50);

void BM_DetectorScore(benchmark::State& state) {
  core::benign_template tpl(10, 5);
  rng gen(6);
  for (std::size_t cls = 0; cls < 10; ++cls) {
    for (int m = 0; m < 40; ++m) {
      std::vector<double> row;
      for (int e = 0; e < 5; ++e) {
        row.push_back(gen.normal(1000.0 * (e + 1), 10.0));
      }
      tpl.add_row(cls, row);
    }
  }
  core::detector_config cfg;
  cfg.events = hpc::core_events();
  const auto det = core::detector::fit(tpl, cfg);
  std::vector<double> probe{1000, 2000, 3000, 4000, 5000};
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.score(3, probe));
  }
}
BENCHMARK(BM_DetectorScore);

}  // namespace

BENCHMARK_MAIN();
