// Forward-pass kernel oracles.
//
// The inference kernels (register-tiled GEMM, im2col scratch, flat-indexed
// batch-norm / depthwise / pooling loops) promise activations that are
// bitwise identical to the plain loops they replaced. These tests pin
// that promise twice: the GEMM tiles against a copy of the reference ikj
// loop, and whole-model forward/backward passes over the shipped S1-S3
// models against hashes recorded with the reference kernels.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "nn/models/models.hpp"
#include "nn/serialize.hpp"
#include "tensor/matmul.hpp"
#include "tensor/matmul_detail.hpp"
#include "tensor/ops.hpp"

using namespace advh;

namespace {

std::string repo_path(const std::string& name) {
  return std::string(ADVH_REPO_DIR) + "/" + name;
}

// ----------------------------------------------------------- GEMM tiles --

// The reference GEMM: the plain ikj loop the tiles replaced.
void reference_matmul(const float* a, const float* b, float* c, std::size_t m,
                      std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

struct gemm_case {
  std::vector<float> a, b;
  std::size_t m, n, k;
};

// Random A with every third weight zero; with `poison`, B rows behind a
// column of A that is zero in every row carry NaN and +-inf, which the
// zero skip must keep out of C.
gemm_case make_case(std::size_t m, std::size_t n, std::size_t k, bool poison,
                    std::uint64_t seed) {
  rng gen(seed);
  gemm_case g{std::vector<float>(m * k), std::vector<float>(k * n), m, n, k};
  for (std::size_t i = 0; i < m * k; ++i) {
    g.a[i] = i % 3 == 1 ? 0.0f : static_cast<float>(gen.normal(0.0, 1.0));
  }
  for (float& v : g.b) v = static_cast<float>(gen.normal(0.0, 1.0));
  if (poison) {
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
    for (std::size_t kk = 0; kk < k; kk += 2) {
      for (std::size_t i = 0; i < m; ++i) g.a[i * k + kk] = 0.0f;
      for (std::size_t j = 0; j < n; ++j) {
        g.b[kk * n + j] = specials[(kk + j) % 3];
      }
    }
  }
  return g;
}

// `fn(a, b, c, m, n, k)` fills the zeroed c.
template <class Gemm>
void expect_bitwise_equal_to_reference(Gemm fn) {
  std::uint64_t seed = 1;
  for (std::size_t m : {1, 3, 4, 5, 6, 8, 64}) {
    for (std::size_t n : {1, 15, 16, 17, 64, 1024}) {
      for (std::size_t k : {1, 27, 72, 288}) {
        for (bool poison : {false, true}) {
          const gemm_case g = make_case(m, n, k, poison, seed++);
          std::vector<float> want(m * n, 0.0f), got(m * n, 0.0f);
          reference_matmul(g.a.data(), g.b.data(), want.data(), m, n, k);
          fn(g.a.data(), g.b.data(), got.data(), m, n, k);
          ASSERT_EQ(std::memcmp(want.data(), got.data(),
                                want.size() * sizeof(float)),
                    0)
              << "m=" << m << " n=" << n << " k=" << k
              << " poison=" << poison;
        }
      }
    }
  }
}

}  // namespace

TEST(GemmTiles, PortableTileIsBitwiseIdenticalToIkj) {
  expect_bitwise_equal_to_reference(ops::detail::gemm_portable);
}

TEST(GemmTiles, Avx2TileIsBitwiseIdenticalToIkj) {
  if (!ops::detail::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  expect_bitwise_equal_to_reference(ops::detail::gemm_avx2);
}

TEST(GemmTiles, DispatchedMatmulIsBitwiseIdenticalToIkj) {
  expect_bitwise_equal_to_reference([](const float* a, const float* b,
                                       float* c, std::size_t m, std::size_t n,
                                       std::size_t k) {
    const tensor got =
        ops::matmul(tensor(shape{m, k}, std::vector<float>(a, a + m * k)),
                    tensor(shape{k, n}, std::vector<float>(b, b + k * n)));
    std::memcpy(c, got.data().data(), m * n * sizeof(float));
  });
}

namespace {

// --------------------------------------------------------- model golden --

// FNV-1a over raw bytes: any bit flip in an activation, gradient or trace
// index changes the hash.
struct fnv1a {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void floats(const tensor& t) {
    u64(t.numel());
    bytes(t.data().data(), t.numel() * sizeof(float));
  }
  void indices(const std::vector<std::uint32_t>& v) {
    u64(v.size());
    bytes(v.data(), v.size() * sizeof(std::uint32_t));
  }
};

void hash_trace(const nn::inference_trace& trace, fnv1a& h) {
  h.u64(trace.layers.size());
  for (const auto& e : trace.layers) {
    h.u64(static_cast<std::uint64_t>(e.kind));
    h.u64(e.in_numel);
    h.u64(e.out_numel);
    h.u64(e.weight_bytes);
    h.u64(e.in_channels);
    h.u64(e.in_spatial);
    h.u64(e.out_channels);
    h.u64(e.out_spatial);
    h.indices(e.active_inputs);
    h.indices(e.active_outputs);
  }
}

struct scenario_model {
  const char* file;
  nn::architecture arch;
  shape input;
  std::size_t classes;
};

const scenario_model kScenarios[] = {
    {"advh_models/S1_efficientnet_lite.advh",
     nn::architecture::efficientnet_lite, shape{1, 28, 28}, 10},
    {"advh_models/S2_resnet_small.advh", nn::architecture::resnet_small,
     shape{3, 32, 32}, 10},
    {"advh_models/S3_densenet_small.advh", nn::architecture::densenet_small,
     shape{3, 32, 32}, 43},
};

std::unique_ptr<nn::model> load_scenario(const scenario_model& s) {
  auto m = nn::make_model(s.arch, s.input, s.classes, 1234);
  nn::load_state(*m, repo_path(s.file), /*verify=*/false);
  return m;
}

constexpr std::size_t kInputsPerScenario = 4;

// Fixed inputs in the models' [0, 1) pixel range; one seed per scenario.
std::vector<tensor> golden_inputs(const scenario_model& s, std::uint64_t seed) {
  rng gen(seed);
  std::vector<tensor> xs;
  for (std::size_t i = 0; i < kInputsPerScenario; ++i) {
    xs.push_back(tensor::rand_uniform(shape{1, s.input[0], s.input[1],
                                            s.input[2]},
                                      gen, 0.0f, 1.0f));
  }
  return xs;
}

// One traced inference-mode forward: logits bits, predicted class and
// every trace entry.
void hash_traced_forward(nn::model& m, const tensor& x, fnv1a& h) {
  nn::inference_trace trace;
  nn::forward_ctx ctx;
  ctx.grad = false;
  ctx.trace = &trace;
  const tensor logits = m.forward(x, ctx);
  h.floats(logits);
  h.u64(ops::argmax(logits));
  hash_trace(trace, h);
}

// A fixed, sign-mixed logit gradient so every backward path sees
// non-trivial values.
tensor logit_gradient(std::size_t batch, std::size_t classes) {
  tensor g(shape{batch, classes});
  for (std::size_t i = 0; i < g.numel(); ++i) {
    g[i] = 0.25f * static_cast<float>(static_cast<int>(i % 5) - 2);
  }
  return g;
}

// One grad=true forward + backward (the attack path: inference-mode
// statistics, cached activations) and, with `training`, the training-mode
// batch statistics over a batch of every input.
void hash_backward(nn::model& m, const tensor& x, bool training, fnv1a& h) {
  m.zero_grad();
  nn::forward_ctx ctx;
  ctx.training = training;
  const tensor logits = m.forward(x, ctx);
  h.floats(logits);
  const tensor grad_in =
      m.backward(logit_gradient(x.dims()[0], m.num_classes()));
  h.floats(grad_in);
  for (nn::parameter* p : m.params()) h.floats(p->grad);
}

tensor stack(const std::vector<tensor>& xs) {
  const shape one = xs.front().dims();
  std::vector<float> data;
  for (const tensor& x : xs) {
    data.insert(data.end(), x.data().begin(), x.data().end());
  }
  return tensor(shape{xs.size(), one[1], one[2], one[3]}, std::move(data));
}

std::uint64_t scenario_hash(std::size_t s) {
  auto m = load_scenario(kScenarios[s]);
  const auto xs = golden_inputs(kScenarios[s], 100 + s);
  fnv1a h;
  for (const tensor& x : xs) hash_traced_forward(*m, x, h);
  hash_backward(*m, xs.front(), /*training=*/false, h);
  // Training last: it moves the batch-norm running statistics.
  hash_backward(*m, stack(xs), /*training=*/true, h);
  return h.h;
}

// Recorded with the reference (pre-tiling) kernels.
constexpr std::uint64_t kGolden[] = {
    0x218b9daac1b7e89full,
    0x9ba17fab03d39b43ull,
    0xad50e1bae5d33086ull,
};

}  // namespace

TEST(ModelGolden, S1ForwardTraceAndGradientsMatchReference) {
  EXPECT_EQ(scenario_hash(0), kGolden[0])
      << std::hex << "got 0x" << scenario_hash(0);
}

TEST(ModelGolden, S2ForwardTraceAndGradientsMatchReference) {
  EXPECT_EQ(scenario_hash(1), kGolden[1])
      << std::hex << "got 0x" << scenario_hash(1);
}

TEST(ModelGolden, S3ForwardTraceAndGradientsMatchReference) {
  EXPECT_EQ(scenario_hash(2), kGolden[2])
      << std::hex << "got 0x" << scenario_hash(2);
}

TEST(ModelGolden, ConcurrentTracedForwardsOverASharedModel) {
  // Four threads trace different inputs through one shared S2 model at
  // once (per-thread kernel scratch); each must match its serial result.
  auto m = load_scenario(kScenarios[1]);
  const auto xs = golden_inputs(kScenarios[1], 101);
  std::vector<std::uint64_t> serial(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    fnv1a h;
    hash_traced_forward(*m, xs[i], h);
    serial[i] = h.h;
  }
  constexpr std::size_t kReps = 3;
  std::vector<std::vector<std::uint64_t>> concurrent(xs.size());
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    workers.emplace_back([&, i] {
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        fnv1a h;
        hash_traced_forward(*m, xs[i], h);
        concurrent[i].push_back(h.h);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(concurrent[i], std::vector<std::uint64_t>(kReps, serial[i]))
        << "input " << i;
  }
}
