// Model-level tests: architectures, loss, optimizers, training,
// serialization, and trace capture.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "data/synthetic.hpp"
#include "nn/loss.hpp"
#include "nn/models/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"

namespace advh::nn {
namespace {

TEST(Loss, UniformLogitsGiveLogC) {
  tensor logits(shape{2, 4});
  auto r = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(r.value, std::log(4.0), 1e-5);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  rng gen(1);
  tensor logits = tensor::randn(shape{3, 5}, gen);
  auto r = softmax_cross_entropy(logits, {1, 2, 4});
  for (std::size_t b = 0; b < 3; ++b) {
    double s = 0.0;
    for (std::size_t c = 0; c < 5; ++c) s += r.grad_logits.at(b, c);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(Loss, GradientMatchesFiniteDifference) {
  rng gen(2);
  tensor logits = tensor::randn(shape{2, 3}, gen);
  const std::vector<std::size_t> labels{2, 0};
  auto r = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    tensor lp = logits;
    lp[i] += eps;
    tensor lm = logits;
    lm[i] -= eps;
    const double fd = (softmax_cross_entropy(lp, labels).value -
                       softmax_cross_entropy(lm, labels).value) /
                      (2.0 * eps);
    EXPECT_NEAR(r.grad_logits[i], fd, 1e-3);
  }
}

TEST(Loss, PerfectPredictionNearZeroLoss) {
  tensor logits(shape{1, 3}, std::vector<float>{20.0f, 0.0f, 0.0f});
  auto r = softmax_cross_entropy(logits, {0});
  EXPECT_LT(r.value, 1e-6);
}

TEST(Loss, LabelOutOfRangeThrows) {
  tensor logits(shape{1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), invariant_error);
}

TEST(Loss, NllGradSingleIsShiftedSoftmax) {
  tensor logits(shape{1, 3}, std::vector<float>{1.0f, 2.0f, 3.0f});
  tensor g = nll_grad_single(logits, 1);
  tensor p = ops::softmax_rows(logits);
  EXPECT_NEAR(g[0], p[0], 1e-6);
  EXPECT_NEAR(g[1], p[1] - 1.0f, 1e-6);
  EXPECT_NEAR(g[2], p[2], 1e-6);
}

TEST(Optimizer, SgdDescendsQuadratic) {
  // Minimise f(w) = 0.5 * w^2 by hand-fed gradients.
  parameter w("w", tensor(shape{1}, 4.0f));
  sgd opt({&w}, 0.1f, 0.0f);
  for (int i = 0; i < 100; ++i) {
    opt.zero_grad();
    w.grad[0] = w.value[0];
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 0.0, 1e-3);
}

TEST(Optimizer, MomentumAcceleratesDescent) {
  parameter a("a", tensor(shape{1}, 4.0f));
  parameter b("b", tensor(shape{1}, 4.0f));
  sgd plain({&a}, 0.02f, 0.0f);
  sgd heavy({&b}, 0.02f, 0.9f);
  for (int i = 0; i < 30; ++i) {
    plain.zero_grad();
    a.grad[0] = a.value[0];
    plain.step();
    heavy.zero_grad();
    b.grad[0] = b.value[0];
    heavy.step();
  }
  EXPECT_LT(std::fabs(b.value[0]), std::fabs(a.value[0]));
}

TEST(Optimizer, WeightDecayShrinksWeights) {
  parameter w("w", tensor(shape{1}, 1.0f));
  sgd opt({&w}, 0.1f, 0.0f, 0.5f);
  opt.zero_grad();  // zero gradient: only decay acts
  opt.step();
  EXPECT_LT(w.value[0], 1.0f);
}

TEST(Models, AllArchitecturesForwardCorrectShapes) {
  struct spec {
    architecture arch;
    shape input;
    std::size_t classes;
  };
  const std::vector<spec> specs{
      {architecture::case_study_cnn, shape{3, 32, 32}, 10},
      {architecture::efficientnet_lite, shape{1, 28, 28}, 10},
      {architecture::resnet_small, shape{3, 32, 32}, 10},
      {architecture::densenet_small, shape{3, 32, 32}, 43},
  };
  for (const auto& s : specs) {
    auto m = make_model(s.arch, s.input, s.classes, 1);
    tensor x(shape{2, s.input[0], s.input[1], s.input[2]});
    tensor y = m->forward(x);
    EXPECT_EQ(y.dims(), shape({2, s.classes}))
        << to_string(s.arch);
    EXPECT_GT(m->param_count(), 100u) << to_string(s.arch);
  }
}

TEST(Models, ArchitectureNamesRoundTrip) {
  for (auto a : {architecture::case_study_cnn, architecture::efficientnet_lite,
                 architecture::resnet_small, architecture::densenet_small}) {
    EXPECT_EQ(architecture_from_string(to_string(a)), a);
  }
  EXPECT_THROW(architecture_from_string("vgg"), invariant_error);
}

TEST(Models, SameSeedSameWeights) {
  auto a = make_model(architecture::resnet_small, shape{3, 32, 32}, 10, 7);
  auto b = make_model(architecture::resnet_small, shape{3, 32, 32}, 10, 7);
  auto pa = a->params();
  auto pb = b->params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(pa[i]->value[j], pb[i]->value[j]);
    }
  }
}

TEST(Models, InputShapeValidated) {
  auto m = make_model(architecture::resnet_small, shape{3, 32, 32}, 10, 1);
  EXPECT_THROW(m->forward(tensor(shape{1, 1, 32, 32})), invariant_error);
}

TEST(Models, TraceInferenceRecordsParametricLayers) {
  auto m = make_model(architecture::case_study_cnn, shape{1, 16, 16}, 4, 1);
  rng gen(3);
  tensor x = tensor::rand_uniform(shape{1, 1, 16, 16}, gen, 0.0f, 1.0f);
  std::size_t pred = 0;
  auto trace = m->trace_inference(x, pred);
  std::size_t convs = 0, linears = 0, relus = 0;
  for (const auto& e : trace.layers) {
    if (e.kind == layer_kind::conv2d) ++convs;
    if (e.kind == layer_kind::linear) ++linears;
    if (e.kind == layer_kind::relu) ++relus;
  }
  EXPECT_EQ(convs, 4u);    // paper's case-study CNN: 4 conv
  EXPECT_EQ(linears, 2u);  // + 2 fully connected
  EXPECT_EQ(relus, 5u);    // ReLU after all but the last layer
  EXPECT_GT(trace.total_active_neurons(), 0u);
}

TEST(Models, TraceGeometryConsistent) {
  auto m = make_model(architecture::case_study_cnn, shape{1, 16, 16}, 4, 1);
  rng gen(4);
  tensor x = tensor::rand_uniform(shape{1, 1, 16, 16}, gen, 0.0f, 1.0f);
  std::size_t pred = 0;
  auto trace = m->trace_inference(x, pred);
  for (const auto& e : trace.layers) {
    if (e.kind == layer_kind::conv2d || e.kind == layer_kind::linear) {
      EXPECT_EQ(e.in_channels * e.in_spatial, e.in_numel) << e.name;
      EXPECT_EQ(e.out_channels * e.out_spatial, e.out_numel) << e.name;
      EXPECT_GT(e.weight_bytes, 0u) << e.name;
      for (std::uint32_t i : e.active_inputs) EXPECT_LT(i, e.in_numel);
    }
  }
}

TEST(Training, LearnsSeparableTask) {
  data::synthetic_spec spec;
  spec.channels = 1;
  spec.height = 16;
  spec.width = 16;
  spec.classes = 3;
  spec.seed = 21;
  spec.confusable_pairs = false;
  spec.hard_fraction = 0.0;
  auto train = data::make_synthetic(spec, 40);
  spec.sample_seed = 1;
  auto test = data::make_synthetic(spec, 15);

  auto m = make_model(architecture::case_study_cnn, shape{1, 16, 16}, 3, 2);
  train_config cfg;
  cfg.epochs = 4;
  cfg.batch_size = 16;
  auto result = train_classifier(*m, train.images, train.labels, cfg);
  ASSERT_EQ(result.epoch_loss.size(), 4u);
  EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front());
  EXPECT_GT(m->accuracy(test.images, test.labels), 0.9);
}

TEST(Training, GatherBatchSelectsRows) {
  tensor images(shape{3, 1, 2, 2});
  for (std::size_t i = 0; i < 12; ++i) images[i] = static_cast<float>(i);
  tensor batch = gather_batch(images, {2, 0});
  EXPECT_EQ(batch.dims(), shape({2, 1, 2, 2}));
  EXPECT_EQ(batch[0], 8.0f);
  EXPECT_EQ(batch[4], 0.0f);
}

TEST(Serialize, RoundTripPreservesPredictions) {
  auto m = make_model(architecture::resnet_small, shape{3, 32, 32}, 10, 3);
  rng gen(5);
  tensor x = tensor::rand_uniform(shape{4, 3, 32, 32}, gen, 0.0f, 1.0f);
  tensor before = m->forward(x);

  const std::string path =
      (std::filesystem::temp_directory_path() / "advh_state_test.bin").string();
  save_state(*m, path);

  // Fresh model with different seed: different predictions until loaded.
  auto m2 = make_model(architecture::resnet_small, shape{3, 32, 32}, 10, 99);
  load_state(*m2, path);
  tensor after = m2->forward(x);
  ASSERT_EQ(before.numel(), after.numel());
  for (std::size_t i = 0; i < before.numel(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
  std::remove(path.c_str());
}

TEST(Serialize, ArchitectureMismatchDetected) {
  auto m = make_model(architecture::case_study_cnn, shape{1, 16, 16}, 4, 3);
  const std::string path =
      (std::filesystem::temp_directory_path() / "advh_state_arch.bin").string();
  save_state(*m, path);
  auto other = make_model(architecture::resnet_small, shape{3, 32, 32}, 10, 3);
  EXPECT_THROW(load_state(*other, path), invariant_error);
  std::remove(path.c_str());
}

TEST(Serialize, IsStateFileDetectsFormat) {
  auto m = make_model(architecture::case_study_cnn, shape{1, 16, 16}, 4, 3);
  const std::string path =
      (std::filesystem::temp_directory_path() / "advh_state_magic.bin").string();
  save_state(*m, path);
  EXPECT_TRUE(is_state_file(path));
  EXPECT_FALSE(is_state_file("/nonexistent/nope.bin"));
  std::remove(path.c_str());
}

TEST(Serialize, OverwriteRoundTripsAndLeavesNoStagingFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "advh_state_overwrite.bin")
          .string();
  auto old_model = make_model(architecture::case_study_cnn, shape{1, 16, 16},
                              4, 3);
  save_state(*old_model, path);
  const std::string old_bytes = read_file_bytes(path);
  // A reader that opened the old file keeps seeing all of it: the new
  // state lands in a fresh file renamed over the path, never in place.
  std::ifstream reader(path, std::ios::binary);
  auto new_model = make_model(architecture::case_study_cnn, shape{1, 16, 16},
                              4, 7);
  save_state(*new_model, path);
  EXPECT_FALSE(std::filesystem::exists(path + kAtomicTmpSuffix));
  const std::string seen((std::istreambuf_iterator<char>(reader)),
                         std::istreambuf_iterator<char>());
  EXPECT_TRUE(seen == old_bytes) << "the open reader saw a torn file";
  EXPECT_TRUE(read_file_bytes(path) != old_bytes);

  rng gen(5);
  tensor x = tensor::rand_uniform(shape{2, 1, 16, 16}, gen, 0.0f, 1.0f);
  const tensor expected = new_model->forward(x);
  auto loaded = make_model(architecture::case_study_cnn, shape{1, 16, 16},
                           4, 99);
  load_state(*loaded, path);
  const tensor after = loaded->forward(x);
  ASSERT_EQ(expected.numel(), after.numel());
  for (std::size_t i = 0; i < expected.numel(); ++i) {
    EXPECT_EQ(expected[i], after[i]);
  }
  std::remove(path.c_str());
}

TEST(Serialize, BatchNormBuffersIncluded) {
  auto m = make_model(architecture::resnet_small, shape{3, 32, 32}, 10, 3);
  std::vector<tensor*> state;
  m->net().collect_state(state);
  std::vector<parameter*> params = m->params();
  // Running mean/var are state but not parameters.
  EXPECT_GT(state.size(), params.size());
}

}  // namespace
}  // namespace advh::nn
