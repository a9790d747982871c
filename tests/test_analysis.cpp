// Tests for the model-graph static verifier (src/analysis): every
// diagnostic class gets one deliberately-broken model that must trigger it
// with the right layer attribution, and every factory model must verify
// clean at its scenario-matched input shape.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "analysis/verifier.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/models/models.hpp"
#include "nn/pooling.hpp"
#include "nn/serialize.hpp"
#include "nn/simple_layers.hpp"

using namespace advh;
using analysis::diag_code;
using analysis::severity;

namespace {

/// Finds the first diagnostic with `code`, or nullptr.
const analysis::diagnostic* find_diag(const analysis::verification_report& r,
                                      diag_code code) {
  for (const auto& d : r.diags) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

std::unique_ptr<nn::model> wrap(std::unique_ptr<nn::sequential> net,
                                shape input, std::size_t classes) {
  return std::make_unique<nn::model>("broken", std::move(net), input, classes);
}

/// A small, clean 3x8x8 -> 4-logit CNN used as the base for breakage.
std::unique_ptr<nn::sequential> small_net(rng& gen, std::size_t classes = 4) {
  auto net = std::make_unique<nn::sequential>("net");
  nn::conv2d_config c;
  c.in_channels = 3;
  c.out_channels = 4;
  net->emplace<nn::conv2d>("conv1", c, gen);
  net->emplace<nn::relu>("relu1");
  net->emplace<nn::maxpool2d>("pool1", 2);
  net->emplace<nn::flatten>("flat");
  net->emplace<nn::linear>("fc", std::size_t{4 * 4 * 4}, classes, gen);
  return net;
}

/// Layer that computes but declares no trace contribution: the exact
/// defect the trace-coverage pass exists to catch.
class silent_relu final : public nn::layer {
 public:
  explicit silent_relu(std::string name) : name_(std::move(name)) {}
  tensor forward(const tensor& x, nn::forward_ctx&) override { return x; }
  tensor backward(const tensor& g) override { return g; }
  nn::layer_kind kind() const override { return nn::layer_kind::relu; }
  std::string name() const override { return name_; }
  shape infer_output_shape(const shape& in) const override { return in; }
  // No trace_info() override: inherits the empty default contract.

 private:
  std::string name_;
};

/// Layer registering the same parameter twice — the gradient would be
/// applied twice per optimizer step.
class double_registering final : public nn::layer {
 public:
  explicit double_registering(std::string name)
      : name_(std::move(name)), w_(name_ + ".weight", tensor(shape{4, 4})) {
    w_.value.fill(0.5f);
  }
  tensor forward(const tensor& x, nn::forward_ctx&) override { return x; }
  tensor backward(const tensor& g) override { return g; }
  void collect_params(std::vector<nn::parameter*>& out) override {
    out.push_back(&w_);
    out.push_back(&w_);  // the bug under test
  }
  nn::layer_kind kind() const override { return nn::layer_kind::linear; }
  std::string name() const override { return name_; }
  shape infer_output_shape(const shape& in) const override { return in; }
  nn::trace_contract trace_info() const override { return {true, true, false}; }

 private:
  std::string name_;
  nn::parameter w_;
};

/// Layer with no static shape inference (keeps the base-class default).
class opaque_layer final : public nn::layer {
 public:
  explicit opaque_layer(std::string name) : name_(std::move(name)) {}
  tensor forward(const tensor& x, nn::forward_ctx&) override { return x; }
  tensor backward(const tensor& g) override { return g; }
  nn::layer_kind kind() const override { return nn::layer_kind::input; }
  std::string name() const override { return name_; }
  nn::trace_contract trace_info() const override { return {true, false, false}; }

 private:
  std::string name_;
};

}  // namespace

TEST(analysis, factory_models_verify_clean) {
  struct {
    nn::architecture arch;
    shape input;
    std::size_t classes;
  } zoo[] = {
      {nn::architecture::case_study_cnn, shape{3, 32, 32}, 10},
      {nn::architecture::efficientnet_lite, shape{1, 28, 28}, 10},
      {nn::architecture::resnet_small, shape{3, 32, 32}, 10},
      {nn::architecture::densenet_small, shape{3, 32, 32}, 43},
  };
  for (const auto& z : zoo) {
    auto m = nn::make_model(z.arch, z.input, z.classes, 7);
    const auto report = analysis::verify_model(*m);
    EXPECT_FALSE(report.has_errors())
        << nn::to_string(z.arch) << ":\n" << report.to_text();
    EXPECT_EQ(report.warning_count(), 0u)
        << nn::to_string(z.arch) << ":\n" << report.to_text();
    EXPECT_GT(report.layers_checked, 0u);
    EXPECT_NO_THROW(analysis::ensure_verified(*m, nn::to_string(z.arch)));
  }
}

TEST(analysis, shape_mismatch_pins_offending_layer) {
  rng gen(1);
  auto net = std::make_unique<nn::sequential>("net");
  nn::conv2d_config c;
  c.in_channels = 8;  // input has 3 channels
  c.out_channels = 4;
  net->emplace<nn::conv2d>("conv1", c, gen);
  net->emplace<nn::relu>("relu1");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);

  const auto report = analysis::verify_model(*m);
  ASSERT_TRUE(report.has_errors());
  const auto* d = find_diag(report, diag_code::shape_mismatch);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->layer_index, 0u);
  EXPECT_EQ(d->layer_path, "conv1");
  EXPECT_NE(d->message.find("channel"), std::string::npos) << d->message;
}

TEST(analysis, linear_fed_rank4_suggests_flatten) {
  rng gen(1);
  auto net = std::make_unique<nn::sequential>("net");
  nn::conv2d_config c;
  c.in_channels = 3;
  c.out_channels = 4;
  net->emplace<nn::conv2d>("conv1", c, gen);
  net->emplace<nn::linear>("fc", std::size_t{256}, std::size_t{4}, gen);

  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = analysis::verify_model(*m);
  const auto* d = find_diag(report, diag_code::shape_mismatch);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->layer_index, 1u);
  EXPECT_EQ(d->layer_path, "fc");
  EXPECT_NE(d->message.find("flatten"), std::string::npos) << d->message;
}

TEST(analysis, wrong_head_width_is_output_head_mismatch) {
  rng gen(1);
  auto m = wrap(small_net(gen, /*classes=*/7), shape{3, 8, 8},
                /*model says*/ 4);
  const auto report = analysis::verify_model(*m);
  const auto* d = find_diag(report, diag_code::output_head_mismatch);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->layer_index, 4u);  // the fc layer, last in small_net
  EXPECT_EQ(d->layer_path, "fc");
}

TEST(analysis, no_shape_inference_layer_is_reported) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<opaque_layer>("mystery");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = analysis::verify_model(*m);
  const auto* d = find_diag(report, diag_code::no_shape_inference);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->layer_index, 5u);
  EXPECT_EQ(d->layer_path, "mystery");
}

TEST(analysis, zeroed_weight_is_uninitialized_param) {
  rng gen(1);
  auto net = small_net(gen);
  static_cast<nn::linear&>(net->at(4)).weight().value.fill(0.0f);
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = analysis::verify_model(*m);
  const auto* d = find_diag(report, diag_code::uninitialized_param);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->layer_index, 4u);
  EXPECT_EQ(d->layer_path, "fc");
}

TEST(analysis, nan_weight_is_non_finite_param) {
  rng gen(1);
  auto net = small_net(gen);
  auto& conv = static_cast<nn::conv2d&>(net->at(0));
  conv.weight().value.data()[3] = std::numeric_limits<float>::quiet_NaN();
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = analysis::verify_model(*m);
  const auto* d = find_diag(report, diag_code::non_finite_param);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->layer_index, 0u);
  EXPECT_EQ(d->layer_path, "conv1");
  EXPECT_NE(d->message.find("1/"), std::string::npos) << d->message;
}

TEST(analysis, silent_layer_is_missing_trace_contract) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<silent_relu>("stealth");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = analysis::verify_model(*m);
  const auto* d = find_diag(report, diag_code::missing_trace_contract);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->layer_index, 5u);
  EXPECT_EQ(d->layer_path, "stealth");
}

TEST(analysis, duplicate_registration_is_reported) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<double_registering>("twice");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = analysis::verify_model(*m);
  const auto* d = find_diag(report, diag_code::duplicate_param);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_NE(d->layer_path.find("twice"), std::string::npos);
  EXPECT_NE(d->message.find("2 times"), std::string::npos) << d->message;
}

TEST(analysis, empty_nested_sequential_is_dead_layer) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<nn::sequential>("ghost_block");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = analysis::verify_model(*m);
  const auto* d = find_diag(report, diag_code::dead_layer);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->sev, severity::error);
  EXPECT_EQ(d->layer_index, 5u);
  EXPECT_EQ(d->layer_path, "ghost_block");
}

TEST(analysis, relu_after_logits_is_trailing_activation) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<nn::relu>("oops");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = analysis::verify_model(*m);
  const auto* d = find_diag(report, diag_code::trailing_activation);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->sev, severity::error);
  EXPECT_EQ(d->layer_index, 5u);
  EXPECT_EQ(d->layer_path, "oops");
}

TEST(analysis, double_relu_is_dead_layer_warning) {
  rng gen(1);
  auto net = std::make_unique<nn::sequential>("net");
  nn::conv2d_config c;
  c.in_channels = 3;
  c.out_channels = 4;
  net->emplace<nn::conv2d>("conv1", c, gen);
  net->emplace<nn::relu>("relu1");
  net->emplace<nn::relu>("relu1b");
  net->emplace<nn::flatten>("flat");
  net->emplace<nn::linear>("fc", std::size_t{4 * 8 * 8}, std::size_t{4}, gen);
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);

  const auto report = analysis::verify_model(*m);
  EXPECT_FALSE(report.has_errors()) << report.to_text();
  const auto* d = find_diag(report, diag_code::dead_layer);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->sev, severity::warning);
  EXPECT_EQ(d->layer_index, 2u);
  EXPECT_EQ(d->layer_path, "relu1b");
}

TEST(analysis, batchnorm_hyperparameter_contracts) {
  rng gen(1);
  auto net = std::make_unique<nn::sequential>("net");
  nn::conv2d_config c;
  c.in_channels = 3;
  c.out_channels = 4;
  net->emplace<nn::conv2d>("conv1", c, gen);
  net->emplace<nn::batchnorm2d>("bn_bad", std::size_t{4}, /*momentum=*/1.5f,
                                /*epsilon=*/0.0f);
  net->emplace<nn::relu>("relu1");
  net->emplace<nn::flatten>("flat");
  net->emplace<nn::linear>("fc", std::size_t{4 * 8 * 8}, std::size_t{4}, gen);
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);

  const auto report = analysis::verify_model(*m);
  const auto* eps = find_diag(report, diag_code::batchnorm_epsilon);
  ASSERT_NE(eps, nullptr) << report.to_text();
  EXPECT_EQ(eps->sev, severity::error);
  EXPECT_EQ(eps->layer_index, 1u);
  EXPECT_EQ(eps->layer_path, "bn_bad");
  const auto* mom = find_diag(report, diag_code::batchnorm_momentum);
  ASSERT_NE(mom, nullptr) << report.to_text();
  EXPECT_EQ(mom->layer_index, 1u);
}

TEST(analysis, ensure_verified_throws_with_report) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<nn::relu>("oops");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  try {
    analysis::ensure_verified(*m, "unit-test");
    FAIL() << "expected verification_error";
  } catch (const analysis::verification_error& e) {
    EXPECT_TRUE(e.report().has_errors());
    EXPECT_NE(find_diag(e.report(), diag_code::trailing_activation), nullptr);
    EXPECT_NE(std::string(e.what()).find("unit-test"), std::string::npos);
  }
}

TEST(analysis, load_state_refuses_non_finite_weights) {
  const std::string path = "test_analysis_nan_state.advh";
  {
    auto m = nn::make_model(nn::architecture::case_study_cnn, shape{3, 32, 32},
                            10, 3);
    m->params()[0]->value.data()[0] = std::numeric_limits<float>::infinity();
    nn::save_state(*m, path);
  }
  auto fresh = nn::make_model(nn::architecture::case_study_cnn,
                              shape{3, 32, 32}, 10, 4);
  EXPECT_THROW(nn::load_state(*fresh, path),
               analysis::verification_error);
  // The escape hatch still loads the bytes.
  EXPECT_NO_THROW(nn::load_state(*fresh, path, /*verify=*/false));
  std::remove(path.c_str());
}

TEST(analysis, report_renders_text_and_json) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<nn::relu>("oops");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = analysis::verify_model(*m);

  const std::string text = report.to_text();
  EXPECT_NE(text.find("trailing-activation"), std::string::npos) << text;
  EXPECT_NE(text.find("oops"), std::string::npos) << text;

  const std::string json = report.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"code\":\"trailing-activation\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos) << json;
}
