#include "nn/trainer.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"

namespace advh::nn {

namespace {

// SGD schedule of every scenario model: the learning rate is multiplied
// by kLrDecay after each epoch.
constexpr float kLr = 0.05f;
constexpr float kMomentum = 0.9f;
constexpr float kWeightDecay = 1e-4f;
constexpr float kLrDecay = 0.7f;

}  // namespace

tensor gather_batch(const tensor& images,
                    const std::vector<std::size_t>& indices) {
  ADVH_CHECK(images.dims().rank() == 4);
  const std::size_t c = images.dims()[1], h = images.dims()[2],
                    w = images.dims()[3];
  const std::size_t stride = c * h * w;
  tensor out(shape{indices.size(), c, h, w});
  for (std::size_t i = 0; i < indices.size(); ++i) {
    ADVH_CHECK(indices[i] < images.dims()[0]);
    const float* src = images.data().data() + indices[i] * stride;
    float* dst = out.data().data() + i * stride;
    for (std::size_t j = 0; j < stride; ++j) dst[j] = src[j];
  }
  return out;
}

tensor single_example(const tensor& images, std::size_t index) {
  return gather_batch(images, {index});
}

train_result train_classifier(model& m, const tensor& images,
                              const std::vector<std::size_t>& labels,
                              const train_config& cfg) {
  ADVH_CHECK(images.dims().rank() == 4);
  ADVH_CHECK_MSG(images.dims()[0] == labels.size(),
                 "images and labels must align");
  ADVH_CHECK(cfg.batch_size > 0 && cfg.epochs > 0);

  const std::size_t n = labels.size();
  rng shuffler(cfg.shuffle_seed);
  sgd opt(m.params(), kLr, kMomentum, kWeightDecay);

  train_result result;
  float lr = kLr;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    opt.set_lr(lr);
    auto order = shuffler.permutation(n);
    double loss_sum = 0.0;
    std::size_t hits = 0;
    std::size_t batches = 0;

    for (std::size_t start = 0; start < n; start += cfg.batch_size) {
      const std::size_t end = std::min(n, start + cfg.batch_size);
      std::vector<std::size_t> batch_idx(order.begin() + start,
                                         order.begin() + end);
      tensor x = gather_batch(images, batch_idx);
      std::vector<std::size_t> y(batch_idx.size());
      for (std::size_t i = 0; i < batch_idx.size(); ++i) {
        y[i] = labels[batch_idx[i]];
      }

      forward_ctx ctx;
      ctx.training = true;
      opt.zero_grad();
      tensor logits = m.forward(x, ctx);
      auto loss = softmax_cross_entropy(logits, y);
      m.backward(loss.grad_logits);
      opt.step();

      loss_sum += loss.value;
      ++batches;
      const auto preds = ops::argmax_rows(logits);
      for (std::size_t i = 0; i < preds.size(); ++i) {
        if (preds[i] == y[i]) ++hits;
      }
    }

    const double mean_loss = loss_sum / static_cast<double>(batches);
    const double acc = static_cast<double>(hits) / static_cast<double>(n);
    result.epoch_loss.push_back(mean_loss);
    result.epoch_accuracy.push_back(acc);
    if (cfg.on_epoch) cfg.on_epoch(epoch, mean_loss, acc);
    lr *= kLrDecay;
  }
  return result;
}

}  // namespace advh::nn
