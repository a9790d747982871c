// Minibatch training loop used to produce the scenario models of Table 1.
#pragma once

#include <functional>
#include <vector>

#include "nn/loss.hpp"
#include "nn/model.hpp"

namespace advh::nn {

struct train_config {
  std::size_t epochs = 5;
  std::size_t batch_size = 32;
  std::uint64_t shuffle_seed = 1;
  /// Called after each epoch with (epoch, mean train loss, train accuracy).
  std::function<void(std::size_t, double, double)> on_epoch;
};

struct train_result {
  std::vector<double> epoch_loss;
  std::vector<double> epoch_accuracy;
};

/// Trains `m` on (images, labels) where images is (N, C, H, W).
train_result train_classifier(model& m, const tensor& images,
                              const std::vector<std::size_t>& labels,
                              const train_config& cfg);

/// Copies rows `indices` of a (N, C, H, W) tensor into a new batch tensor.
tensor gather_batch(const tensor& images, const std::vector<std::size_t>& indices);

/// Extracts one example as a batch-of-one tensor.
tensor single_example(const tensor& images, std::size_t index);

}  // namespace advh::nn
