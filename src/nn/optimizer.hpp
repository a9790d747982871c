// SGD over a parameter set: the one optimizer the trainer uses.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace advh::nn {

/// SGD with classical momentum and decoupled weight decay.
class sgd {
 public:
  sgd(std::vector<parameter*> params, float lr, float momentum = 0.9f,
      float weight_decay = 0.0f);

  sgd(const sgd&) = delete;
  sgd& operator=(const sgd&) = delete;

  /// Applies one update using the accumulated gradients.
  void step();
  void zero_grad() noexcept {
    for (parameter* p : params_) p->zero_grad();
  }
  void set_lr(float lr) noexcept { lr_ = lr; }

 private:
  std::vector<parameter*> params_;
  float lr_;
  float momentum_;
  float weight_decay_;
  std::vector<tensor> velocity_;
};

}  // namespace advh::nn
