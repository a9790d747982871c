#include "nn/optimizer.hpp"

namespace advh::nn {

sgd::sgd(std::vector<parameter*> params, float lr, float momentum,
         float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  velocity_.reserve(params_.size());
  for (parameter* p : params_) velocity_.emplace_back(p->value.dims());
}

void sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto w = params_[i]->value.data();
    auto g = params_[i]->grad.data();
    auto v = velocity_[i].data();
    for (std::size_t j = 0; j < w.size(); ++j) {
      const float grad = g[j] + weight_decay_ * w[j];
      v[j] = momentum_ * v[j] + grad;
      w[j] -= lr_ * v[j];
    }
  }
}

}  // namespace advh::nn
