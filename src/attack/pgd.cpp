#include "attack/pgd.hpp"

#include <cmath>

#include "attack/fgsm.hpp"
#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace advh::attack {

attack_result pgd::run(nn::model& m, const tensor& x, std::size_t true_label) {
  ADVH_CHECK(cfg_.epsilon >= 0.0f && cfg_.steps > 0);
  const float alpha = 2.5f * cfg_.epsilon / static_cast<float>(cfg_.steps);
  const bool targeted = cfg_.goal == attack_goal::targeted;
  const std::size_t loss_label = targeted ? cfg_.target_class : true_label;
  const float direction = targeted ? -1.0f : 1.0f;

  std::size_t original_pred = m.predict_one(x);
  tensor adv = x;
  tensor momentum(x.dims());
  constexpr float kDecay = 1.0f;  // MI-FGSM decay factor mu

  for (std::size_t step = 0; step < cfg_.steps; ++step) {
    std::size_t pred_now = 0;
    tensor g = input_gradient(m, adv, loss_label, pred_now);
    // Momentum accumulation with L1 normalisation (Dong et al. 2018).
    const double l1 = [&] {
      double acc = 0.0;
      for (float v : g.data()) acc += std::fabs(v);
      return std::max(acc, 1e-12);
    }();
    auto mo = momentum.data();
    auto gg = g.data();
    for (std::size_t i = 0; i < mo.size(); ++i) {
      mo[i] = kDecay * mo[i] + static_cast<float>(gg[i] / l1);
    }
    adv = ops::add(adv, ops::scale(ops::sign(momentum), direction * alpha));
    adv = ops::project_linf(adv, x, cfg_.epsilon);
    ops::clamp_inplace(adv, 0.0f, 1.0f);
  }
  return finalize(m, x, std::move(adv), original_pred, true_label);
}

}  // namespace advh::attack
