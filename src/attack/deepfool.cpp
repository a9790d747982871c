#include "attack/deepfool.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace advh::attack {

namespace {

/// Overshoot factor applied to the accumulated minimal perturbation.
constexpr float kOvershoot = 0.02f;

/// Gradient of logit `cls` w.r.t. the input of the *cached* forward pass.
tensor logit_gradient(nn::model& m, const tensor& logits, std::size_t cls) {
  tensor one_hot(logits.dims());
  one_hot[cls] = 1.0f;
  return m.backward(one_hot);
}

}  // namespace

attack_result deepfool::run(nn::model& m, const tensor& x,
                            std::size_t true_label) {
  ADVH_CHECK(x.dims().rank() == 4 && x.dims()[0] == 1);
  const std::size_t classes = m.num_classes();

  std::size_t original_pred = m.predict_one(x);
  tensor adv = x;
  tensor total_r(x.dims());

  for (std::size_t iter = 0; iter < cfg_.max_iter; ++iter) {
    nn::forward_ctx ctx;
    m.zero_grad();
    tensor logits = m.forward(adv, ctx);
    const std::size_t current = ops::argmax(logits);

    const bool done = cfg_.goal == attack_goal::targeted
                          ? current == cfg_.target_class
                          : current != original_pred;
    if (done) break;

    tensor grad_current = logit_gradient(m, logits, current);

    // Candidate decision boundaries to consider this iteration.
    std::vector<std::size_t> candidates;
    if (cfg_.goal == attack_goal::targeted) {
      candidates.push_back(cfg_.target_class);
    } else {
      std::vector<std::size_t> order(classes);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return logits[a] > logits[b];
      });
      for (std::size_t c : order) {
        if (c == current) continue;
        candidates.push_back(c);
        if (candidates.size() >= kMaxCandidates) break;
      }
    }

    double best_ratio = 0.0;
    tensor best_w;
    double best_f = 0.0;
    bool found = false;
    for (std::size_t cls : candidates) {
      tensor w = ops::sub(logit_gradient(m, logits, cls), grad_current);
      const double f =
          static_cast<double>(logits[cls]) - static_cast<double>(logits[current]);
      const double wnorm = ops::l2_norm(w);
      if (wnorm < 1e-12) continue;
      const double ratio = std::fabs(f) / wnorm;
      if (!found || ratio < best_ratio) {
        found = true;
        best_ratio = ratio;
        best_w = std::move(w);
        best_f = f;
      }
    }
    if (!found) break;  // degenerate gradients; cannot make progress

    // Minimal step to the linearised boundary, with a small overshoot so
    // the iterate actually crosses it.
    const double wnorm2 = ops::dot(best_w, best_w);
    const double scale = (std::fabs(best_f) + 1e-6) / std::max(wnorm2, 1e-12);
    tensor r = ops::scale(best_w, static_cast<float>(scale));
    ops::axpy(total_r, r, 1.0f);

    adv = ops::add(x, ops::scale(total_r, 1.0f + kOvershoot));
    ops::clamp_inplace(adv, 0.0f, 1.0f);
  }

  return finalize(m, x, std::move(adv), original_pred, true_label);
}

}  // namespace advh::attack
