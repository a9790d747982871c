// Adversarial attack interface.
//
// The paper's threat model gives the adversary white-box access, so all
// attacks here consume model gradients directly. Inputs and outputs are
// single examples (batch of one) in [0, 1].
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "nn/model.hpp"

namespace advh::attack {

enum class attack_goal {
  untargeted,  ///< push the prediction away from the true class
  targeted,    ///< pull the prediction towards `target_class`
};

struct attack_config {
  attack_goal goal = attack_goal::untargeted;
  /// Required for targeted attacks.
  std::size_t target_class = 0;
  /// L-infinity budget (FGSM/PGD); ignored by DeepFool.
  float epsilon = 0.1f;
  /// PGD: number of gradient steps, each of size 2.5 * epsilon / steps.
  std::size_t steps = 10;
  /// DeepFool: maximum iterations.
  std::size_t max_iter = 30;
};

struct attack_result {
  tensor adversarial;      ///< perturbed example, clamped to [0, 1]
  std::size_t original_prediction = 0;
  std::size_t adversarial_prediction = 0;
  bool success = false;    ///< goal achieved (see attack::is_success)
  double l2_distortion = 0.0;
  double linf_distortion = 0.0;
};

class attack {
 public:
  virtual ~attack() = default;
  attack(const attack&) = delete;
  attack& operator=(const attack&) = delete;

  /// Perturbs one example (batch-of-one tensor in [0, 1]).
  /// `true_label` is the example's ground-truth class.
  virtual attack_result run(nn::model& m, const tensor& x,
                            std::size_t true_label) = 0;

  virtual std::string name() const = 0;
  const attack_config& config() const noexcept { return cfg_; }

 protected:
  explicit attack(attack_config cfg) : cfg_(std::move(cfg)) {}

  /// Success test: targeted => predicted == target; untargeted =>
  /// predicted != true label.
  bool is_success(std::size_t predicted, std::size_t true_label) const;

  /// Fills in distortions and prediction bookkeeping.
  attack_result finalize(nn::model& m, const tensor& original,
                         tensor adversarial, std::size_t original_pred,
                         std::size_t true_label) const;

  attack_config cfg_;
};

using attack_ptr = std::unique_ptr<attack>;

enum class attack_kind { fgsm, pgd, deepfool };

std::string to_string(attack_kind k);

/// Factory over the three attack families evaluated in the paper.
attack_ptr make_attack(attack_kind kind, const attack_config& cfg);

}  // namespace advh::attack
