// Extension detector: one *joint* diagonal-covariance GMM per class over
// all N monitored events, instead of the paper's N independent univariate
// models.
//
// The univariate design cannot see cross-event correlations (e.g. an input
// whose cache-misses and LLC-load-misses are both individually plausible
// but jointly inconsistent). The joint model captures them at the price of
// needing more template data per class. bench_ext_joint compares the two
// on the Table-2 setting.
#pragma once

#include <optional>

#include "core/detector.hpp"
#include "gmm/gmm.hpp"

namespace advh::core {

struct joint_event_model {
  gmm::gmm_diag model;
  double threshold = 0.0;
  double nll_mean = 0.0;
  double nll_stddev = 0.0;
  std::size_t template_size = 0;
};

struct joint_verdict {
  std::size_t predicted = 0;
  double nll = 0.0;
  bool adversarial = false;
};

class joint_detector {
 public:
  /// Fits one diagonal-covariance GMM per class over the full event rows
  /// of the template, with BIC order selection and a 3-sigma threshold
  /// over the template NLLs (the same rule as the per-event detector).
  static joint_detector fit(const benign_template& tpl,
                            const detector_config& cfg);

  joint_verdict score(std::size_t predicted_class,
                      std::span<const double> mean_counts) const;

  const detector_config& config() const noexcept { return cfg_; }
  std::size_t num_classes() const noexcept { return models_.size(); }
  const std::optional<joint_event_model>& model_for(std::size_t cls) const;

 private:
  joint_detector() = default;

  detector_config cfg_;
  std::vector<std::optional<joint_event_model>> models_;
};

}  // namespace advh::core
