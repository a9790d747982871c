// Gaussian Mixture Models fitted by Expectation-Maximisation
// (Algorithm 1 of the paper), with BIC model-order selection.
//
// AdvHunter fits one *univariate* GMM per (output category, HPC event);
// gmm1d is that model. gmm_diag generalises to diagonal-covariance
// multivariate data and backs the joint-events extension detector.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"

namespace advh::gmm {

struct em_config {
  std::size_t max_iter = 200;
  double tolerance = 1e-7;     ///< relative log-likelihood change
  /// EM restarts, best likelihood kept. A restart whose k-means start is
  /// bitwise equal to an earlier one's runs once (EM from it is identical).
  std::size_t restarts = 3;
  double variance_floor_ratio = 1e-4;  ///< floor as fraction of data variance
  std::uint64_t seed = 7;
};

/// One univariate mixture component.
struct component1d {
  double weight = 0.0;
  double mean = 0.0;
  double variance = 1.0;
};

class gmm1d {
 public:
  gmm1d() = default;
  explicit gmm1d(std::vector<component1d> components);

  /// Fits a k-component mixture with EM (k-means++ initialised).
  static gmm1d fit(std::span<const double> data, std::size_t k,
                   const em_config& cfg = {});

  /// Fits k = 1..k_max and returns the model with the lowest BIC.
  static gmm1d fit_best_bic(std::span<const double> data, std::size_t k_max,
                            const em_config& cfg = {});

  std::size_t order() const noexcept { return components_.size(); }
  const std::vector<component1d>& components() const noexcept {
    return components_;
  }

  /// log p(x) under the mixture (log-sum-exp over components).
  double log_pdf(double x) const;

  /// Negative log-likelihood of one observation (the paper's score).
  double nll(double x) const { return -log_pdf(x); }

  /// Sum of log p over a dataset.
  double total_log_likelihood(std::span<const double> data) const;

  /// Bayesian Information Criterion: k*3-1 free parameters in 1-D.
  double bic(std::span<const double> data) const;

  /// Draws one sample.
  double sample(rng& gen) const;

 private:
  /// Per-component logs cached at construction, so that log_pdf takes no
  /// log and allocates nothing per call.
  struct log_terms {
    double log_weight = 0.0;  ///< log(max(weight, 1e-300))
    double log_norm = 0.0;    ///< log(2 pi) + log(variance)
  };

  std::vector<component1d> components_;
  std::vector<log_terms> terms_;
};

/// Diagonal-covariance multivariate mixture (extension detector).
struct component_diag {
  double weight = 0.0;
  std::vector<double> mean;
  std::vector<double> variance;
};

class gmm_diag {
 public:
  gmm_diag() = default;

  static gmm_diag fit(std::span<const double> data, std::size_t dim,
                      std::size_t k, const em_config& cfg = {});
  static gmm_diag fit_best_bic(std::span<const double> data, std::size_t dim,
                               std::size_t k_max, const em_config& cfg = {});

  std::size_t order() const noexcept { return components_.size(); }
  std::size_t dim() const noexcept { return dim_; }
  const std::vector<component_diag>& components() const noexcept {
    return components_;
  }

  double log_pdf(std::span<const double> x) const;
  double nll(std::span<const double> x) const { return -log_pdf(x); }
  double total_log_likelihood(std::span<const double> data) const;
  double bic(std::span<const double> data) const;

 private:
  std::size_t dim_ = 0;
  std::vector<component_diag> components_;
};

}  // namespace advh::gmm
