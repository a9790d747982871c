// Reference univariate GMM fit: the EM, BIC scan, log-density and BIC that
// the hoisted-log, compile-time-order, restart-skipping fit in src/gmm
// replaced, with their code copied verbatim (as free functions over a
// component list instead of gmm1d members). Test-only:
// tests/test_gmm_oracle.cpp asserts that gmm1d reproduces every fitted
// component, every BIC and every log-density of this copy bit for bit.
// k-means and the variance helper are shared with the library (they did
// not change).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "gmm/gmm.hpp"
#include "gmm/kmeans.hpp"

namespace advh::gmm::reference {

using components = std::vector<component1d>;

constexpr double kLog2Pi = 1.8378770664093453;

inline double log_normal_pdf(double x, double mean, double variance) {
  const double d = x - mean;
  return -0.5 * (kLog2Pi + std::log(variance) + d * d / variance);
}

/// log(sum(exp(v))) without overflow.
inline double log_sum_exp(std::span<const double> v) {
  double mx = -std::numeric_limits<double>::infinity();
  for (double x : v) mx = std::max(mx, x);
  if (!std::isfinite(mx)) return mx;
  double acc = 0.0;
  for (double x : v) acc += std::exp(x - mx);
  return mx + std::log(acc);
}

inline components fit(std::span<const double> data, std::size_t k,
                      const em_config& cfg = {}) {
  ADVH_CHECK_MSG(data.size() >= k && k > 0, "need at least k observations");

  const double data_var = std::max(stats::variance(data), 1e-12);
  const double floor = std::max(cfg.variance_floor_ratio * data_var, 1e-12);
  const auto n = data.size();

  std::vector<component1d> best;
  double best_ll = -std::numeric_limits<double>::infinity();

  rng seed_gen(cfg.seed);
  for (std::size_t restart = 0; restart < std::max<std::size_t>(cfg.restarts, 1);
       ++restart) {
    rng gen = seed_gen.split();

    // Initialise from k-means clusters.
    auto km = kmeans(data, 1, k, gen);
    std::vector<component1d> comps(k);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) ++counts[km.assignment[i]];
    for (std::size_t c = 0; c < k; ++c) {
      comps[c].mean = km.centroids[c][0];
      comps[c].weight =
          std::max(static_cast<double>(counts[c]) / static_cast<double>(n),
                   1e-6);
      double var = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (km.assignment[i] == c) {
          const double d = data[i] - comps[c].mean;
          var += d * d;
        }
      }
      comps[c].variance =
          std::max(counts[c] ? var / static_cast<double>(counts[c]) : data_var,
                   floor);
    }
    {
      double wsum = 0.0;
      for (auto& c : comps) wsum += c.weight;
      for (auto& c : comps) c.weight /= wsum;
    }

    // EM iterations (Algorithm 1).
    std::vector<double> resp(n * k);
    std::vector<double> logp(k);
    double prev_ll = -std::numeric_limits<double>::infinity();
    for (std::size_t iter = 0; iter < cfg.max_iter; ++iter) {
      // E-step: responsibilities gamma_ik.
      double ll = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < k; ++c) {
          logp[c] = std::log(comps[c].weight) +
                    log_normal_pdf(data[i], comps[c].mean, comps[c].variance);
        }
        const double lse = log_sum_exp(logp);
        ll += lse;
        for (std::size_t c = 0; c < k; ++c) {
          resp[i * k + c] = std::exp(logp[c] - lse);
        }
      }

      // M-step.
      for (std::size_t c = 0; c < k; ++c) {
        double nk = 0.0, mu = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          nk += resp[i * k + c];
          mu += resp[i * k + c] * data[i];
        }
        nk = std::max(nk, 1e-10);
        mu /= nk;
        double var = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d = data[i] - mu;
          var += resp[i * k + c] * d * d;
        }
        comps[c].weight = nk / static_cast<double>(n);
        comps[c].mean = mu;
        comps[c].variance = std::max(var / nk, floor);
      }

      if (std::isfinite(prev_ll) &&
          std::fabs(ll - prev_ll) <=
              cfg.tolerance * (std::fabs(prev_ll) + 1.0)) {
        prev_ll = ll;
        break;
      }
      prev_ll = ll;
    }

    if (prev_ll > best_ll) {
      best_ll = prev_ll;
      best = comps;
    }
  }

  return best;
}

inline double log_pdf(const components& m, double x) {
  ADVH_CHECK_MSG(!m.empty(), "model not fitted");
  std::vector<double> logp(m.size());
  for (std::size_t c = 0; c < m.size(); ++c) {
    logp[c] = std::log(std::max(m[c].weight, 1e-300)) +
              log_normal_pdf(x, m[c].mean, m[c].variance);
  }
  return log_sum_exp(logp);
}

inline double total_log_likelihood(const components& m,
                                   std::span<const double> data) {
  double acc = 0.0;
  for (double x : data) acc += log_pdf(m, x);
  return acc;
}

inline double bic(const components& m, std::span<const double> data) {
  // Free parameters in 1-D: k means + k variances + (k-1) weights.
  const double params = static_cast<double>(3 * m.size() - 1);
  return params * std::log(static_cast<double>(data.size())) -
         2.0 * total_log_likelihood(m, data);
}

inline components fit_best_bic(std::span<const double> data, std::size_t k_max,
                               const em_config& cfg = {}) {
  ADVH_CHECK(k_max > 0);
  components best;
  double best_bic = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= k_max; ++k) {
    if (data.size() < 2 * k) break;  // too few points to support k modes
    components candidate = fit(data, k, cfg);
    const double b = bic(candidate, data);
    if (b < best_bic) {
      best_bic = b;
      best = std::move(candidate);
    }
  }
  ADVH_CHECK_MSG(!best.empty(), "BIC scan produced no model");
  return best;
}

}  // namespace advh::gmm::reference
