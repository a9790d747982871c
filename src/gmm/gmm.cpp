#include "gmm/gmm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "gmm/kmeans.hpp"

namespace advh::gmm {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

double log_normal_pdf(double x, double mean, double variance) {
  const double d = x - mean;
  return -0.5 * (kLog2Pi + std::log(variance) + d * d / variance);
}

/// log(sum(exp(v))) without overflow.
double log_sum_exp(std::span<const double> v) {
  double mx = -std::numeric_limits<double>::infinity();
  for (double x : v) mx = std::max(mx, x);
  if (!std::isfinite(mx)) return mx;
  double acc = 0.0;
  for (double x : v) acc += std::exp(x - mx);
  return mx + std::log(acc);
}

/// log(w) + log N(x; mean, variance) from the hoisted lw = log(w) and
/// la = kLog2Pi + log(variance). It is the same left-to-right sum that
/// log(w) + log_normal_pdf(x, mean, variance) evaluates, so the bits match.
/// The division stays: multiplying by a hoisted 1/variance changes bits.
double component_log_pdf(double x, double lw, double la, double mean,
                         double variance) {
  const double d = x - mean;
  return lw + -0.5 * (la + d * d / variance);
}

/// log(sum_c exp(term(c))) over c < k, bit for bit as log_sum_exp
/// evaluates it over the same values, except that the argmax term is added
/// as the exact exp(0.0) == 1.0 without a call. term(c) is called up to
/// twice per c and must return the same value each time.
template <typename Term>
double log_sum_exp_of(std::size_t k, const Term& term) {
  double mx = -std::numeric_limits<double>::infinity();
  std::size_t top = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const double t = term(c);
    if (mx < t) {
      mx = t;
      top = c;
    }
  }
  if (!std::isfinite(mx)) return mx;
  double acc = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    acc += c == top ? 1.0 : std::exp(term(c) - mx);
  }
  return mx + std::log(acc);
}

/// Scratch one fit() shares across its restarts.
struct em_scratch {
  std::vector<double> resp;  ///< n x k responsibilities, row-major
  std::vector<double> logp;  ///< k per-point component log-densities
  std::vector<double> lw;    ///< k hoisted log(weight)
  std::vector<double> la;    ///< k hoisted kLog2Pi + log(variance)
};

/// EM iterations (Algorithm 1) from the start in `comps`, which holds the
/// fitted components on return; returns the last log-likelihood. K > 0
/// fixes the order at compile time so the per-point loops unroll; K == 0
/// takes it from comps.size().
template <std::size_t K>
double run_em(std::span<const double> data, const em_config& cfg,
              double floor, std::vector<component1d>& comps,
              em_scratch& s) {
  const std::size_t k = K != 0 ? K : comps.size();
  const std::size_t n = data.size();
  std::array<double, K != 0 ? K : 1> local_logp{};
  double* logp = K != 0 ? local_logp.data() : s.logp.data();
  double* resp = s.resp.data();
  double* lw = s.lw.data();
  double* la = s.la.data();

  double prev_ll = -std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < cfg.max_iter; ++iter) {
    for (std::size_t c = 0; c < k; ++c) {
      lw[c] = std::log(comps[c].weight);
      la[c] = kLog2Pi + std::log(comps[c].variance);
    }

    // E-step: responsibilities gamma_ik.
    double ll = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < k; ++c) {
        logp[c] = component_log_pdf(data[i], lw[c], la[c], comps[c].mean,
                                    comps[c].variance);
      }
      const double lse =
          log_sum_exp_of(k, [logp](std::size_t c) { return logp[c]; });
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
        std::fabs(ll - prev_ll) <= cfg.tolerance * (std::fabs(prev_ll) + 1.0)) {
      prev_ll = ll;
      break;
    }
    prev_ll = ll;
  }
  return prev_ll;
}

}  // namespace

gmm1d::gmm1d(std::vector<component1d> components)
    : components_(std::move(components)) {
  ADVH_CHECK(!components_.empty());
  double total = 0.0;
  terms_.reserve(components_.size());
  for (const auto& c : components_) {
    ADVH_CHECK(c.weight >= 0.0 && c.variance > 0.0);
    total += c.weight;
    terms_.push_back({std::log(std::max(c.weight, 1e-300)),
                      kLog2Pi + std::log(c.variance)});
  }
  ADVH_CHECK_MSG(std::fabs(total - 1.0) < 1e-6, "weights must sum to 1");
}

gmm1d gmm1d::fit(std::span<const double> data, std::size_t k,
                 const em_config& cfg) {
  ADVH_CHECK_MSG(data.size() >= k && k > 0, "need at least k observations");

  const double data_var = std::max(stats::variance(data), 1e-12);
  const double floor = std::max(cfg.variance_floor_ratio * data_var, 1e-12);
  const auto n = data.size();
  const std::size_t restarts = std::max<std::size_t>(cfg.restarts, 1);

  em_scratch scratch{std::vector<double>(n * k), std::vector<double>(k),
                     std::vector<double>(k), std::vector<double>(k)};
  std::vector<component1d> comps(k);
  std::vector<std::size_t> counts(k);
  std::vector<component1d> starts;  // k initial components per EM run
  starts.reserve(restarts * k);

  std::vector<component1d> best;
  double best_ll = -std::numeric_limits<double>::infinity();

  rng seed_gen(cfg.seed);
  for (std::size_t restart = 0; restart < restarts; ++restart) {
    rng gen = seed_gen.split();

    // Initialise from k-means clusters.
    auto km = kmeans(data, 1, k, gen);
    counts.assign(k, 0);
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

    // EM is a pure function of (data, start, cfg) and `best` is replaced
    // only on a strict improvement, so a start that an earlier restart
    // already ran cannot change the result: skip it.
    bool repeat = false;
    for (std::size_t r = 0; r < starts.size() && !repeat; r += k) {
      repeat = std::memcmp(starts.data() + r, comps.data(),
                           k * sizeof(component1d)) == 0;
    }
    if (repeat) continue;
    starts.insert(starts.end(), comps.begin(), comps.end());

    double ll = 0.0;
    switch (k) {
      case 1: ll = run_em<1>(data, cfg, floor, comps, scratch); break;
      case 2: ll = run_em<2>(data, cfg, floor, comps, scratch); break;
      case 3: ll = run_em<3>(data, cfg, floor, comps, scratch); break;
      case 4: ll = run_em<4>(data, cfg, floor, comps, scratch); break;
      default: ll = run_em<0>(data, cfg, floor, comps, scratch); break;
    }
    if (ll > best_ll) {
      best_ll = ll;
      best = comps;
    }
  }

  return gmm1d(std::move(best));
}

gmm1d gmm1d::fit_best_bic(std::span<const double> data, std::size_t k_max,
                          const em_config& cfg) {
  ADVH_CHECK(k_max > 0);
  gmm1d best;
  double best_bic = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= k_max; ++k) {
    if (data.size() < 2 * k) break;  // too few points to support k modes
    gmm1d candidate = fit(data, k, cfg);
    const double b = candidate.bic(data);
    if (b < best_bic) {
      best_bic = b;
      best = std::move(candidate);
    }
  }
  ADVH_CHECK_MSG(best.order() > 0, "BIC scan produced no model");
  return best;
}

double gmm1d::log_pdf(double x) const {
  ADVH_CHECK_MSG(!components_.empty(), "model not fitted");
  // The log-densities are recomputed, not buffered, so no order allocates.
  return log_sum_exp_of(components_.size(), [&](std::size_t c) {
    return component_log_pdf(x, terms_[c].log_weight, terms_[c].log_norm,
                             components_[c].mean, components_[c].variance);
  });
}

double gmm1d::total_log_likelihood(std::span<const double> data) const {
  double acc = 0.0;
  for (double x : data) acc += log_pdf(x);
  return acc;
}

double gmm1d::bic(std::span<const double> data) const {
  // Free parameters in 1-D: k means + k variances + (k-1) weights.
  const double params = static_cast<double>(3 * order() - 1);
  return params * std::log(static_cast<double>(data.size())) -
         2.0 * total_log_likelihood(data);
}

double gmm1d::sample(rng& gen) const {
  ADVH_CHECK(!components_.empty());
  double r = gen.uniform();
  std::size_t c = 0;
  for (; c + 1 < components_.size(); ++c) {
    r -= components_[c].weight;
    if (r <= 0.0) break;
  }
  return gen.normal(components_[c].mean, std::sqrt(components_[c].variance));
}

// ---------------------------------------------------------------------------
// Diagonal multivariate mixture.

gmm_diag gmm_diag::fit(std::span<const double> data, std::size_t dim,
                       std::size_t k, const em_config& cfg) {
  ADVH_CHECK(dim > 0 && data.size() % dim == 0);
  const std::size_t n = data.size() / dim;
  ADVH_CHECK_MSG(n >= k && k > 0, "need at least k observations");

  // Per-dimension variance floors.
  std::vector<double> dim_var(dim, 0.0);
  for (std::size_t d = 0; d < dim; ++d) {
    std::vector<double> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = data[i * dim + d];
    dim_var[d] = std::max(stats::variance(col), 1e-12);
  }

  rng gen(cfg.seed);
  auto km = kmeans(data, dim, k, gen);

  gmm_diag model;
  model.dim_ = dim;
  model.components_.assign(k, component_diag{});
  std::vector<std::size_t> counts(k, 0);
  for (std::size_t i = 0; i < n; ++i) ++counts[km.assignment[i]];
  for (std::size_t c = 0; c < k; ++c) {
    model.components_[c].mean = km.centroids[c];
    model.components_[c].weight = std::max(
        static_cast<double>(counts[c]) / static_cast<double>(n), 1e-6);
    model.components_[c].variance.assign(dim, 0.0);
  }
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t d = 0; d < dim; ++d) {
      double var = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (km.assignment[i] == c) {
          const double diff = data[i * dim + d] - model.components_[c].mean[d];
          var += diff * diff;
        }
      }
      model.components_[c].variance[d] = std::max(
          counts[c] ? var / static_cast<double>(counts[c]) : dim_var[d],
          cfg.variance_floor_ratio * dim_var[d]);
    }
  }
  {
    double wsum = 0.0;
    for (auto& c : model.components_) wsum += c.weight;
    for (auto& c : model.components_) c.weight /= wsum;
  }

  std::vector<double> resp(n * k);
  std::vector<double> logp(k);
  double prev_ll = -std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < cfg.max_iter; ++iter) {
    double ll = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < k; ++c) {
        double lp = std::log(model.components_[c].weight);
        for (std::size_t d = 0; d < dim; ++d) {
          lp += log_normal_pdf(data[i * dim + d],
                               model.components_[c].mean[d],
                               model.components_[c].variance[d]);
        }
        logp[c] = lp;
      }
      const double lse = log_sum_exp(logp);
      ll += lse;
      for (std::size_t c = 0; c < k; ++c) {
        resp[i * k + c] = std::exp(logp[c] - lse);
      }
    }

    for (std::size_t c = 0; c < k; ++c) {
      double nk = 0.0;
      for (std::size_t i = 0; i < n; ++i) nk += resp[i * k + c];
      nk = std::max(nk, 1e-10);
      for (std::size_t d = 0; d < dim; ++d) {
        double mu = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          mu += resp[i * k + c] * data[i * dim + d];
        }
        mu /= nk;
        double var = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double diff = data[i * dim + d] - mu;
          var += resp[i * k + c] * diff * diff;
        }
        model.components_[c].mean[d] = mu;
        model.components_[c].variance[d] =
            std::max(var / nk, cfg.variance_floor_ratio * dim_var[d]);
      }
      model.components_[c].weight = nk / static_cast<double>(n);
    }

    if (std::isfinite(prev_ll) &&
        std::fabs(ll - prev_ll) <= cfg.tolerance * (std::fabs(prev_ll) + 1.0)) {
      break;
    }
    prev_ll = ll;
  }
  return model;
}

gmm_diag gmm_diag::fit_best_bic(std::span<const double> data, std::size_t dim,
                                std::size_t k_max, const em_config& cfg) {
  ADVH_CHECK(k_max > 0);
  gmm_diag best;
  double best_bic = std::numeric_limits<double>::infinity();
  const std::size_t n = data.size() / std::max<std::size_t>(dim, 1);
  for (std::size_t k = 1; k <= k_max; ++k) {
    if (n < 2 * k) break;
    gmm_diag candidate = fit(data, dim, k, cfg);
    const double b = candidate.bic(data);
    if (b < best_bic) {
      best_bic = b;
      best = std::move(candidate);
    }
  }
  ADVH_CHECK_MSG(best.order() > 0, "BIC scan produced no model");
  return best;
}

double gmm_diag::log_pdf(std::span<const double> x) const {
  ADVH_CHECK_MSG(!components_.empty(), "model not fitted");
  ADVH_CHECK(x.size() == dim_);
  std::vector<double> logp(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    double lp = std::log(std::max(components_[c].weight, 1e-300));
    for (std::size_t d = 0; d < dim_; ++d) {
      lp += log_normal_pdf(x[d], components_[c].mean[d],
                           components_[c].variance[d]);
    }
    logp[c] = lp;
  }
  return log_sum_exp(logp);
}

double gmm_diag::total_log_likelihood(std::span<const double> data) const {
  ADVH_CHECK(data.size() % dim_ == 0);
  const std::size_t n = data.size() / dim_;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += log_pdf(data.subspan(i * dim_, dim_));
  }
  return acc;
}

double gmm_diag::bic(std::span<const double> data) const {
  const std::size_t n = data.size() / dim_;
  const double params =
      static_cast<double>(order() * (2 * dim_ + 1) - 1);
  return params * std::log(static_cast<double>(n)) -
         2.0 * total_log_likelihood(data);
}

}  // namespace advh::gmm
