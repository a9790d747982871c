// Fit oracles.
//
// The univariate GMM fit (hoisted per-component logs, a compile-time-order
// E-step for k = 1..4, restarts from a repeated k-means start skipped, and
// a log-density that reads logs cached at construction) promises the exact
// models of the straightforward fit it replaced. These tests hold it to that
// against the verbatim copy in gmm_reference.hpp: every fitted component,
// every BIC and every log-density must match bit for bit over a seeded sweep
// of data shapes, sizes, orders and restart counts, and over the columns
// that reach the edges of the arithmetic (a constant column on the 1e-12
// variance floor, a far outlier whose terms underflow in exp, tied values).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gmm/gmm.hpp"
#include "gmm_reference.hpp"

using namespace advh;
using namespace advh::gmm;

namespace {

std::string describe(const std::vector<component1d>& comps) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& c : comps) {
    os << "{w=" << c.weight << " m=" << c.mean << " v=" << c.variance << "} ";
  }
  return os.str();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_components(const std::vector<component1d>& a,
                     const std::vector<component1d>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(component1d)) == 0;
}

/// n points around `modes` well-separated means (sd 12 counts, the scale
/// of a cache-miss template column), each point's mode drawn at random.
std::vector<double> mixture_column(std::size_t n, std::size_t modes,
                                   std::uint64_t seed) {
  static constexpr double kMeans[] = {2000.0, 2150.0, 2400.0};
  rng gen(seed);
  std::vector<double> out(n);
  for (auto& x : out) {
    const auto m = static_cast<std::size_t>(gen.uniform_index(modes));
    x = gen.normal(kMeans[m], 12.0);
  }
  return out;
}

/// Probe points for log_pdf: the data itself plus the far tails, where
/// every component's term but the nearest underflows.
std::vector<double> probes(std::span<const double> data) {
  std::vector<double> out(data.begin(), data.end());
  for (double x : {-1e9, -5000.0, 0.0, 1999.5, 2075.0, 9000.0, 1e9}) {
    out.push_back(x);
  }
  return out;
}

/// Asserts log_pdf, nll and bic of `model` equal the reference's bit for
/// bit on `data`.
void expect_same_scores(const gmm1d& model, std::span<const double> data,
                        const std::string& where) {
  const auto& comps = model.components();
  EXPECT_TRUE(same_bits(model.bic(data), reference::bic(comps, data)))
      << where << ": bic " << model.bic(data) << " vs "
      << reference::bic(comps, data);
  for (double x : probes(data)) {
    const double want = reference::log_pdf(comps, x);
    ASSERT_TRUE(same_bits(model.log_pdf(x), want))
        << where << ": log_pdf(" << x << ") " << model.log_pdf(x) << " vs "
        << want;
    ASSERT_TRUE(same_bits(model.nll(x), -want)) << where << ": nll(" << x
                                                << ")";
  }
}

/// Asserts fit_best_bic and fit at every order the scan reaches equal the
/// reference bit for bit on `data`, and that their scores do too.
void expect_same_fits(std::span<const double> data, std::size_t k_max,
                      const em_config& cfg, const std::string& where) {
  const gmm1d best = gmm1d::fit_best_bic(data, k_max, cfg);
  const auto want = reference::fit_best_bic(data, k_max, cfg);
  ASSERT_TRUE(same_components(best.components(), want))
      << where << " fit_best_bic\n  got  " << describe(best.components())
      << "\n  want " << describe(want);
  expect_same_scores(best, data, where + " fit_best_bic");

  for (std::size_t k = 1; k <= k_max && 2 * k <= data.size(); ++k) {
    const gmm1d got = gmm1d::fit(data, k, cfg);
    const auto ref = reference::fit(data, k, cfg);
    ASSERT_TRUE(same_components(got.components(), ref))
        << where << " fit k=" << k << "\n  got  "
        << describe(got.components()) << "\n  want " << describe(ref);
    expect_same_scores(got, data, where + " fit k=" + std::to_string(k));
  }
}

std::string label(std::size_t modes, std::size_t n, std::size_t k_max,
                  std::size_t restarts, std::uint64_t seed) {
  return "modes=" + std::to_string(modes) + " n=" + std::to_string(n) +
         " k_max=" + std::to_string(k_max) +
         " restarts=" + std::to_string(restarts) +
         " seed=" + std::to_string(seed);
}

}  // namespace

// 1-3 modes x n in {2 k_max, 5, 10, 50, 80, 200} x k_max in {1, 4, 6}
// (6 takes the generic-order path) x restarts in {1, 3, 5}, two seeds each.
TEST(GmmOracle, SeededSweepMatchesReference) {
  for (std::size_t modes = 1; modes <= 3; ++modes) {
    for (std::size_t k_max : {1u, 4u, 6u}) {
      for (std::size_t n : {2 * k_max, std::size_t{5}, std::size_t{10},
                            std::size_t{50}, std::size_t{80},
                            std::size_t{200}}) {
        for (std::size_t restarts : {1u, 3u, 5u}) {
          for (std::uint64_t seed : {3u, 11u}) {
            em_config cfg;
            cfg.restarts = restarts;
            cfg.seed = seed + 100;
            const auto data = mixture_column(n, modes, seed * 1000 + n);
            expect_same_fits(data, k_max, cfg,
                             label(modes, n, k_max, restarts, seed));
          }
        }
      }
    }
  }
}

// The calibrate shape: 50 points from one Gaussian, where the k = 2..4
// chains run long and lose the BIC, and most k = 2 restarts share a start.
TEST(GmmOracle, UnimodalCalibrateCellsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    rng gen(seed);
    std::vector<double> data(50);
    for (auto& x : data) x = gen.normal(2000.0, 12.0);
    expect_same_fits(data, 4, {}, "unimodal seed=" + std::to_string(seed));
  }
}

// A constant column: zero data variance, every component on the 1e-12
// floor, k-means++ seeding from a zero-total distance.
TEST(GmmOracle, ConstantColumnMatchesReference) {
  for (std::size_t n : {2u, 8u, 50u}) {
    const std::vector<double> data(n, 1234.5);
    for (std::size_t restarts : {1u, 3u}) {
      em_config cfg;
      cfg.restarts = restarts;
      expect_same_fits(data, 4, cfg, "constant n=" + std::to_string(n));
    }
  }
}

// One far outlier: its own component's log-density dominates by far, so
// every other term of its log-sum-exp underflows to exp(...) == 0.
TEST(GmmOracle, FarOutlierMatchesReference) {
  for (std::uint64_t seed : {2u, 7u, 19u}) {
    auto data = mixture_column(49, 1, seed);
    data.push_back(1e6);
    expect_same_fits(data, 4, {}, "outlier seed=" + std::to_string(seed));
    expect_same_fits(data, 6, {}, "outlier k6 seed=" + std::to_string(seed));
  }
}

// Tied values: integer counts on three levels, so k-means starts and
// log-densities tie exactly (several maxima in one log-sum-exp).
TEST(GmmOracle, TiedValuesMatchReference) {
  for (std::uint64_t seed : {4u, 8u}) {
    rng gen(seed);
    for (std::size_t n : {10u, 50u}) {
      std::vector<double> data(n);
      for (auto& x : data) {
        x = 100.0 + static_cast<double>(gen.uniform_index(3));
      }
      expect_same_fits(data, 4, {}, "tied n=" + std::to_string(n));
      expect_same_fits(data, 6, {}, "tied k6 n=" + std::to_string(n));
    }
  }
}

// Hand-built models (as loaded from a detector file): a zero weight takes
// the 1e-300 clamp, equal components tie, and orders beyond the fit's
// unrolled ones are scored on the same path.
TEST(GmmOracle, HandBuiltModelScoresMatchReference) {
  const std::vector<std::vector<component1d>> models = {
      {{1.0, 5.0, 2.0}},
      {{0.0, -3.0, 1.0}, {1.0, 4.0, 0.5}},
      {{0.5, 10.0, 3.0}, {0.5, 10.0, 3.0}},
      {{0.1, 0.0, 1.0},
       {0.1, 1.0, 2.0},
       {0.1, 2.0, 3.0},
       {0.2, 3.0, 4.0},
       {0.2, 4.0, 5.0},
       {0.2, 5.0, 6.0},
       {0.1, 6.0, 1e-12}},
  };
  const std::vector<double> data = {-2.0, 0.0, 1.5, 3.0, 4.0, 6.0, 10.0, 1e4};
  for (std::size_t i = 0; i < models.size(); ++i) {
    expect_same_scores(gmm1d(models[i]), data,
                       "hand-built model " + std::to_string(i));
  }
}
