#include "core/joint_detector.hpp"

#include "common/error.hpp"
#include "common/stats.hpp"

namespace advh::core {

joint_detector joint_detector::fit(const benign_template& tpl,
                                   const detector_config& cfg) {
  ADVH_CHECK_MSG(cfg.events.size() == tpl.num_events(),
                 "config/template event count mismatch");
  const std::size_t dim = tpl.num_events();

  joint_detector d;
  d.cfg_ = cfg;
  d.models_.assign(tpl.num_classes(), std::nullopt);

  for (std::size_t cls = 0; cls < tpl.num_classes(); ++cls) {
    const std::size_t rows = tpl.rows(cls);
    if (rows < 2) continue;

    // Row-major (rows x dim) flattening of the class's D_c matrix.
    std::vector<double> data(rows * dim);
    for (std::size_t e = 0; e < dim; ++e) {
      const auto& col = tpl.column(cls, e);
      for (std::size_t r = 0; r < rows; ++r) data[r * dim + e] = col[r];
    }

    joint_event_model jm;
    jm.model = gmm::gmm_diag::fit_best_bic(data, dim, cfg.k_max, cfg.em);
    jm.template_size = rows;

    std::vector<double> nll;
    nll.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      nll.push_back(jm.model.nll(
          std::span<const double>(data).subspan(r * dim, dim)));
    }
    jm.nll_mean = stats::mean(nll);
    jm.nll_stddev = stats::stddev(nll);
    jm.threshold = jm.nll_mean + cfg.sigma_multiplier * jm.nll_stddev;
    d.models_[cls] = std::move(jm);
  }
  return d;
}

joint_verdict joint_detector::score(std::size_t predicted_class,
                                    std::span<const double> mean_counts) const {
  ADVH_CHECK(predicted_class < models_.size());
  ADVH_CHECK_MSG(mean_counts.size() == cfg_.events.size(),
                 "measurement width must equal event count");
  joint_verdict v;
  v.predicted = predicted_class;
  const auto& jm = models_[predicted_class];
  if (!jm.has_value()) return v;
  v.nll = jm->model.nll(mean_counts);
  v.adversarial = v.nll > jm->threshold;
  return v;
}

const std::optional<joint_event_model>& joint_detector::model_for(
    std::size_t cls) const {
  ADVH_CHECK(cls < models_.size());
  return models_[cls];
}

}  // namespace advh::core
