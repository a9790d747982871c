// Ablation bench for AdvHunter's two modelling choices (called out in
// DESIGN.md):
//   1. the three-sigma threshold rule — swept over sigma in {1..5};
//   2. BIC model-order selection — swept over k_max in {1, 2, 4, 6}
//      (k_max = 1 degenerates to a single Gaussian per template).
// Scenario S2, cache-misses, targeted FGSM eps = 0.1 — the Table 2
// setting. Reported: false-positive rate on clean inputs, recall on AEs,
// and F1.
#include <iostream>
#include <string>

#include "bench/bench_common.hpp"

using namespace advh;

int main() {
  auto rt = bench::prepare(data::scenario_id::s2);
  auto monitor = bench::make_monitor(*rt.net);

  // Shared populations.
  const std::size_t n = bench::scaled(60);
  auto clean = bench::clean_of_class(*rt.net, rt.test, rt.spec.target_class,
                                     n);
  auto pool = bench::attack_pool(rt, bench::scaled(40));
  auto adv = bench::collect_adversarial(
      *rt.net, pool, attack::attack_kind::fgsm, attack::attack_goal::targeted,
      0.1f, rt.spec.target_class, n);

  // The template is measured once; detector variants refit on it.
  core::detector_config base;
  base.events = {hpc::hpc_event::cache_misses};
  base.repeats = 10;
  const auto tpl =
      core::collect_template(*monitor, base, rt.train, bench::scaled(40), 77);

  // Pre-measure evaluation inputs once as well.
  const auto clean_meas =
      monitor->measure_batch(clean, base.events, base.repeats);
  const auto adv_meas =
      monitor->measure_batch(adv.inputs, base.events, base.repeats);

  auto evaluate = [&](const core::detector& det) {
    core::detection_confusion c;
    for (const auto& m : clean_meas) {
      c.push(false, det.score(m.predicted, m.mean_counts).adversarial_any);
    }
    for (const auto& m : adv_meas) {
      c.push(true, det.score(m.predicted, m.mean_counts).adversarial_any);
    }
    return c;
  };
  auto add_row = [](text_table& table, const std::string& label,
                    const core::detection_confusion& c) {
    const double fpr =
        c.false_positives() + c.true_negatives() > 0
            ? static_cast<double>(c.false_positives()) /
                  static_cast<double>(c.false_positives() + c.true_negatives())
            : 0.0;
    table.add_row({label, text_table::num(100.0 * fpr, 2),
                   text_table::num(100.0 * c.recall(), 2),
                   text_table::num(c.f1(), 4)});
  };

  text_table sigma_table(
      "Ablation A: threshold multiplier (paper uses the 3-sigma rule)");
  sigma_table.set_header({"sigma", "FPR %", "recall %", "F1"});
  for (double sigma : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    auto cfg = base;
    cfg.sigma_multiplier = sigma;
    add_row(sigma_table, text_table::num(sigma, 1),
            evaluate(core::detector::fit(tpl, cfg)));
  }
  bench::emit(sigma_table, "ablation_sigma");

  text_table k_table(
      "Ablation B: GMM order selection (k_max = 1 is a single Gaussian)");
  k_table.set_header({"k_max", "FPR %", "recall %", "F1"});
  for (std::size_t k : {1u, 2u, 4u, 6u}) {
    auto cfg = base;
    cfg.k_max = k;
    add_row(k_table, std::to_string(k),
            evaluate(core::detector::fit(tpl, cfg)));
  }
  bench::emit(k_table, "ablation_kmax");

  text_table r_table("Ablation C: measurement repetitions R (paper: R=10)");
  r_table.set_header({"R", "FPR %", "recall %", "F1"});
  for (std::size_t repeats : {1u, 3u, 10u, 30u}) {
    auto cfg = base;
    cfg.repeats = repeats;
    // Template and evaluation must be re-measured at this R.
    const auto tpl_r = core::collect_template(*monitor, cfg, rt.train,
                                              bench::scaled(40), 78);
    const auto det = core::detector::fit(tpl_r, cfg);
    core::detection_eval eval;
    core::evaluate_inputs(det, *monitor, clean, false, eval);
    core::evaluate_inputs(det, *monitor, adv.inputs, true, eval);
    add_row(r_table, std::to_string(repeats), eval.fused);
  }
  bench::emit(r_table, "ablation_repeats");
  return 0;
}
