// calibrate: the offline batch job on S1. Each job measures a benign
// template (all nine events, M rows per class) with core::collect_template
// and fits the (class, event) GMM bank with core::detector::fit (90 cells,
// BIC over k <= 4), both at nproc threads. S1's forward pass is small, so
// the GMM fit and its serial fraction carry much of the time; a
// forward-pass speed-up should move this workload little.
#include <algorithm>

#include "core/pipeline.hpp"
#include "gmm/gmm.hpp"
#include "hpc/sim_backend.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace advh;

namespace {

constexpr std::size_t kRowsPerClass = 50;  // the paper's M

struct job {
  std::optional<core::benign_template> tpl;
  std::optional<core::detector> det;
  double fit_s = 0.0;
};

struct calibrate_state {
  std::unique_ptr<nn::model> s1;
  data::dataset pool;
  core::detector_config cfg;
  std::uint64_t noise_seed = 0;
  job ref;  ///< the 1-thread reference job
};

job calibrate(const calibrate_state& st, hpc::hpc_monitor& mon,
              std::size_t threads) {
  job j;
  {
    trace::scope s("core.collect_template");
    j.tpl = core::collect_template(mon, st.cfg, st.pool, kRowsPerClass,
                                   st.noise_seed, threads);
  }
  const auto t0 = steady::now();
  {
    trace::scope s("core.fit");
    j.det = core::detector::fit(*j.tpl, st.cfg, threads);
  }
  j.fit_s = since(t0);
  return j;
}

calibrate_state set_up(const options& o) {
  calibrate_state st;
  st.s1 = load_model(data::scenario_id::s1);
  st.pool = make_inputs(data::scenario_id::s1, kRowsPerClass + 20,
                        mix(o.seed, 1));
  st.cfg.events = hpc::all_events();
  st.cfg.repeats = 10;
  st.noise_seed = mix(o.seed, 2);
  // The reference job is part of set-up: without it set-up is ~60 ms of
  // CPU time, whose median moved by a quarter from run to run.
  hpc::sim_backend ref_mon(*st.s1, {}, hpc::noise_model{}, st.noise_seed);
  st.ref = calibrate(st, ref_mon, 1);
  return st;
}

bool same_model(const core::event_model& a, const core::event_model& b) {
  const auto& ca = a.model.components();
  const auto& cb = b.model.components();
  if (ca.size() != cb.size() || a.template_size != b.template_size ||
      !same_bits(a.threshold, b.threshold) ||
      !same_bits(a.nll_mean, b.nll_mean) ||
      !same_bits(a.nll_stddev, b.nll_stddev)) {
    return false;
  }
  for (std::size_t k = 0; k < ca.size(); ++k) {
    if (!same_bits(ca[k].weight, cb[k].weight) ||
        !same_bits(ca[k].mean, cb[k].mean) ||
        !same_bits(ca[k].variance, cb[k].variance)) {
      return false;
    }
  }
  return true;
}

// Counts the failed (class, event) cells of `j` against the reference:
// unmodelled, underfilled, or a template column or fitted model that
// differs bit for bit.
std::size_t failed_cells(const job& j, const job& ref) {
  std::size_t failed = 0;
  for (std::size_t cls = 0; cls < ref.tpl->num_classes(); ++cls) {
    for (std::size_t e = 0; e < ref.tpl->num_events(); ++e) {
      const auto& m = j.det->model_for(cls, e);
      const auto& mr = ref.det->model_for(cls, e);
      const bool ok = j.tpl->rows(cls) >= kRowsPerClass && m.has_value() &&
                      mr.has_value() &&
                      j.tpl->column(cls, e) == ref.tpl->column(cls, e) &&
                      same_model(*m, *mr);
      failed += ok ? 0 : 1;
    }
  }
  return failed;
}

struct phase {
  double seconds = 0.0;
  std::uint64_t cells = 0;
  std::vector<double> job_ms;
  parallel_meter meter;
};

phase run_phase(const calibrate_state& st, const options& o, double seconds,
                bool traced, const job& ref, result& r,
                std::shared_ptr<call_log>& log, measure_totals& totals) {
  phase p;
  const auto t0 = steady::now();
  for (std::size_t n = 0; since(t0) < seconds; ++n) {
    trace::scope window("bench.calibrate");
    std::unique_ptr<hpc::hpc_monitor> mon;
    if (traced) {
      if (n == 0) log = std::make_shared<call_log>();
      mon = std::make_unique<timing_monitor>(*st.s1, st.noise_seed, totals,
                                             n == 0 ? log : nullptr);
    } else {
      mon = std::make_unique<hpc::sim_backend>(
          *st.s1, uarch::trace_gen_config{}, hpc::noise_model{},
          st.noise_seed);
    }
    const auto j0 = steady::now();
    job j;
    p.meter.run(o.threads, [&] { j = calibrate(st, *mon, o.threads); });
    p.job_ms.push_back(since(j0) * 1e3);
    const std::size_t cells = ref.tpl->num_classes() * ref.tpl->num_events();
    r.attempted += cells;
    const std::size_t failed = failed_cells(j, ref);
    r.failed += failed;
    r.check(failed == 0, "calibrate: " + std::to_string(failed) +
                             " cells unmodelled, underfilled or different "
                             "from the 1-thread reference");
    p.cells += cells;
  }
  p.seconds = since(t0);
  return p;
}

}  // namespace

result run_calibrate(const options& o) {
  result r;
  const calibrate_state st = timed_setup(r, [&] { return set_up(o); });
  const job& ref = st.ref;
  digest dt;
  for (std::size_t cls = 0; cls < ref.tpl->num_classes(); ++cls) {
    for (std::size_t e = 0; e < ref.tpl->num_events(); ++e) {
      for (double v : ref.tpl->column(cls, e)) dt.pod(v);
      if (const auto& m = ref.det->model_for(cls, e)) {
        dt.pod(m->threshold);
        for (const auto& c : m->model.components()) dt.pod(c);
      }
    }
  }
  r.note("digest.template_and_detector: " + dt.hex());

  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  std::shared_ptr<call_log> log;
  measure_totals totals;
  const phase plain = run_phase(st, o, untraced_s, false, ref, r, log, totals);
  // Every job calibrates the same cells, so the rate is taken from the
  // median job, which a contended stretch of the run moves less.
  const double cells_per_job =
      double(plain.cells) / double(plain.job_ms.size());
  r.e2e["ops_per_s"] = cells_per_job / (median(plain.job_ms) / 1e3);
  r.e2e["cpu_ms_per_op"] = plain.meter.cpu_s() * 1e3 / double(plain.cells);
  r.e2e["parallel_speedup"] = plain.meter.speedup();
  latency_metrics(r, plain.job_ms,
                  "one calibration job (collect_template + fit)");
  r.note("calibrate.calibrate_s: " +
         std::to_string(median(plain.job_ms) / 1e3) +
         " s (median job wall time)");

  if (o.trace) {
    trace::enable(true);
    const phase traced =
        run_phase(st, o, o.seconds / 2, true, ref, r, log, totals);
    std::map<std::string, split_stats> by_label;
    split_oracle(*log, "S1", nullptr, o.threads, by_label["S1"], r);
    decorator_oracle(*log, r);

    // Per-cell BIC fits on one thread, over the reference template.
    std::vector<double> cell_ms;
    double components = 0.0;
    for (std::size_t cls = 0; cls < ref.tpl->num_classes(); ++cls) {
      for (std::size_t e = 0; e < ref.tpl->num_events(); ++e) {
        trace::scope window("bench.gmm");
        const auto c0 = steady::now();
        gmm::gmm1d g;
        {
          trace::scope s("gmm.fit_best_bic");
          g = gmm::gmm1d::fit_best_bic(ref.tpl->column(cls, e),
                                       st.cfg.k_max, st.cfg.em);
        }
        cell_ms.push_back(since(c0) * 1e3);
        components += static_cast<double>(g.order());
      }
    }
    trace::enable(false);
    r.layer["gmm.fit_bic_ms.p50"] = median(cell_ms);
    r.layer["gmm.fit_bic_ms.max"] =
        *std::max_element(cell_ms.begin(), cell_ms.end());
    r.layer["gmm.components"] =
        components / static_cast<double>(cell_ms.size());
    const auto spans = trace::collect();
    const auto self = trace::self_ms(spans);
    std::vector<double> collect_s, fit_s;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double s = spans[i].ms() / 1e3;
      if (spans[i].name == "core.collect_template") collect_s.push_back(s);
      if (spans[i].name == "core.fit") fit_s.push_back(s);
    }
    r.layer["core.collect_template_s"] = median(collect_s);
    r.layer["core.fit_s"] = median(fit_s);
    r.layer["core.fit_efficiency"] =
        ref.fit_s / (static_cast<double>(o.threads) * median(fit_s));
    finish_trace(r, o, spans, self, by_label, totals,
                 double(plain.cells) / plain.seconds,
                 double(traced.cells) / traced.seconds);
  }
  return r;
}

}  // namespace perfbench
