// screen: closed-loop batch screening. One client calls
// detector::classify_batch at nproc threads on fixed batches drawn from a
// pool that interleaves S2 clean inputs, S2 targeted-PGD adversarial
// examples and S3 clean inputs (R = 10, two cache events). Forward pass
// and cache/branch replay are nearly all of the online cost here; S3's
// replay share is larger than S2's, and adversarial examples change the
// active-neuron sets and with them the replay work per input.
#include <algorithm>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "hpc/sim_backend.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace advh;

namespace {

constexpr std::size_t kBatch = 16;
constexpr std::size_t kS2Clean = 64;
constexpr std::size_t kS2Adv = 32;
constexpr std::size_t kS3Clean = 48;
constexpr std::size_t kS2Template = 24;  // template rows per class
constexpr std::size_t kS3Template = 4;   // 43 classes

struct batch {
  bool s3 = false;
  std::vector<tensor> inputs;
  std::vector<bool> adversarial;
  std::uint64_t noise_seed = 0;
  std::vector<core::verdict> reference;  ///< 1-thread verdicts
};

struct screen_state {
  std::unique_ptr<nn::model> s2, s3;
  std::optional<core::detector> det2, det3;
  std::vector<batch> batches;  ///< in cycle order

  nn::model& model(const batch& b) const { return b.s3 ? *s3 : *s2; }
  const core::detector& det(const batch& b) const {
    return b.s3 ? *det3 : *det2;
  }
};

screen_state set_up(const options& o) {
  using data::scenario_id;
  screen_state st;
  st.s2 = load_model(scenario_id::s2);
  st.s3 = load_model(scenario_id::s3);
  const auto cfg = online_config();
  st.det2 = fit_detector(*st.s2, cfg,
                         make_inputs(scenario_id::s2, kS2Template + 12,
                                     mix(o.seed, 1)),
                         kS2Template, mix(o.seed, 2), o.threads);
  st.det3 = fit_detector(*st.s3, cfg,
                         make_inputs(scenario_id::s3, kS3Template + 4,
                                     mix(o.seed, 3)),
                         kS3Template, mix(o.seed, 4), o.threads);

  auto clean2 = correct_examples(
      *st.s2, make_inputs(scenario_id::s2, 9, mix(o.seed, 5)), kS2Clean);
  const std::size_t target = data::get_scenario(scenario_id::s2).target_class;
  auto adv2 = targeted_pgd(
      scenario_id::s2,
      correct_examples(*st.s2, make_inputs(scenario_id::s2, 5, mix(o.seed, 6)),
                       2 * kS2Adv, target),
      kS2Adv, o.threads);
  auto clean3 = correct_examples(
      *st.s3, make_inputs(scenario_id::s3, 2, mix(o.seed, 7)), kS3Clean);
  if (clean2.size() != kS2Clean || adv2.size() != kS2Adv ||
      clean3.size() != kS3Clean) {
    throw std::runtime_error("screen: input pool came up short");
  }

  // S2 batches interleave clean inputs and adversarial examples in a
  // seeded order; the cycle runs two S2 batches per S3 batch.
  std::vector<std::uint8_t> is_adv(kS2Clean, 0);
  is_adv.resize(kS2Clean + kS2Adv, 1);
  rng gen(mix(o.seed, 8));
  gen.shuffle(is_adv);
  std::vector<batch> b2, b3;
  std::size_t ci = 0, ai = 0;
  for (std::size_t i = 0; i < is_adv.size(); ++i) {
    if (i % kBatch == 0) b2.emplace_back();
    b2.back().inputs.push_back(is_adv[i] ? std::move(adv2[ai++])
                                         : std::move(clean2[ci++]));
    b2.back().adversarial.push_back(is_adv[i] != 0);
  }
  for (std::size_t i = 0; i < clean3.size(); ++i) {
    if (i % kBatch == 0) {
      b3.emplace_back();
      b3.back().s3 = true;
    }
    b3.back().inputs.push_back(std::move(clean3[i]));
    b3.back().adversarial.push_back(false);
  }
  for (std::size_t i = 0, j = 0; i < b2.size() || j < b3.size();) {
    for (int k = 0; k < 2 && i < b2.size(); ++k) {
      st.batches.push_back(std::move(b2[i++]));
    }
    if (j < b3.size()) st.batches.push_back(std::move(b3[j++]));
  }
  for (std::size_t i = 0; i < st.batches.size(); ++i) {
    st.batches[i].noise_seed = mix(o.seed, 100 + i);
  }
  return st;
}

// 1-thread reference verdicts, detection rates on S2, and the digests of
// verdicts and of the noise-free simulated event profiles.
void reference(screen_state& st, const options& o, result& r) {
  digest dv, du;
  std::size_t tp = 0, adv = 0, fp = 0, clean = 0;
  for (batch& b : st.batches) {
    hpc::sim_backend mon(st.model(b), {}, hpc::noise_model{}, b.noise_seed);
    b.reference = st.det(b).classify_batch(mon, b.inputs, 1);
    for (std::size_t i = 0; i < b.inputs.size(); ++i) {
      dv.verdict(b.reference[i]);
      if (b.s3) continue;
      const bool flagged = b.reference[i].adversarial_any;
      (b.adversarial[i] ? adv : clean) += 1;
      (b.adversarial[i] ? tp : fp) += flagged ? 1 : 0;
    }
    std::vector<uarch::uarch_counts> counts(b.inputs.size());
    std::vector<std::unique_ptr<hpc::sim_backend>> sims;
    for (std::size_t w = 0; w < o.threads; ++w) {
      sims.push_back(std::make_unique<hpc::sim_backend>(st.model(b)));
    }
    parallel::parallel_for(
        b.inputs.size(), o.threads, [&](std::size_t i, std::size_t w) {
          std::size_t predicted = 0;
          counts[i] = sims[w]->profile(b.inputs[i], predicted);
        });
    for (const auto& c : counts) du.counts(c);
  }
  r.note("screen.tpr: " + std::to_string(double(tp) / double(adv)) +
         " ratio (" + std::to_string(tp) + " of " + std::to_string(adv) +
         " S2 targeted-PGD examples flagged)");
  r.note("screen.fpr: " + std::to_string(double(fp) / double(clean)) +
         " ratio (" + std::to_string(fp) + " of " + std::to_string(clean) +
         " S2 clean inputs flagged)");
  r.note("digest.verdicts: " + dv.hex());
  r.note("digest.uarch: " + du.hex());
}

struct phase {
  double seconds = 0.0;
  std::uint64_t verdicts = 0;
  std::vector<double> call_ms;
  std::vector<double> cycle_rate;  ///< verdicts/s of each complete cycle
  parallel_meter meter;
};

// The timed loop. In the traced phase every call goes through a timing
// decorator, and the first pass over each batch is logged for the oracles.
phase run_phase(const screen_state& st, const options& o, double seconds,
                bool traced, result& r,
                std::vector<std::shared_ptr<call_log>>& logs,
                measure_totals& totals) {
  phase p;
  const auto t0 = steady::now();
  for (std::size_t call = 0; since(t0) < seconds; ++call) {
    const batch& b = st.batches[call % st.batches.size()];
    trace::scope window("bench.screen");
    std::unique_ptr<hpc::hpc_monitor> mon;
    if (traced) {
      std::shared_ptr<call_log> log;
      if (call < st.batches.size()) {
        logs.push_back(log = std::make_shared<call_log>());
      }
      mon = std::make_unique<timing_monitor>(st.model(b), b.noise_seed, totals,
                                             std::move(log));
    } else {
      mon = std::make_unique<hpc::sim_backend>(
          st.model(b), uarch::trace_gen_config{}, hpc::noise_model{},
          b.noise_seed);
    }
    const auto c0 = steady::now();
    std::vector<core::verdict> vs;
    p.meter.run(o.threads, [&] {
      trace::scope s("core.classify_batch");
      vs = st.det(b).classify_batch(*mon, b.inputs, o.threads);
    });
    p.call_ms.push_back(since(c0) * 1e3);
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < vs.size(); ++i) {
      ++r.attempted;
      if (!same_verdict(vs[i], b.reference[i]) || vs[i].abstained) ++mismatched;
    }
    r.failed += mismatched;
    r.check(mismatched == 0, "screen: " + std::to_string(mismatched) +
                                 " verdicts differ from the 1-thread "
                                 "reference or abstained");
    p.verdicts += vs.size();
    // A cycle is one pass over every batch; its rate compares across
    // runs whatever the mix of S2 and S3 calls a run ended on.
    if ((call + 1) % st.batches.size() == 0) {
      double ms = 0.0;
      std::size_t n = 0;
      for (std::size_t k = 0; k < st.batches.size(); ++k) {
        ms += p.call_ms[p.call_ms.size() - 1 - k];
        n += st.batches[k].inputs.size();
      }
      p.cycle_rate.push_back(double(n) / (ms / 1e3));
    }
  }
  p.seconds = since(t0);
  return p;
}

}  // namespace

result run_screen(const options& o) {
  result r;
  screen_state st = timed_setup(r, [&] { return set_up(o); });
  reference(st, o, r);

  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<std::shared_ptr<call_log>> logs;
  measure_totals totals;
  const phase plain = run_phase(st, o, untraced_s, false, r, logs, totals);
  // Median over complete cycles, which a contended stretch of the run
  // moves less than the overall mean.
  r.e2e["ops_per_s"] = plain.cycle_rate.empty()
                           ? double(plain.verdicts) / plain.seconds
                           : median(plain.cycle_rate);
  r.e2e["cpu_ms_per_op"] =
      plain.meter.cpu_s() * 1e3 / double(plain.verdicts);
  r.e2e["parallel_speedup"] = plain.meter.speedup();
  latency_metrics(r, plain.call_ms, "one classify_batch call of 16 inputs");
  r.note("screen.verdicts_per_s: " + std::to_string(r.e2e["ops_per_s"]) +
         " 1/s");

  if (o.trace) {
    trace::enable(true);
    const phase traced = run_phase(st, o, o.seconds / 2, true, r, logs,
                                   totals);
    std::map<std::string, split_stats> by_label;
    for (const auto& log : logs) {
      const bool s3 = log->model == st.s3.get();
      split_oracle(*log, s3 ? "S3" : "S2", s3 ? &*st.det3 : &*st.det2,
                   o.threads, by_label[s3 ? "S3" : "S2"], r);
      decorator_oracle(*log, r);
    }
    trace::enable(false);
    const auto spans = trace::collect();
    finish_trace(r, o, spans, trace::self_ms(spans), by_label, totals,
                 double(plain.verdicts) / plain.seconds,
                 double(traced.verdicts) / traced.seconds);
  }
  return r;
}

}  // namespace perfbench
