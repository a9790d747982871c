#include "hpc/factory.hpp"

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "hpc/perf_backend.hpp"

namespace advh::hpc {

fault_config fault_config_at_rate(double rate) {
  fault_config cfg;
  cfg.read_failure_rate = rate;
  cfg.spike_rate = rate / 2.0;
  cfg.stuck_rate = rate / 4.0;
  // Rare, short hangs: enough to exercise the timed-out-read path without
  // slowing the suite down.
  cfg.hang_rate = rate / 50.0;
  cfg.hang_ms = 1;
  return cfg;
}

std::optional<fault_config> fault_config_from_env() {
  const double rate = env::number("ADVH_FAULT_RATE", 0.0, 1.0).value_or(0.0);
  if (rate == 0.0) return std::nullopt;
  return fault_config_at_rate(rate);
}

std::optional<drift_profile> drift_profile_from_env() {
  const double rate = env::number("ADVH_DRIFT_RATE", 0.0, 99.0).value_or(0.0);
  if (rate == 0.0) return std::nullopt;
  drift_profile p;
  p.shape = drift_profile::shape_kind::step;
  p.magnitude = 1.0 + rate;
  // Active from stream 0: the whole session — template collection and
  // online scoring alike — runs on the shifted baseline, which is how a
  // redeployment onto different silicon looks. Mid-session onsets are the
  // drift bench's job (it constructs explicit profiles).
  p.onset_stream = 0;
  return p;
}

monitor_ptr make_monitor(nn::model& m, const monitor_options& opts) {
  monitor_ptr base;
  switch (opts.kind) {
    case backend_kind::perf:
      base = std::make_unique<perf_backend>(m);
      break;
    case backend_kind::simulator:
      base = std::make_unique<sim_backend>(m, opts.sim_cfg, noise_model{},
                                           opts.noise_seed);
      break;
    case backend_kind::auto_detect:
      if (perf_events_available()) {
        log::info("HPC monitor: native perf_event backend");
        base = std::make_unique<perf_backend>(m);
      } else {
        log::info("HPC monitor: perf_event unavailable, using simulator");
        base = std::make_unique<sim_backend>(m, opts.sim_cfg, noise_model{},
                                             opts.noise_seed);
      }
      break;
  }
  if (base == nullptr) throw invariant_error("unknown backend kind");

  if (opts.drift.has_value()) {
    log::info("HPC monitor: injecting baseline drift (magnitude ",
              opts.drift->magnitude, ")");
    base = std::make_unique<drift_backend>(std::move(base), *opts.drift);
  }
  if (opts.faults.has_value()) {
    log::info("HPC monitor: injecting faults (read failure rate ",
              opts.faults->read_failure_rate, ")");
    base = std::make_unique<fault_backend>(std::move(base), *opts.faults);
  }
  if (opts.resilience) {
    base = std::make_unique<resilient_monitor>(std::move(base));
  }
  return base;
}

monitor_ptr make_monitor(nn::model& m, backend_kind kind,
                         const uarch::trace_gen_config& sim_cfg,
                         std::uint64_t noise_seed) {
  monitor_options opts;
  opts.kind = kind;
  opts.sim_cfg = sim_cfg;
  opts.noise_seed = noise_seed;
  // Chaos overrides: an injected (drifted or faulty) stack is only useful
  // behind the resilient layer, so it always comes along here.
  opts.drift = drift_profile_from_env();
  opts.faults = fault_config_from_env();
  opts.resilience = opts.drift.has_value() || opts.faults.has_value();
  return make_monitor(m, opts);
}

}  // namespace advh::hpc
