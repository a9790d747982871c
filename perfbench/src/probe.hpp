// The traced run's instruments around the measurement layer.
//
// timing_monitor is the timing decorator: the outermost hpc_monitor over
// a simulator backend, used only in the traced run. It forwards every
// call unchanged, records an "hpc.measure" span and its wall time, and
// can log each call (inputs, stream indices, outputs) for two oracles
// run after the timed phase:
//
//   * the split oracle rebuilds every logged measurement from the
//     library's public pieces — model::trace_inference, a forward through
//     each top-level child of model::net(), uarch::trace_generator::run
//     and noise_model::sample under rng::stream(seed, k) — and requires
//     bitwise equality with the backend's output, so the nn / uarch / hpc
//     spans time exactly the program the untraced run times;
//   * the decorator oracle replays the logged calls through a fresh,
//     undecorated backend and requires bitwise-identical measurements.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "hpc/sim_backend.hpp"
#include "trace.hpp"

namespace perfbench {

/// Decorator totals summed over every timing_monitor of a traced phase.
struct measure_totals {
  void add(double wall_ms, std::size_t inputs, std::size_t repeats);
  double wall_ms() const;
  double inputs() const;
  double repeats() const;

 private:
  mutable std::mutex mutex_;  // guards the sums
  double wall_ms_ = 0.0;
  double inputs_ = 0.0;
  double repeats_ = 0.0;
};

/// Calls of one decorated backend, kept for the oracles. It outlives the
/// decorator (fleet replicas drop their monitor when they crash).
struct call_log {
  struct call {
    std::vector<advh::tensor> inputs;
    std::vector<advh::hpc::hpc_event> events;
    std::size_t repeats = 0;
    std::size_t threads = 0;    ///< 0 for a single measure()
    std::uint64_t stream = 0;   ///< noise stream of inputs[0]
    double wall_ms = 0.0;
    std::vector<advh::hpc::measurement> out;
  };

  advh::nn::model* model = nullptr;
  std::uint64_t seed = 0;
  std::vector<call> calls;
};

class timing_monitor final : public advh::hpc::hpc_monitor {
 public:
  /// Decorates a simulator backend over `model` with noise seed `seed`.
  /// Every call adds to `totals`; when `log` is set, it is also logged.
  timing_monitor(advh::nn::model& model, std::uint64_t seed,
                 measure_totals& totals, std::shared_ptr<call_log> log);

  std::string backend_name() const override { return inner_.backend_name(); }

 protected:
  advh::hpc::measurement do_measure(
      const advh::tensor& x, std::span<const advh::hpc::hpc_event> events,
      std::size_t repeats) override;
  std::vector<advh::hpc::measurement> do_measure_batch(
      std::span<const advh::tensor> inputs,
      std::span<const advh::hpc::hpc_event> events, std::size_t repeats,
      std::size_t threads) override;
  advh::hpc::measurement do_measure_budgeted(
      const advh::tensor& x, std::span<const advh::hpc::hpc_event> events,
      std::size_t repeats, const advh::hpc::measure_budget& budget) override;
  std::vector<advh::hpc::measurement> do_measure_batch_budgeted(
      std::span<const advh::tensor> inputs,
      std::span<const advh::hpc::hpc_event> events, std::size_t repeats,
      std::size_t threads, const advh::hpc::measure_budget& budget) override;

 private:
  template <typename F>
  std::vector<advh::hpc::measurement> timed(
      std::span<const advh::tensor> inputs,
      std::span<const advh::hpc::hpc_event> events, std::size_t repeats,
      std::size_t threads, F&& forward);

  advh::hpc::sim_backend inner_;
  measure_totals& totals_;
  std::shared_ptr<call_log> log_;
  std::mutex mutex_;  // guards log_->calls and next_stream_
  std::uint64_t next_stream_ = 0;
};

/// Per-input layer statistics gathered by the split oracle.
struct split_stats {
  std::size_t inputs = 0;
  double active_inputs = 0.0;   ///< summed over inputs
  double trace_bytes = 0.0;
  advh::uarch::uarch_counts counts{};  ///< summed over inputs
  /// hpc.batch_efficiency terms over logged calls: summed per-input cost
  /// and summed (workers x decorator wall) of the same calls.
  double batch_cost_ms = 0.0;
  double batch_capacity_ms = 0.0;
};

/// Runs the split oracle over every call in `log` at `threads`;
/// spans are named after `label` (the scenario, e.g. "S2"). When `det`
/// is given each rebuilt measurement is also scored (core.score span).
/// Mismatches fail `r`.
void split_oracle(const call_log& log, const std::string& label,
                  const advh::core::detector* det, std::size_t threads,
                  split_stats& stats, result& r);

/// Replays the calls in `log` through a fresh undecorated backend.
void decorator_oracle(const call_log& log, result& r);

/// Emits the nn / uarch / hpc / core per-layer metrics of the traced run
/// from the collected spans, the split statistics and the decorators.
void layer_metrics(const std::vector<trace::span>& spans,
                   const std::vector<double>& self,
                   const std::map<std::string, split_stats>& by_label,
                   const measure_totals& totals, result& r);

}  // namespace perfbench
