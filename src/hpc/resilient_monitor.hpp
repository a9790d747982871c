// Resilient measurement decorator.
//
// Turns a best-effort raw_reader backend into a measurement contract the
// detector can trust:
//   * per-repetition retry — failed readings are re-read with capped
//     exponential backoff (common/retry) until the R requested
//     repetitions are filled or the attempt budget runs out;
//   * robust aggregation — the surviving repetitions are trimmed by
//     median/MAD outlier rejection (3.5 robust standard deviations from
//     the per-event median) before the mean/stddev the detector
//     consumes are computed, so co-tenant spikes cannot drag the paper's
//     E-bar statistic;
//   * graceful degradation — an event reported permanently lost is
//     dropped from the active set and the measurement's quality mask
//     records the surviving subset instead of the run failing.
//
// Determinism contract: every stochastic decision for sample k (noise,
// faults, retries) is keyed on stream indices derived from k alone —
// attempt a of sample k reads at stream k * attempt_stride + a — so
// serial measures, 1-thread batches, and N-thread batches are bitwise
// identical, fault storms included.
#pragma once

#include <mutex>
#include <set>

#include "common/retry.hpp"
#include "hpc/monitor.hpp"

namespace advh::hpc {

class resilient_monitor final : public hpc_monitor {
 public:
  /// Retry attempts are encoded into the inner stream index; the policy's
  /// max_attempts must not exceed this stride.
  static constexpr std::uint64_t attempt_stride = 8;

  /// Takes ownership of `inner`, which must implement raw_reader
  /// (unsupported_error otherwise). `retry` is the per-sample budget for
  /// refilling failed repetitions.
  explicit resilient_monitor(monitor_ptr inner,
                             retry_policy retry = retry_policy{});

  std::string backend_name() const override {
    return "resilient(" + inner_->backend_name() + ")";
  }

  /// Events observed permanently lost so far (sorted). A lost event stays
  /// in measurement vectors — with quality.available = 0 — so event
  /// indices keep lining up with the detector configuration.
  std::vector<hpc_event> lost_events() const;

  /// The subset of `requested` not yet observed permanently lost.
  std::vector<hpc_event> surviving(std::span<const hpc_event> requested) const;

 protected:
  measurement do_measure(const tensor& x, std::span<const hpc_event> events,
                         std::size_t repeats) override;

  /// Parallel over samples; bitwise identical at any thread count.
  std::vector<measurement> do_measure_batch(std::span<const tensor> inputs,
                                            std::span<const hpc_event> events,
                                            std::size_t repeats,
                                            std::size_t threads) override;

  /// Budgeted variants: the budget caps retry rounds, suppresses backoff
  /// sleeps, and honours cancellation (see measure_budget). A budget only
  /// truncates the retry schedule — stream indices stay keyed on
  /// (sample, attempt) — so any fixed budget is bitwise thread-invariant.
  measurement do_measure_budgeted(const tensor& x,
                                  std::span<const hpc_event> events,
                                  std::size_t repeats,
                                  const measure_budget& budget) override;

  std::vector<measurement> do_measure_batch_budgeted(
      std::span<const tensor> inputs, std::span<const hpc_event> events,
      std::size_t repeats, std::size_t threads,
      const measure_budget& budget) override;

 private:
  measurement measure_sample(const tensor& x, std::span<const hpc_event> events,
                             std::size_t repeats, std::uint64_t sample_index,
                             const measure_budget& budget) const;

  monitor_ptr inner_;
  raw_reader* reader_;  ///< inner_ viewed through its raw_reader facet
  retry_policy retry_;
  std::uint64_t next_sample_ = 0;
  /// Permanently-lost events seen so far — reporting only; measurement
  /// content for sample k depends on k alone, never on this set.
  mutable std::mutex lost_mutex_;
  mutable std::set<hpc_event> lost_;
};

}  // namespace advh::hpc
