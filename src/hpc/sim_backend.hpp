// Simulator-backed HPC monitor.
//
// Substitutes for perf on machines (or containers) where perf_event_open
// is unavailable: the inference runs for real, its data-flow trace is
// replayed through the microarchitecture simulator, and the resulting true
// counts are observed R times through the measurement-noise model — the
// same protocol the paper uses on real counters.
//
// Determinism contract: the noise applied to sample k (counting every
// input ever measured through this monitor, in submission order) depends
// only on (seed, k) — never on which worker measured it or how many
// threads were in flight. Serial `measure` loops, `measure_batch` at one
// thread, and `measure_batch` at N threads therefore produce bitwise
// identical measurements. The raw_reader interface extends the same
// contract to explicit stream indices, which is what the resilient
// decorator stack keys its retries on.
#pragma once

#include "hpc/monitor.hpp"
#include "hpc/noise.hpp"
#include "nn/model.hpp"
#include "uarch/trace_gen.hpp"

namespace advh::hpc {

class sim_backend final : public hpc_monitor, public raw_reader {
 public:
  /// The monitor borrows the model; callers keep it alive.
  explicit sim_backend(nn::model& m, const uarch::trace_gen_config& cfg = {},
                       noise_model noise = noise_model{},
                       std::uint64_t seed = 99);

  std::string backend_name() const override { return "simulator"; }

  /// Deterministic (noise-free) event profile of one input.
  uarch::uarch_counts profile(const tensor& x, std::size_t& predicted);

  /// Raw repetition readings at an explicit noise-stream index. Does not
  /// advance the monitor's own stream counter, and is safe to call from
  /// multiple threads concurrently (each call replays through a private
  /// trace generator; the shared model's traced forward is read-only).
  reading_block read_repetitions(const tensor& x,
                                 std::span<const hpc_event> events,
                                 std::size_t repeats,
                                 std::uint64_t stream) override;

 protected:
  measurement do_measure(const tensor& x, std::span<const hpc_event> events,
                         std::size_t repeats) override;

  /// Parallel batch measurement: workers each replay traces through their
  /// own trace_generator, and every input draws noise from its own
  /// (seed, sample-index) stream.
  std::vector<measurement> do_measure_batch(std::span<const tensor> inputs,
                                            std::span<const hpc_event> events,
                                            std::size_t repeats,
                                            std::size_t threads) override;

 private:
  /// The one measurement body behind measure and read_repetitions: traces
  /// `x`, replays the trace through `gen`, then draws `repeats` noisy
  /// readings of every event from the (seed, stream) noise stream,
  /// event-outer and repetition-inner, handing each to put(event, rep,
  /// value). Returns the prediction.
  template <class Put>
  std::size_t sample(const tensor& x, std::span<const hpc_event> events,
                     std::size_t repeats, uarch::trace_generator& gen,
                     std::uint64_t stream, Put&& put) const;

  measurement measure_one(const tensor& x, std::span<const hpc_event> events,
                          std::size_t repeats, uarch::trace_generator& gen,
                          std::uint64_t stream) const;

  nn::model& model_;
  uarch::trace_generator gen_;
  noise_model noise_;
  std::uint64_t seed_;
  std::uint64_t next_stream_ = 0;  ///< samples measured so far
};

}  // namespace advh::hpc
