#include "hpc/sim_backend.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"

namespace advh::hpc {

sim_backend::sim_backend(nn::model& m, const uarch::trace_gen_config& cfg,
                         noise_model noise, std::uint64_t seed)
    : model_(m), gen_(cfg), noise_(std::move(noise)), seed_(seed) {}

uarch::uarch_counts sim_backend::profile(const tensor& x,
                                         std::size_t& predicted) {
  nn::inference_trace trace = model_.trace_inference(x, predicted);
  return gen_.run(trace);
}

template <class Put>
std::size_t sim_backend::sample(const tensor& x,
                                std::span<const hpc_event> events,
                                std::size_t repeats,
                                uarch::trace_generator& gen,
                                std::uint64_t stream, Put&& put) const {
  std::size_t predicted = 0;
  nn::inference_trace trace = model_.trace_inference(x, predicted);
  const uarch::uarch_counts true_counts = gen.run(trace);
  rng noise_rng = rng::stream(seed_, stream);
  for (std::size_t e = 0; e < events.size(); ++e) {
    const auto truth = static_cast<double>(extract(true_counts, events[e]));
    for (std::size_t r = 0; r < repeats; ++r) {
      put(e, r, noise_.sample(events[e], truth, noise_rng));
    }
  }
  return predicted;
}

measurement sim_backend::measure_one(const tensor& x,
                                     std::span<const hpc_event> events,
                                     std::size_t repeats,
                                     uarch::trace_generator& gen,
                                     std::uint64_t stream) const {
  measurement out;
  out.mean_counts.resize(events.size());
  out.stddev_counts.resize(events.size());
  stats::running_stats acc;
  out.predicted = sample(x, events, repeats, gen, stream,
                         [&](std::size_t e, std::size_t r, double value) {
                           if (r == 0) acc = stats::running_stats{};
                           acc.push(value);
                           if (r + 1 < repeats) return;
                           out.mean_counts[e] = acc.mean();
                           // Population stddev: 0 by construction at
                           // repeats == 1, never NaN.
                           out.stddev_counts[e] = acc.stddev();
                         });
  return out;
}

reading_block sim_backend::read_repetitions(const tensor& x,
                                            std::span<const hpc_event> events,
                                            std::size_t repeats,
                                            std::uint64_t stream) {
  ADVH_CHECK(repeats > 0);
  reading_block block;
  block.repetitions = repeats;
  block.num_events = events.size();
  block.values.assign(repeats * events.size(), 0.0);
  block.status.assign(repeats * events.size(), reading_block::read_status::ok);
  // Private replay context per call: trace_generator::run resets its cache
  // and predictor state on entry, so concurrent callers reproduce the same
  // cold-pipeline profile the serial path computes.
  uarch::trace_generator gen(gen_.config());
  block.predicted = sample(x, events, repeats, gen, stream,
                           [&](std::size_t e, std::size_t r, double value) {
                             block.values[r * events.size() + e] = value;
                           });
  return block;
}

measurement sim_backend::do_measure(const tensor& x,
                                    std::span<const hpc_event> events,
                                    std::size_t repeats) {
  return measure_one(x, events, repeats, gen_, next_stream_++);
}

std::vector<measurement> sim_backend::do_measure_batch(
    std::span<const tensor> inputs, std::span<const hpc_event> events,
    std::size_t repeats, std::size_t threads) {
  std::vector<measurement> out(inputs.size());
  const std::uint64_t base = next_stream_;
  next_stream_ += inputs.size();

  const std::size_t workers = std::min(parallel::resolve_threads(threads),
                                       std::max<std::size_t>(inputs.size(), 1));
  if (workers <= 1 || inputs.size() < 2) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      out[i] = measure_one(inputs[i], events, repeats, gen_, base + i);
    }
    return out;
  }

  parallel::thread_pool pool(workers);
  // Per-worker replay contexts: trace_generator::run resets its cache and
  // predictor state on entry, so a private instance per worker reproduces
  // the cold-pipeline profile the serial path computes.
  std::vector<uarch::trace_generator> gens;
  gens.reserve(pool.size());
  for (std::size_t w = 0; w < pool.size(); ++w) gens.emplace_back(gen_.config());

  pool.run_chunks(inputs.size(),
                  [&](std::size_t begin, std::size_t end, std::size_t w) {
                    for (std::size_t i = begin; i < end; ++i) {
                      out[i] = measure_one(inputs[i], events, repeats, gens[w],
                                           base + i);
                    }
                  });
  return out;
}

}  // namespace advh::hpc
