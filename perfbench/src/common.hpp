// Shared plumbing of the repository benchmark: command-line options, the
// result record every workload fills, order statistics, digests, host
// fingerprint and the scenario helpers (model load, seeded inputs,
// targeted-PGD adversarial examples, detector fit).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "data/scenarios.hpp"
#include "hpc/monitor.hpp"
#include "nn/model.hpp"
#include "uarch/trace_gen.hpp"

namespace perfbench {

using steady = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double since(steady::time_point t0);

/// CPU time consumed by this process so far (all threads), seconds.
double process_cpu_s();
/// CPU time consumed by the calling thread so far, seconds.
double thread_cpu_s();

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;  ///< nproc: every workload's thread budget
};

/// One workload run. `e2e` feeds the untraced JSON line, `layer` the
/// traced one; `report` lines are printed before the JSON for humans
/// (percentiles with sample counts, workload-specific metrics, digests).
struct result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> report;

  /// Records a correctness check; a failed one clears `correct`.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { report.push_back(line); }
};

/// Order statistics over a sample, linear interpolation between ranks.
double percentile(std::vector<double> xs, double q);
double median(std::vector<double> xs);

/// The highest whole percentile with at least ten samples beyond it
/// (the median when the sample is smaller than 20).
struct tail_stat {
  double value = 0.0;
  double pct = 50.0;
  std::size_t n = 0;
};
tail_stat tail(const std::vector<double>& xs);
/// "p93 of 156" — the label printed beside every tail value.
std::string tail_label(const tail_stat& t);

/// Sets latency_p50_ms / latency_tail_ms from per-operation times (ms)
/// and reports the tail's percentile and sample count beside them.
void latency_metrics(result& r, const std::vector<double>& ms,
                     const std::string& operation);

/// Each workload sets up at least kSetupRepeats times, and a cheap set-up
/// repeats until kSetupCpuSeconds of CPU time are spent (at most
/// kSetupMaxRepeats times), so its median does not rest on a few
/// millisecond readings.
inline constexpr std::size_t kSetupRepeats = 3;
inline constexpr std::size_t kSetupMaxRepeats = 60;
inline constexpr double kSetupCpuSeconds = 2.0;

/// Sets up as above and returns the last set-up state. setup_s is the
/// median CPU time (all threads) of one set-up, which the hypervisor's
/// steal does not inflate; the median wall time is printed.
template <typename F>
auto timed_setup(result& r, F&& make) {
  using state = decltype(make());
  std::vector<double> cpu, wall;
  std::optional<state> last;
  double total = 0.0;
  while (cpu.size() < kSetupRepeats ||
         (total < kSetupCpuSeconds && cpu.size() < kSetupMaxRepeats)) {
    last.reset();
    const double c0 = process_cpu_s();
    const auto t0 = steady::now();
    last.emplace(make());
    wall.push_back(since(t0));
    cpu.push_back(process_cpu_s() - c0);
    total += cpu.back();
  }
  r.e2e["setup_s"] = median(cpu);
  r.note("setup.wall_s: " + std::to_string(median(wall)) +
         " s (median of " + std::to_string(cpu.size()) + " set-ups)");
  return std::move(*last);
}

/// Deterministic sub-seed for one purpose of one run: the first draw of
/// the library's stateless stream rng::stream(seed, purpose).
std::uint64_t mix(std::uint64_t seed, std::uint64_t purpose);

/// The simulated event counts of uarch_counts, listed once for the
/// digests and the per-input sums.
inline constexpr std::uint64_t advh::uarch::uarch_counts::*kCountFields[] = {
    &advh::uarch::uarch_counts::instructions,
    &advh::uarch::uarch_counts::branches,
    &advh::uarch::uarch_counts::branch_misses,
    &advh::uarch::uarch_counts::cache_references,
    &advh::uarch::uarch_counts::cache_misses,
    &advh::uarch::uarch_counts::l1d_load_misses,
    &advh::uarch::uarch_counts::l1i_load_misses,
    &advh::uarch::uarch_counts::llc_load_misses,
    &advh::uarch::uarch_counts::llc_store_misses,
};

/// Bit-for-bit equality of doubles (NaNs and signed zeros included).
bool same_bits(double a, double b);
bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

/// FNV-1a over raw bytes; digests chain through `h`.
class digest {
 public:
  void bytes(const void* p, std::size_t n);
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  void verdict(const advh::core::verdict& v);
  void counts(const advh::uarch::uarch_counts& c);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// CPU clocks around every timed run of a workload's parallel operation.
/// parallel_speedup is the operation's CPU time (all threads) over its
/// critical path: the larger of the calling thread's CPU time and the mean
/// of the other workers'. The library's pools make the caller worker 0 and
/// run every serial step on it, so the ratio is the operation's speed-up
/// over one thread on an unshared host: nproc when the work splits evenly,
/// 1 when it is serialised, lower as the serial part grows. CPU time per
/// operation cannot show those changes. CPU clocks leave out the time the
/// hypervisor steals, which holds up a whole parallel step when it stalls
/// one worker. The estimate leaves out waiting and does not see imbalance
/// among the non-calling workers.
class parallel_meter {
 public:
  /// Runs `op()`, which works on `workers` threads including the caller.
  template <typename F>
  void run(std::size_t workers, F&& op) {
    const double caller0 = thread_cpu_s();
    const double all0 = process_cpu_s();
    op();
    const double caller = thread_cpu_s() - caller0;
    const double all = process_cpu_s() - all0;
    cpu_s_ += all;
    critical_s_ += workers > 1
                       ? std::max(caller, (all - caller) / double(workers - 1))
                       : caller;
  }
  /// CPU time of the metered runs, all threads, seconds.
  double cpu_s() const { return cpu_s_; }
  /// parallel_speedup: CPU time over critical path (0 before any run).
  double speedup() const {
    return critical_s_ > 0.0 ? cpu_s_ / critical_s_ : 0.0;
  }

 private:
  double cpu_s_ = 0.0;
  double critical_s_ = 0.0;
};

/// Bitwise verdict equality (prediction, per-event NLL bits and flags,
/// and the fused / modeled / degraded / abstained calls).
bool same_verdict(const advh::core::verdict& a, const advh::core::verdict& b);
bool same_measurement(const advh::hpc::measurement& a,
                      const advh::hpc::measurement& b);

/// CPU model, nproc, library thread count and compiler, one line each.
std::vector<std::string> host_fingerprint();
/// Peak resident set size of this process, MB.
double peak_rss_mb();

// ------------------------------------------------------------ scenarios --

/// The trained scenario model, loaded from advh_models/ (relative to the
/// working directory) and verified by the library's load path.
std::unique_ptr<advh::nn::model> load_model(advh::data::scenario_id id);

/// `per_class` fresh inputs of the scenario's task; `sample_seed` picks
/// the draw, the task itself (class prototypes) stays the trained one.
advh::data::dataset make_inputs(advh::data::scenario_id id,
                                std::size_t per_class,
                                std::uint64_t sample_seed);

/// Correctly classified batch-of-one examples from `d`, at most `limit`,
/// in dataset order, skipping `skip_class` (npos: none).
std::vector<advh::tensor> correct_examples(advh::nn::model& m,
                                           const advh::data::dataset& d,
                                           std::size_t limit,
                                           std::size_t skip_class = ~0UL);

/// Targeted PGD (eps 0.1, 10 steps) against the scenario's target class
/// over correctly classified non-target sources; returns the first
/// `count` successful adversarial examples in source order. Sources are
/// attacked in parallel, each worker on its own copy of the model.
std::vector<advh::tensor> targeted_pgd(advh::data::scenario_id id,
                                       const std::vector<advh::tensor>& sources,
                                       std::size_t count, std::size_t threads);

/// Template collection + detector fit, both at `threads`.
advh::core::detector fit_detector(advh::nn::model& m,
                                  const advh::core::detector_config& cfg,
                                  const advh::data::dataset& pool,
                                  std::size_t per_class,
                                  std::uint64_t noise_seed,
                                  std::size_t threads);

/// The detector configuration of the online workloads: the two cache
/// events that carry the signal, R = 10, BIC over k <= 4.
advh::core::detector_config online_config();

/// Simulated-statistics golden check: noise-free event profiles of a
/// fixed input set on every scenario model must hash to the value the
/// benchmark was written against. A simulator-speed change has to leave
/// this digest unchanged.
void golden_check(result& r);

}  // namespace perfbench
