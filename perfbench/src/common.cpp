#include "common.hpp"

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <iomanip>
#include <sstream>

#include "attack/attack.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "hpc/sim_backend.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"

namespace perfbench {

using namespace advh;

namespace {

// Digest of golden_check's fixed input set at the trained advh_models/.
constexpr const char* kGoldenUarchDigest = "5bed02964618efba";

}  // namespace

double since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  report.push_back("CHECK FAILED: " + what);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

tail_stat tail(const std::vector<double>& xs) {
  tail_stat t;
  t.n = xs.size();
  // Whole percentile p such that n * (1 - p/100) >= 10.
  if (t.n >= 20) {
    t.pct = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(t.n)));
  }
  t.value = percentile(xs, t.pct / 100.0);
  return t;
}

std::string tail_label(const tail_stat& t) {
  std::ostringstream os;
  os << "p" << t.pct << " of " << t.n;
  return os.str();
}

void latency_metrics(result& r, const std::vector<double>& ms,
                     const std::string& operation) {
  const tail_stat t = tail(ms);
  r.e2e["latency_p50_ms"] = median(ms);
  r.e2e["latency_tail_ms"] = t.value;
  r.note("latency: " + operation + "; tail is " + tail_label(t));
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t purpose) {
  return rng::stream(seed, purpose)();
}

void digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ULL;
  }
}

void digest::verdict(const core::verdict& v) {
  pod(v.predicted);
  for (double x : v.nll) pod(x);
  for (bool f : v.flagged) pod(f);
  pod(v.adversarial_any);
  pod(v.modeled);
  pod(v.degraded);
  pod(v.abstained);
}

void digest::counts(const uarch::uarch_counts& c) {
  for (const auto field : kCountFields) pod(c.*field);
}

std::string digest::hex() const {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << h_;
  return os.str();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

bool same_verdict(const core::verdict& a, const core::verdict& b) {
  return a.predicted == b.predicted && same_bits(a.nll, b.nll) &&
         a.flagged == b.flagged && a.adversarial_any == b.adversarial_any &&
         a.modeled == b.modeled && a.degraded == b.degraded &&
         a.abstained == b.abstained;
}

bool same_measurement(const hpc::measurement& a, const hpc::measurement& b) {
  return a.predicted == b.predicted &&
         same_bits(a.mean_counts, b.mean_counts) &&
         same_bits(a.stddev_counts, b.stddev_counts) &&
         a.q.available == b.q.available;
}

namespace {

// CPU brand string from cpuid leaves 0x80000002..4.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000000, &eax, &ebx, &ecx, &edx) == 0 ||
      eax < 0x80000004) {
    return "unknown";
  }
  char brand[49] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002 + leaf, &eax, &ebx, &ecx, &edx);
    const unsigned int regs[4] = {eax, ebx, ecx, edx};
    std::memcpy(brand + 16 * leaf, regs, sizeof regs);
  }
  std::string out(brand);
  out.erase(0, out.find_first_not_of(' '));
  return out;
#else
  return "unknown";
#endif
}

}  // namespace

std::vector<std::string> host_fingerprint() {
  const std::string cpu = cpu_model();
  std::vector<std::string> out;
  out.push_back("host.cpu: " + cpu);
  out.push_back("host.nproc: " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  out.push_back("host.hardware_threads: " +
                std::to_string(parallel::hardware_threads()));
  out.push_back(std::string("build.compiler: ") + __VERSION__);
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ scenarios --

std::unique_ptr<nn::model> load_model(data::scenario_id id) {
  const auto spec = data::get_scenario(id);
  const auto& d = spec.dataset_spec;
  auto m = nn::make_model(spec.arch, shape{d.channels, d.height, d.width},
                          d.classes, 1234);
  nn::load_state(*m, "advh_models/" + spec.label + "_" +
                         nn::to_string(spec.arch) + ".advh");
  return m;
}

data::dataset make_inputs(data::scenario_id id, std::size_t per_class,
                          std::uint64_t sample_seed) {
  auto spec = data::get_scenario(id).dataset_spec;
  spec.sample_seed = sample_seed;
  return data::make_synthetic(spec, per_class);
}

std::vector<tensor> correct_examples(nn::model& m, const data::dataset& d,
                                     std::size_t limit,
                                     std::size_t skip_class) {
  const auto predicted = m.predict(d.images);
  std::vector<tensor> out;
  for (std::size_t i = 0; i < d.size() && out.size() < limit; ++i) {
    if (d.labels[i] == skip_class || predicted[i] != d.labels[i]) continue;
    out.push_back(nn::single_example(d.images, i));
  }
  return out;
}

std::vector<tensor> targeted_pgd(data::scenario_id id,
                                 const std::vector<tensor>& sources,
                                 std::size_t count, std::size_t threads) {
  attack::attack_config cfg;
  cfg.goal = attack::attack_goal::targeted;
  cfg.target_class = data::get_scenario(id).target_class;
  cfg.epsilon = 0.1f;
  cfg.steps = 10;
  // Gradients mutate layer caches, so each worker attacks with its own
  // copy of the model.
  std::vector<std::unique_ptr<nn::model>> models;
  for (std::size_t w = 0; w < threads; ++w) models.push_back(load_model(id));

  std::vector<tensor> out;
  std::size_t cursor = 0;
  while (out.size() < count && cursor < sources.size()) {
    const std::size_t take =
        std::min(sources.size() - cursor, count - out.size() + threads);
    std::vector<std::optional<tensor>> adv(take);
    parallel::parallel_for(take, threads, [&](std::size_t i, std::size_t w) {
      auto atk = attack::make_attack(attack::attack_kind::pgd, cfg);
      nn::model& m = *models[w];
      const tensor& x = sources[cursor + i];
      auto r = atk->run(m, x, m.predict_one(x));
      if (r.success) adv[i] = std::move(r.adversarial);
    });
    for (auto& a : adv) {
      if (a.has_value() && out.size() < count) out.push_back(std::move(*a));
    }
    cursor += take;
  }
  return out;
}

core::detector fit_detector(nn::model& m, const core::detector_config& cfg,
                            const data::dataset& pool, std::size_t per_class,
                            std::uint64_t noise_seed, std::size_t threads) {
  hpc::sim_backend monitor(m, {}, hpc::noise_model{}, noise_seed);
  const auto tpl = core::collect_template(monitor, cfg, pool, per_class,
                                          noise_seed, threads);
  return core::detector::fit(tpl, cfg, threads);
}

core::detector_config online_config() {
  core::detector_config cfg;
  cfg.events = {hpc::hpc_event::cache_misses, hpc::hpc_event::llc_load_misses};
  cfg.repeats = 10;
  return cfg;
}

void golden_check(result& r) {
  // Four fixed inputs per scenario from a draw no workload uses.
  constexpr std::uint64_t kGoldenDraw = 0x60d;
  digest d;
  for (auto id : {data::scenario_id::s1, data::scenario_id::s2,
                  data::scenario_id::s3}) {
    auto m = load_model(id);
    const auto inputs = make_inputs(id, 1, kGoldenDraw);
    hpc::sim_backend sim(*m);
    for (std::size_t i = 0; i < 4; ++i) {
      std::size_t predicted = 0;
      d.counts(sim.profile(nn::single_example(inputs.images, i), predicted));
      d.pod(predicted);
    }
  }
  r.note("digest.golden_uarch: " + d.hex());
  r.check(d.hex() == kGoldenUarchDigest,
          "golden simulated-statistics digest " + d.hex() + " != " +
              kGoldenUarchDigest);
}

}  // namespace perfbench
