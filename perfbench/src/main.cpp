// Repository benchmark program.
//
//   advh_perfbench --workload <screen|calibrate|serve|fleet> --seed <n>
//                  --seconds <s> --trace <0|1>
//
// Runs one workload from the repository root (the scenario models load
// from advh_models/), prints a human-readable report and, as the last
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). Exits 1 when a correctness check failed,
// 2 on a usage or set-up error, 3 when built without optimisation or
// with a sanitizer (timings from such a build are refused).
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/parallel.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct metric_spec {
  const char* name;
  const char* unit;
};

// BENCHMARK.json lists the same names; a traced run reports 0 for the
// metrics of layers its workload does not pass through. CPU time per
// operation cannot see a change that serialises parallel work;
// parallel_speedup (see parallel_meter) can.
constexpr metric_spec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cpu_ms_per_op", "ms"},
    {"parallel_speedup", "ratio"},
};

// Absolute wall-clock figures of the same timed phase. They are printed
// for every run but kept out of the JSON line: on a shared virtual
// machine they follow the CPU time the hypervisor steals from the guest
// (a run at 20% steal reads ~1.5x slower), so their run-to-run spread is
// wider than any bound the benchmark could hold them to. CPU time
// excludes steal.
constexpr metric_spec kWallClock[] = {
    {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
};

constexpr metric_spec kPerLayer[] = {
    {"nn.forward_ms.S1", "ms"},
    {"nn.forward_ms.S2", "ms"},
    {"nn.forward_ms.S3", "ms"},
    {"nn.forward_ms.conv2d", "ms"},
    {"nn.forward_ms.batchnorm2d", "ms"},
    {"nn.forward_ms.relu", "ms"},
    {"nn.forward_ms.sequential", "ms"},
    {"nn.forward_ms.residual_add", "ms"},
    {"nn.forward_ms.concat", "ms"},
    {"nn.forward_ms.global_avgpool", "ms"},
    {"nn.forward_ms.linear", "ms"},
    {"nn.active_inputs", "count"},
    {"nn.trace_kb", "KB"},
    {"uarch.replay_ms.S1", "ms"},
    {"uarch.replay_ms.S2", "ms"},
    {"uarch.replay_ms.S3", "ms"},
    {"uarch.llc_refs", "count"},
    {"uarch.llc_misses", "count"},
    {"uarch.branch_misses", "count"},
    {"uarch.instructions", "count"},
    {"uarch.ns_per_llc_ref", "ns"},
    {"hpc.noise_us", "us"},
    {"hpc.measure_ms", "ms"},
    {"hpc.batch_efficiency", "ratio"},
    {"hpc.repeats_per_verdict", "count"},
    {"core.score_us", "us"},
    {"core.collect_template_s", "s"},
    {"core.fit_s", "s"},
    {"core.fit_efficiency", "ratio"},
    {"gmm.fit_bic_ms.p50", "ms"},
    {"gmm.fit_bic_ms.max", "ms"},
    {"gmm.components", "count"},
    {"serve.submit_us", "us"},
    {"serve.round_ms", "ms"},
    {"serve.round_self_ms", "ms"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.tail", "ms"},
    {"serve.batch_fill", "ratio"},
    {"serve.generator_lag_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.shed_deadline", "count"},
    {"serve.deadline_misses", "count"},
    {"serve.max_rung", "count"},
    {"track.observe_us", "us"},
    {"track.bytes_used", "bytes"},
    {"track.escalated", "count"},
    {"track.bans", "count"},
    {"fleet.tick_ms.p50", "ms"},
    {"fleet.tick_ms.tail", "ms"},
    {"fleet.tick_self_ms", "ms"},
    {"fleet.messages_sent", "count"},
    {"fleet.view_changes", "count"},
    {"fleet.checkpoints_published", "count"},
    {"fleet.speculative_routes", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_pct", "%"},
};

int usage(const std::string& why) {
  std::cerr << "advh_perfbench: " << why
            << "\nusage: advh_perfbench --workload <screen|calibrate|serve|"
               "fleet> --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

template <std::size_t N>
std::string metrics_json(const std::map<std::string, double>& values,
                         const metric_spec (&specs)[N]) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(specs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    os << (i ? ", " : "") << '"' << specs[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << specs[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

template <std::size_t N>
void print_table(const std::map<std::string, double>& values,
                 const metric_spec (&specs)[N]) {
  for (const auto& s : specs) {
    const auto it = values.find(s.name);
    std::cout << "  " << std::left << std::setw(30) << s.name << std::right
              << std::setw(16) << std::setprecision(6)
              << (it == values.end() ? 0.0 : it->second) << " " << s.unit
              << "\n";
  }
}

}  // namespace

namespace perfbench {

void finish_trace(result& r, const options& o,
                  const std::vector<trace::span>& spans,
                  const std::vector<double>& self,
                  const std::map<std::string, split_stats>& by_label,
                  const measure_totals& totals, double untraced_ops_per_s,
                  double traced_ops_per_s) {
  layer_metrics(spans, self, by_label, totals, r);
  r.layer["trace.coverage"] = trace::coverage(spans);
  r.layer["trace.overhead_pct"] =
      traced_ops_per_s > 0.0
          ? 100.0 * (untraced_ops_per_s / traced_ops_per_s - 1.0)
          : 0.0;
  r.note("trace: " + std::to_string(spans.size()) + " spans; untraced " +
         std::to_string(untraced_ops_per_s) + " ops/s vs traced " +
         std::to_string(traced_ops_per_s) + " ops/s");
  r.check(r.layer["trace.coverage"] >= 0.95,
          "span coverage of traced wall time below 95%");
  const std::string path = ".bench_build/perfbench-spans-" + o.workload +
                           "-" + std::to_string(o.seed) + ".tsv";
  trace::write_tsv(spans, path);
  r.note("trace: spans written to " + path);
  trace::clear();
}

}  // namespace perfbench

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  (void)argc;
  (void)argv;
  std::cerr << "advh_perfbench: refusing to time an unoptimised or "
               "sanitizer build\n";
  return 3;
#else
  options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        o.trace = val == "1";
      } else {
        return usage("unknown flag " + key);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + key);
    }
  }
  if (argc % 2 == 0 || !have_workload) return usage("missing arguments");
  if (!(o.seconds > 0.0) || o.seconds > 120.0) {
    return usage("--seconds must be in (0, 120]");
  }
  o.threads = advh::parallel::hardware_threads();

  result r;
  try {
    if (o.workload == "screen") {
      r = run_screen(o);
    } else if (o.workload == "calibrate") {
      r = run_calibrate(o);
    } else if (o.workload == "serve") {
      r = run_serve(o);
    } else if (o.workload == "fleet") {
      r = run_fleet(o);
    } else {
      return usage("unknown workload " + o.workload);
    }
    r.e2e["peak_rss_mb"] = peak_rss_mb();
    golden_check(r);
  } catch (const std::exception& e) {
    std::cerr << "advh_perfbench: " << o.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }

  std::cout << "workload " << o.workload << " seed " << o.seed << " seconds "
            << o.seconds << " trace " << (o.trace ? 1 : 0) << " threads "
            << o.threads << "\n";
  for (const auto& line : host_fingerprint()) std::cout << line << "\n";
  for (const auto& line : r.report) std::cout << line << "\n";
  std::cout << "end-to-end metrics (gated):\n";
  print_table(r.e2e, kEndToEnd);
  std::cout << "wall-clock metrics (untraced timed phase, reported only):\n";
  print_table(r.e2e, kWallClock);
  if (o.trace) {
    std::cout << "per-layer metrics (traced run):\n";
    print_table(r.layer, kPerLayer);
  }
  std::cout << "operations: attempted " << r.attempted << " failed "
            << r.failed << "\n";
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": "
            << (o.trace ? metrics_json(r.layer, kPerLayer)
                        : metrics_json(r.e2e, kEndToEnd))
            << "}" << std::endl;
  return r.correct ? 0 : 1;
#endif
}
