// fleet: fleet::fleet_sim on S1 with 3 replicas, 3 controllers and
// replication 2, driven through a seeded arrival schedule with one
// scheduled replica crash and recovery over a fixed horizon. The sim is a
// discrete-event loop on the virtual clock, so every replica runs a
// serve::detection_service (with a query_tracker) on simulated costs. A
// campaign is deterministic for a seed: every timed campaign must
// reproduce the 1-thread reference journal byte for byte.
#include <filesystem>
#include <unistd.h>

#include "common/rng.hpp"
#include "fleet/sim.hpp"
#include "hpc/sim_backend.hpp"
#include "nn/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace advh;

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kHorizon = 160;     // ticks per campaign
constexpr std::uint64_t kLastArrival = 120;
constexpr std::uint64_t kSegment = 8;       // ticks per timed run() call
constexpr std::uint64_t kCrashTick = 40;
constexpr std::uint64_t kRecoverTick = 80;
constexpr std::uint64_t kArrivalEvery = 2;  // ticks between arrivals
// Each replica probes one canary per class every kCanaryInterval ticks;
// with the simulated service cost (~2.2 ms of virtual time per R = 10,
// two-event request on a 1 ms tick) this keeps every replica below
// saturation even while one of them is down.
constexpr std::uint64_t kCanaryInterval = 40;
constexpr std::size_t kTemplateRows = 20;
constexpr std::size_t kCanariesPerClass = 2;

// Ticks without arrivals: while ownership moves after the crash is
// detected and again after the recovery, the new owners wait out the old
// owners' leases and abstain fail-closed by design. Requests sent right
// after the crash are kept: they exercise speculative re-routing to the
// secondary owner. The windows fit the failure-detection geometry set in
// set_up (failure timeout 8, leases 5 and 4 ticks). A change that
// lengthens failover makes requests outside them abstain, which counts as
// failed operations; one that shortens it does not show here.
bool quiet(std::uint64_t t) {
  return (t > kCrashTick + 2 && t < kCrashTick + 18) ||
         (t >= kRecoverTick && t < kRecoverTick + 12);
}

struct fleet_state {
  std::unique_ptr<nn::model> s1;
  std::optional<core::detector> det;
  std::vector<std::pair<std::size_t, tensor>> canaries;
  std::vector<fleet::arrival> arrivals;
  std::size_t crash_replica = 0;
  std::uint64_t noise_seed = 0;
  fleet::fleet_config cfg;
};

fleet_state set_up(const options& o) {
  using data::scenario_id;
  fleet_state st;
  st.s1 = load_model(scenario_id::s1);
  st.det = fit_detector(*st.s1, online_config(),
                        make_inputs(scenario_id::s1, kTemplateRows + 10,
                                    mix(o.seed, 1)),
                        kTemplateRows, mix(o.seed, 2), o.threads);
  st.noise_seed = mix(o.seed, 3);

  const auto canary_pool = make_inputs(scenario_id::s1, 4, mix(o.seed, 4));
  const auto predicted = st.s1->predict(canary_pool.images);
  std::vector<std::size_t> taken(canary_pool.num_classes, 0);
  for (std::size_t i = 0; i < canary_pool.size(); ++i) {
    const std::size_t cls = canary_pool.labels[i];
    if (predicted[i] != cls || taken[cls] == kCanariesPerClass) continue;
    ++taken[cls];
    st.canaries.emplace_back(cls, nn::single_example(canary_pool.images, i));
  }

  const auto pool = make_inputs(scenario_id::s1, 20, mix(o.seed, 5));
  // A fixed cadence keeps campaigns of different seeds comparable; the
  // seed picks the clients (and with them the owning replicas), the
  // inputs and the crashed replica.
  rng gen(mix(o.seed, 6));
  const auto pick = [&] {
    return nn::single_example(
        pool.images, static_cast<std::size_t>(gen.uniform_index(pool.size())));
  };
  for (std::uint64_t t = 1; t <= kLastArrival; t += kArrivalEvery) {
    if (quiet(t)) continue;
    st.arrivals.push_back({t, 1000 + gen.uniform_index(1u << 30), pick()});
  }

  st.crash_replica =
      static_cast<std::size_t>(gen.uniform_index(st.cfg.replicas));
  // Fast failure detection (the fleet failover bench's geometry; it keeps
  // lease + max_delay < failure_timeout), so a crashed primary's ranges
  // are served by their secondary instead of timing out.
  auto& c = st.cfg;
  c.hb_interval = 1;
  c.failure_timeout = 8;
  c.lease = 5;
  c.ctl_failure_timeout = 8;
  c.ctl_lease = 4;
  c.request_timeout = 6;
  c.speculate_after = 3;
  c.checkpoint_interval = 10;
  c.max_delay = 1;
  c.retransmit = 2;
  c.canary_interval = kCanaryInterval;
  return st;
}

struct campaign {
  std::string journal;
  fleet::fleet_stats stats;
  std::vector<double> segment_ms;  ///< one entry per run() call
  double wall_s = 0.0;
};

// One campaign from boot to horizon, in kSegment-tick run() calls (one
// tick per call in the traced run, which times each tick).
campaign run_campaign(const fleet_state& st, std::size_t threads,
                      const std::string& dir, bool traced,
                      measure_totals& totals,
                      std::vector<std::shared_ptr<call_log>>* logs,
                      parallel_meter& meter) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  fleet::fleet_config cfg = st.cfg;
  cfg.serve.threads = threads;
  fleet::fleet_deps deps;
  deps.base = &*st.det;
  deps.dir = dir;
  deps.canary_pool = &st.canaries;
  deps.make_monitor =
      [&](std::size_t idx) -> std::unique_ptr<hpc::hpc_monitor> {
    const std::uint64_t seed = mix(st.noise_seed, idx);
    if (!traced) {
      return std::make_unique<hpc::sim_backend>(
          *st.s1, uarch::trace_gen_config{}, hpc::noise_model{}, seed);
    }
    std::shared_ptr<call_log> log;
    if (logs != nullptr) logs->push_back(log = std::make_shared<call_log>());
    return std::make_unique<timing_monitor>(*st.s1, seed, totals,
                                            std::move(log));
  };
  fleet::fault_plan plan(
      {{kCrashTick, fleet::fault_kind::crash, st.crash_replica},
       {kRecoverTick, fleet::fault_kind::recover, st.crash_replica}});

  campaign c;
  const auto t0 = steady::now();
  {
    std::optional<fleet::fleet_sim> sim;
    {
      trace::scope window("bench.fleet");
      trace::scope s("fleet.boot");
      meter.run(threads, [&] { sim.emplace(cfg, deps, plan); });
    }
    const std::uint64_t step = traced ? 1 : kSegment;
    std::size_t next = 0;
    for (std::uint64_t t = 0; t < kHorizon; t += step) {
      trace::scope window("bench.fleet");
      std::vector<fleet::arrival> batch;
      while (next < st.arrivals.size() && st.arrivals[next].tick < t + step) {
        batch.push_back(st.arrivals[next++]);
      }
      const auto s0 = steady::now();
      {
        trace::scope s("fleet.tick");
        meter.run(threads, [&] { sim->run(std::move(batch), step); });
      }
      c.segment_ms.push_back(since(s0) * 1e3);
    }
    c.journal = sim->log().text();
    c.stats = sim->stats();
  }
  c.wall_s = since(t0);
  fs::remove_all(dir);
  return c;
}

std::uint64_t served(const fleet::fleet_stats& s) {
  return s.outcome(fleet::req_outcome::served_clean) +
         s.outcome(fleet::req_outcome::served_flagged);
}

struct phase {
  double seconds = 0.0;
  std::uint64_t served = 0;
  std::uint64_t ticks = 0;
  std::vector<double> segment_ms;
  std::vector<double> campaign_s;
  parallel_meter meter;
};

phase run_phase(const fleet_state& st, const options& o, double seconds,
                bool traced, const campaign& ref, const std::string& dir,
                result& r, measure_totals& totals,
                std::vector<std::shared_ptr<call_log>>& logs) {
  phase p;
  const auto t0 = steady::now();
  for (std::size_t n = 0; since(t0) < seconds; ++n) {
    campaign c = run_campaign(st, o.threads, dir, traced, totals,
                              traced && n == 0 ? &logs : nullptr, p.meter);
    r.attempted += c.stats.submitted;
    r.failed += c.stats.submitted - served(c.stats);
    r.check(c.stats.split_brain_serves == 0,
            "fleet: " + std::to_string(c.stats.split_brain_serves) +
                " split-brain serves");
    r.check(c.journal == ref.journal,
            "fleet: journal differs from the 1-thread reference");
    p.served += served(c.stats);
    p.campaign_s.push_back(c.wall_s);
    p.ticks += kHorizon;
    p.segment_ms.insert(p.segment_ms.end(), c.segment_ms.begin(),
                        c.segment_ms.end());
  }
  p.seconds = since(t0);
  return p;
}

}  // namespace

result run_fleet(const options& o) {
  result r;
  const fleet_state st = timed_setup(r, [&] { return set_up(o); });
  const std::string dir =
      ".bench_build/perfbench-fleet-" + std::to_string(getpid());

  measure_totals totals;
  parallel_meter unused;
  const campaign ref =
      run_campaign(st, 1, dir, false, totals, nullptr, unused);
  digest dj;
  dj.bytes(ref.journal.data(), ref.journal.size());
  r.note("digest.fleet_journal: " + dj.hex());
  r.note("fleet.served_ratio: " +
         std::to_string(double(served(ref.stats)) /
                        double(ref.stats.submitted)) +
         " ratio (" + std::to_string(served(ref.stats)) + " of " +
         std::to_string(ref.stats.submitted) + " requests served)");

  {
    std::string outcomes = "fleet.outcomes:";
    for (std::size_t i = 0; i < ref.stats.by_outcome.size(); ++i) {
      outcomes += std::string(" ") +
                  fleet::to_string(static_cast<fleet::req_outcome>(i)) + "=" +
                  std::to_string(ref.stats.by_outcome[i]);
    }
    r.note(outcomes);
  }
  std::vector<std::shared_ptr<call_log>> logs;
  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  const phase plain =
      run_phase(st, o, untraced_s, false, ref, dir, r, totals, logs);
  // Every campaign serves the same requests; the rate of the median
  // campaign moves less with a contended stretch of the run.
  r.e2e["ops_per_s"] = double(served(ref.stats)) / median(plain.campaign_s);
  r.e2e["cpu_ms_per_op"] = plain.meter.cpu_s() * 1e3 / double(plain.served);
  r.e2e["parallel_speedup"] = plain.meter.speedup();
  latency_metrics(r, plain.segment_ms,
                  "one fleet_sim::run call of " + std::to_string(kSegment) +
                      " ticks");
  r.note("fleet.verdicts_per_s: " + std::to_string(r.e2e["ops_per_s"]) +
         " 1/s");
  r.note("fleet.ticks_per_s: " +
         std::to_string(double(kHorizon) / median(plain.campaign_s)) + " 1/s");

  if (o.trace) {
    trace::enable(true);
    const phase traced =
        run_phase(st, o, o.seconds / 2, true, ref, dir, r, totals, logs);
    std::map<std::string, split_stats> by_label;
    for (const auto& log : logs) {
      split_oracle(*log, "S1", nullptr, o.threads, by_label["S1"], r);
      decorator_oracle(*log, r);
    }
    trace::enable(false);
    const auto spans = trace::collect();
    const auto self = trace::self_ms(spans);
    std::vector<double> tick_ms, tick_self_ms;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "fleet.tick") {
        tick_ms.push_back(spans[i].ms());
        tick_self_ms.push_back(self[i]);
      }
    }
    r.layer["fleet.tick_ms.p50"] = median(tick_ms);
    r.layer["fleet.tick_ms.tail"] = tail(tick_ms).value;
    r.layer["fleet.tick_self_ms"] = median(tick_self_ms);
    const auto& s = ref.stats;
    r.layer["fleet.messages_sent"] = double(s.net.sent);
    r.layer["fleet.view_changes"] = double(s.view_changes);
    r.layer["fleet.checkpoints_published"] = double(s.checkpoints_published);
    r.layer["fleet.speculative_routes"] = double(s.speculative_routes);
    finish_trace(r, o, spans, self, by_label, totals,
                 double(plain.ticks) / plain.seconds,
                 double(traced.ticks) / traced.seconds);
  }
  return r;
}

}  // namespace perfbench
