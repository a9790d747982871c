// serve: open-loop traffic into a wall-clock serve::detection_service
// (steady_clock_face) on S1 with a track::query_tracker attached. A
// seeded Poisson schedule offers a few fixed rates in turn, the last one
// four times the service's capacity. Traffic mix, canaries and service
// configuration are the repository's overload profile
// (bench/bench_overload_shedding.cpp); on top of it two clients per rate
// replay near-duplicate probes, which the tracker escalates and bans.
// Admission, the queue, the degradation ladder (R drops from 10 to 8, 5
// and 3 as the queue fills) and tracker fingerprinting are all on the
// blocking path here.
//
// Threads: the load generator, plus one service thread whose measurement
// batches run at nproc - 1 workers (the service thread is worker 0).
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/rng.hpp"
#include "hpc/sim_backend.hpp"
#include "nn/trainer.hpp"
#include "serve/service.hpp"
#include "track/tracker.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace advh;
using serve::priority;

namespace {

// The overload profile: 70% interactive requests with 25 ms deadlines,
// 30% batch with 60 ms, and a full-fidelity canary ahead of every 25th
// arrival.
constexpr double kInteractiveShare = 0.7;
constexpr double kInteractiveDeadlineMs = 25.0;
constexpr double kBatchDeadlineMs = 60.0;
constexpr std::size_t kCanaryEvery = 25;

// The overload profile's service configuration, tuned to its traffic:
// queue 24, batches of 4, batch backpressure at a third of the queue, and
// a ladder whose degraded rungs keep high fidelity (R = 8, 5, 3, the last
// also shedding events). The profile runs on the virtual clock, where a
// request's cost estimate is its service time. On the wall clock the
// service takes queue wait plus service time as the cost (an upper bound,
// as it documents), which changes two settings:
//   * admission margin 2 (the library default) instead of 3: with the
//     upper-bound estimate, 3 rejected requests at every offered rate,
//     20 requests/s included, so no rate would be served in full;
//   * the rungs engage when a round starts with two, three and four
//     requests queued and release one request below that: admission keeps
//     the queue within about one batch, so the profile's engage points
//     (occupancy 0.15, 0.55, 0.85 of 24) would never be reached.
constexpr double kOneRequest = 1.0 / 24.0;

serve::serve_config service_config(std::size_t threads) {
  using std::chrono::milliseconds;
  serve::serve_config cfg;
  cfg.queue_capacity = 24;
  cfg.batch_size = 4;
  cfg.threads = threads;
  cfg.default_deadline = milliseconds(25);
  cfg.admission_margin = 2.0;
  cfg.batch_admit_occupancy = 1.0 / 3.0;
  cfg.release_hysteresis = kOneRequest / 2;
  cfg.ladder = {
      {0.0, 10, hpc::measure_budget::unlimited, true, false},
      {2 * kOneRequest, 8, 3, false, false},
      {3 * kOneRequest, 5, 2, false, false},
      {4 * kOneRequest, 3, 1, false, true},
  };
  return cfg;
}

// Offered rates (requests/s), frozen from the service's measured capacity
// on the reference host (4-core Xeon, three measurement workers): about
// 400 verdicts/s within deadline under overload. Admission rejected a
// request now and then from 60 requests/s down to 40 when the host was
// loaded; at 10, 20 and 30 it accepted every request over the recorded
// seeds. The last rate is the overload profile's factor of four beyond
// capacity. The rates share the schedule equally. Latency is reported at
// kReferenceRate, the busiest fully served rate; goodput (ops_per_s) at
// the overload rate.
constexpr double kRates[] = {10.0, 20.0, 30.0, 1600.0};
constexpr std::size_t kNumRates = std::size(kRates);
constexpr std::size_t kReferenceRate = 2;
constexpr std::size_t kOverloadRate = kNumRates - 1;
// Share of --seconds for the rate schedule; the rest runs full service
// rounds back to back for parallel_speedup.
constexpr double kScheduleShare = 0.8;
// A rate meets the latency limit when its tail stays within the
// interactive deadline.
constexpr double kLatencyLimitMs = kInteractiveDeadlineMs;
// Probe clients per rate. Each sends up to twice the tracker's ban
// threshold in near-duplicate queries (probes take at most a quarter of a
// rate's arrivals), so the tracker elevates and bans them at every rate
// but the lowest.
constexpr std::size_t kProbeClients = 2;
const std::size_t kProbesPerClient =
    2 * static_cast<std::size_t>(std::ceil(track::track_config{}.ban_hits));
constexpr std::size_t kPoolPerClass = 25;
constexpr std::size_t kTemplateRows = 20;

double rate_span_s(const options& o) {
  return o.seconds * kScheduleShare / double(kNumRates);
}

struct arrival {
  double at_s = 0.0;
  std::uint64_t client = 0;
  priority prio = priority::interactive;
  double deadline_ms = kInteractiveDeadlineMs;
  bool probe = false;
  tensor input;
  std::size_t predicted = 0;  ///< reference prediction of `input`
};

struct serve_state {
  std::unique_ptr<nn::model> s1;
  std::optional<core::detector> det;
  std::uint64_t noise_seed = 0;
  std::vector<tensor> pool;
  std::vector<std::size_t> pool_predicted;
  std::vector<std::vector<arrival>> schedules;  ///< one per rate
};

// Near-duplicate probe: the attacker's base input with four pixels
// nudged, so most fingerprint windows repeat.
tensor probe_of(const tensor& base, rng& gen) {
  tensor x = base;
  for (int k = 0; k < 4; ++k) {
    const auto i = static_cast<std::size_t>(gen.uniform_index(x.numel()));
    const float step = gen.bernoulli(0.5) ? 0.01f : -0.01f;
    x.data()[i] = std::clamp(x.data()[i] + step, 0.0f, 1.0f);
  }
  return x;
}

serve_state set_up(const options& o) {
  using data::scenario_id;
  serve_state st;
  st.s1 = load_model(scenario_id::s1);
  st.det = fit_detector(*st.s1, online_config(),
                        make_inputs(scenario_id::s1, kTemplateRows + 10,
                                    mix(o.seed, 1)),
                        kTemplateRows, mix(o.seed, 2), o.threads);
  st.noise_seed = mix(o.seed, 3);
  const auto pool = make_inputs(scenario_id::s1, kPoolPerClass, mix(o.seed, 4));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    st.pool.push_back(nn::single_example(pool.images, i));
  }
  st.pool_predicted = st.s1->predict(pool.images);

  rng gen(mix(o.seed, 5));
  const auto pick = [&] {
    return static_cast<std::size_t>(gen.uniform_index(st.pool.size()));
  };
  std::uint64_t next_client = 1000;
  for (std::size_t k = 0; k < kNumRates; ++k) {
    std::vector<arrival> sched;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - gen.uniform()) / kRates[k];
      if (t >= rate_span_s(o)) break;
      if (sched.size() % (kCanaryEvery + 1) == 0) {
        // The canary rides at the arrival's time, ahead of it.
        arrival c;
        c.at_s = t;
        c.prio = priority::canary;
        c.input = st.pool.front();
        c.predicted = st.pool_predicted.front();
        sched.push_back(std::move(c));
      }
      arrival a;
      a.at_s = t;
      if (!gen.bernoulli(kInteractiveShare)) {
        a.prio = priority::batch;
        a.deadline_ms = kBatchDeadlineMs;
      }
      // Independent users: one query per identity.
      a.client = next_client++;
      const std::size_t i = pick();
      a.input = st.pool[i];
      a.predicted = st.pool_predicted[i];
      sched.push_back(std::move(a));
    }
    // Fresh attacker identities and base inputs per rate; their probes
    // take the place of seeded non-canary arrivals.
    std::vector<std::size_t> slots;
    for (std::size_t i = 0; i < sched.size(); ++i) {
      if (sched[i].prio != priority::canary) slots.push_back(i);
    }
    gen.shuffle(slots);
    const std::size_t probes =
        std::min(kProbeClients * kProbesPerClient, slots.size() / 4);
    std::vector<std::size_t> bases;
    for (std::size_t c = 0; c < kProbeClients; ++c) bases.push_back(pick());
    for (std::size_t p = 0; p < probes; ++p) {
      arrival& a = sched[slots[p]];
      const std::size_t c = p % kProbeClients;
      a.probe = true;
      a.client = 10 + 10 * k + c;
      a.input = probe_of(st.pool[bases[c]], gen);
      a.predicted = st.s1->predict_one(a.input);
    }
    st.schedules.push_back(std::move(sched));
  }
  return st;
}

struct outcome {
  bool done = false;
  serve::admit_status admit = serve::admit_status::admitted;
  serve::response resp;
  double due_ms = 0.0;     ///< since rate start
  double submit_ms = 0.0;
  double round_start_ms = 0.0;
  double done_ms = 0.0;
};

struct rate_result {
  double offered = 0.0;
  double span_s = 0.0;       ///< length of the rate's schedule
  std::size_t submitted = 0;
  std::size_t good = 0;      ///< served within deadline
  std::size_t failed = 0;    ///< see run_phase
  std::size_t unserved = 0;  ///< rejected, shed or late, not failed
  std::size_t probe_bans = 0;
  std::size_t benign_bans = 0;
  std::size_t wrong = 0;     ///< verdict inconsistent with the reference
  double repeats = 0.0;      ///< summed R of the served requests
  std::size_t end_depth = 0; ///< queue depth when arrivals stopped
  std::vector<double> latency_ms;
  std::vector<double> good_due_s;  ///< due times of the good requests
  std::vector<double> lag_ms;
  std::vector<double> wait_ms;
  serve::serve_stats stats;
  track::track_stats tstats;
  std::size_t track_bytes = 0;
  bool meets_limit = false;
};

rate_result run_rate(const serve_state& st, const options& o, std::size_t k,
                     bool traced, measure_totals& totals,
                     std::vector<std::shared_ptr<call_log>>& logs) {
  const auto& sched = st.schedules[k];
  serve::steady_clock_face clock;
  std::unique_ptr<hpc::hpc_monitor> mon;
  if (traced) {
    logs.push_back(std::make_shared<call_log>());
    mon = std::make_unique<timing_monitor>(*st.s1, st.noise_seed, totals,
                                           logs.back());
  } else {
    mon = std::make_unique<hpc::sim_backend>(*st.s1, uarch::trace_gen_config{},
                                             hpc::noise_model{}, st.noise_seed);
  }
  const serve::serve_config cfg =
      service_config(std::max<std::size_t>(1, o.threads - 1));
  serve::detection_service svc(*st.det, *mon, clock, cfg);
  track::query_tracker tracker(clock, track::track_config{});
  svc.attach_tracker(tracker);

  std::vector<outcome> out(sched.size());
  std::mutex mutex;  // guards the counters and `generating`
  std::condition_variable cv;
  std::size_t admitted = 0;
  std::size_t completed = 0;
  bool generating = true;

  const auto start = steady::now();
  const auto ms_since_start = [&] { return since(start) * 1e3; };

  // The worker keeps its responses to itself; they are matched to their
  // arrivals by request id after both threads are done.
  struct completion {
    serve::response resp;
    double round_start_ms = 0.0;
    double done_ms = 0.0;
  };
  std::vector<completion> done;
  std::thread worker([&] {
    std::unique_lock<std::mutex> lock(mutex);
    while (generating || completed < admitted) {
      lock.unlock();
      std::vector<serve::response> rs;
      double round_start = 0.0;
      {
        trace::scope window("bench.serve_worker");
        round_start = ms_since_start();
        trace::scope s("serve.service_batch");
        rs = svc.service_batch();
      }
      const double now = ms_since_start();
      for (auto& resp : rs) done.push_back({std::move(resp), round_start, now});
      lock.lock();
      completed += rs.size();
      if (rs.empty()) {
        trace::scope idle("idle.worker");
        cv.wait_for(lock, std::chrono::milliseconds(1));
      }
    }
  });

  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    trace::scope window("bench.serve_generator");
    const auto due = start + std::chrono::duration_cast<steady::duration>(
                                 std::chrono::duration<double>(sched[i].at_s));
    {
      trace::scope idle("idle.generator");
      std::this_thread::sleep_until(due);
    }
    out[i].due_ms = sched[i].at_s * 1e3;
    out[i].submit_ms = ms_since_start();
    serve::submit_result res;
    {
      trace::scope s("serve.submit", i);
      std::optional<serve::clock_duration> deadline;
      if (sched[i].prio != priority::canary) {
        deadline = std::chrono::microseconds(
            static_cast<std::int64_t>(sched[i].deadline_ms * 1e3));
      }
      res = svc.submit(sched[i].input, sched[i].prio, deadline,
                       sched[i].client);
    }
    out[i].admit = res.status;
    if (res.admitted()) {
      by_id[res.id] = i;
      std::lock_guard<std::mutex> lock(mutex);
      ++admitted;
      cv.notify_one();
    }
  }
  const std::size_t end_depth = svc.queue_depth();
  {
    std::lock_guard<std::mutex> lock(mutex);
    generating = false;
  }
  cv.notify_one();
  worker.join();
  for (auto& c : done) {
    outcome& oc = out[by_id.at(c.resp.id)];
    oc.resp = std::move(c.resp);
    oc.done = true;
    oc.round_start_ms = c.round_start_ms;
    oc.done_ms = c.done_ms;
  }

  rate_result rr;
  rr.offered = kRates[k];
  rr.span_s = rate_span_s(o);
  rr.submitted = sched.size();
  rr.end_depth = end_depth;
  rr.stats = svc.stats();
  rr.tstats = tracker.stats();
  rr.track_bytes = tracker.bytes_used();
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const outcome& oc = out[i];
    const arrival& a = sched[i];
    rr.lag_ms.push_back(oc.submit_ms - oc.due_ms);
    if (oc.admit == serve::admit_status::rejected_banned) {
      (a.probe ? rr.probe_bans : rr.benign_bans) += 1;
      if (!a.probe) ++rr.failed;
      continue;
    }
    if (oc.admit != serve::admit_status::admitted) {
      ++rr.unserved;
      continue;
    }
    if (!oc.done) {
      ++rr.failed;
      continue;
    }
    rr.wait_ms.push_back(oc.round_start_ms - oc.submit_ms);
    const auto& resp = oc.resp;
    if (resp.outcome == serve::response::kind::failed_backend) {
      ++rr.failed;
      continue;
    }
    if (resp.outcome != serve::response::kind::served) {
      ++rr.unserved;
      continue;
    }
    if (resp.v.predicted != a.predicted || resp.v.abstained) {
      ++rr.wrong;
      ++rr.failed;
      continue;
    }
    if (resp.deadline_missed) {
      ++rr.unserved;
      continue;
    }
    rr.latency_ms.push_back(oc.done_ms - oc.due_ms);
    rr.good_due_s.push_back(a.at_s);
    rr.repeats += double(resp.repeats_used);
    ++rr.good;
  }
  const tail_stat t = tail(rr.latency_ms);
  const double fail_ratio =
      rr.submitted > 0
          ? double(rr.failed + rr.unserved) / double(rr.submitted)
          : 0.0;
  rr.meets_limit = !rr.latency_ms.empty() && t.value <= kLatencyLimitMs &&
                   fail_ratio <= 0.01 && rr.end_depth <= 2 * cfg.batch_size;
  return rr;
}

struct phase {
  std::vector<rate_result> rates;
  double cpu_s = 0.0;
  std::size_t served = 0;
};

phase run_phase(const serve_state& st, const options& o, bool traced,
                result& r, measure_totals& totals,
                std::vector<std::shared_ptr<call_log>>& logs) {
  phase p;
  const double cpu0 = process_cpu_s();
  for (std::size_t k = 0; k < kNumRates; ++k) {
    p.rates.push_back(run_rate(st, o, k, traced, totals, logs));
    const rate_result& rr = p.rates.back();
    p.served += rr.stats.served;
    r.check(rr.wrong == 0, "serve: " + std::to_string(rr.wrong) +
                               " served verdicts disagree with the reference "
                               "prediction or abstained");
    r.check(rr.benign_bans == 0, "serve: a benign client was banned");
    // Every request is an operation. It fails when it was lost, its
    // verdict is wrong or abstained, the backend failed or a benign client
    // was banned. Rejections, sheds and late verdicts are the wall-clock
    // service's answer to load and host stalls: they are counted per rate
    // (unserved) and decide max_rate_rps, but are not failures.
    r.attempted += rr.submitted;
    r.failed += rr.failed;
  }
  p.cpu_s = process_cpu_s() - cpu0;
  return p;
}

// Full service rounds back to back, on pool inputs submitted anonymously
// and without a deadline, so admission and the tracker pass them straight
// to the queue: the rounds parallel_speedup meters. Every verdict must
// match its input's reference prediction.
parallel_meter full_rounds(const serve_state& st, const options& o,
                           double seconds, result& r) {
  serve::steady_clock_face clock;
  hpc::sim_backend mon(*st.s1, uarch::trace_gen_config{}, hpc::noise_model{},
                       st.noise_seed);
  const serve::serve_config cfg =
      service_config(std::max<std::size_t>(1, o.threads - 1));
  serve::detection_service svc(*st.det, mon, clock, cfg);
  parallel_meter meter;
  std::size_t next = 0;
  const auto t0 = steady::now();
  while (since(t0) < seconds) {
    std::unordered_map<std::uint64_t, std::size_t> by_id;
    for (std::size_t b = 0; b < cfg.batch_size; ++b) {
      by_id[svc.submit(st.pool[next], priority::interactive,
                       serve::no_deadline)
                .id] = next;
      next = (next + 1) % st.pool.size();
    }
    std::vector<serve::response> rs;
    meter.run(cfg.threads, [&] { rs = svc.service_batch(); });
    std::size_t bad = cfg.batch_size - std::min(cfg.batch_size, rs.size());
    for (const auto& resp : rs) {
      const auto it = by_id.find(resp.id);
      if (resp.outcome != serve::response::kind::served ||
          it == by_id.end() ||
          resp.v.predicted != st.pool_predicted[it->second] ||
          resp.v.abstained) {
        ++bad;
      }
    }
    r.attempted += cfg.batch_size;
    r.failed += bad;
    r.check(bad == 0, "serve: " + std::to_string(bad) +
                          " requests of a full round not served or "
                          "disagreeing with the reference prediction");
  }
  return meter;
}

// Goodput of a rate: the median over kGoodputWindows equal windows of
// its schedule of the requests due in the window and served within their
// deadline, per second. The median moves less with a contended stretch.
constexpr std::size_t kGoodputWindows = 6;

double goodput(const rate_result& rr) {
  const double span = rr.span_s;
  std::vector<double> counts(kGoodputWindows, 0.0);
  for (double t : rr.good_due_s) {
    const auto w = std::min<std::size_t>(
        kGoodputWindows - 1,
        static_cast<std::size_t>(t / span * double(kGoodputWindows)));
    counts[w] += 1.0;
  }
  for (double& c : counts) c /= span / double(kGoodputWindows);
  return median(counts);
}

void report(const phase& p, result& r, const std::string& tag) {
  double max_rate = 0.0;
  for (const auto& rr : p.rates) {
    const tail_stat t = tail(rr.latency_ms);
    r.note(tag + " rate " + std::to_string(rr.offered) + "/s: submitted " +
           std::to_string(rr.submitted) + " good " + std::to_string(rr.good) +
           " unserved " + std::to_string(rr.unserved) + " failed " +
           std::to_string(rr.failed) + " probe bans " +
           std::to_string(rr.probe_bans) + " p50 " +
           std::to_string(median(rr.latency_ms)) + " ms tail " +
           std::to_string(t.value) + " ms (" + tail_label(t) + ") end depth " +
           std::to_string(rr.end_depth) + " max rung " +
           std::to_string(rr.stats.max_rung_engaged) + " mean R " +
           std::to_string(rr.good > 0 ? rr.repeats / double(rr.good) : 0.0) +
           " rejected (deadline) " +
           std::to_string(rr.stats.rejected_deadline) +
           (rr.meets_limit ? " meets limit" : " misses limit"));
    if (rr.meets_limit) max_rate = std::max(max_rate, rr.offered);
  }
  r.note(tag + " max_rate_rps: " + std::to_string(max_rate) + " 1/s");
}

}  // namespace

result run_serve(const options& o) {
  result r;
  const serve_state st = timed_setup(r, [&] { return set_up(o); });

  measure_totals totals;
  std::vector<std::shared_ptr<call_log>> logs;
  const phase plain = run_phase(st, o, false, r, totals, logs);
  report(plain, r, "serve");
  r.e2e["ops_per_s"] = goodput(plain.rates[kOverloadRate]);
  r.e2e["cpu_ms_per_op"] = plain.cpu_s * 1e3 / double(plain.served);
  r.e2e["parallel_speedup"] =
      full_rounds(st, o, o.seconds * (1.0 - kScheduleShare), r).speedup();
  r.note("serve.verdicts_per_s: " + std::to_string(r.e2e["ops_per_s"]) +
         " 1/s (goodput at the overload probe)");
  latency_metrics(r, plain.rates[kReferenceRate].latency_ms,
                  "due to verdict at " +
                      std::to_string(kRates[kReferenceRate]) + " requests/s");

  if (o.trace) {
    trace::enable(true);
    const phase traced = run_phase(st, o, true, r, totals, logs);
    report(traced, r, "traced serve");
    std::map<std::string, split_stats> by_label;
    for (const auto& log : logs) {
      split_oracle(*log, "S1", &*st.det, o.threads, by_label["S1"], r);
      decorator_oracle(*log, r);
    }
    // Side tracker: time observe() on the same (client, input) stream.
    serve::steady_clock_face clock;
    track::query_tracker side(clock, track::track_config{});
    for (const auto& sched : st.schedules) {
      for (const auto& a : sched) {
        trace::scope window("bench.track");
        trace::scope s("track.observe");
        (void)side.observe(a.client, a.input);
      }
    }
    trace::enable(false);

    const auto spans = trace::collect();
    const auto self = trace::self_ms(spans);
    std::vector<double> submit_us, round_ms, round_self_ms, observe_us;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double us = spans[i].ms() * 1e3;
      if (spans[i].name == "serve.submit") submit_us.push_back(us);
      if (spans[i].name == "track.observe") observe_us.push_back(us);
    }
    // Non-empty rounds are the service_batch spans that measured.
    const auto kids = [&] {
      std::unordered_map<trace::span_id, bool> measured;
      for (const auto& s : spans) {
        if (s.name == "hpc.measure") measured[s.parent] = true;
      }
      return measured;
    }();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "serve.service_batch" && kids.count(spans[i].id)) {
        round_ms.push_back(spans[i].ms());
        round_self_ms.push_back(self[i]);
      }
    }
    std::vector<double> wait, lag;
    double fill = 0.0, rounds = 0.0;
    double rejected = 0, shed = 0, misses = 0, max_rung = 0, bytes = 0,
           escalated = 0, bans = 0;
    for (const auto& rr : traced.rates) {
      wait.insert(wait.end(), rr.wait_ms.begin(), rr.wait_ms.end());
      lag.insert(lag.end(), rr.lag_ms.begin(), rr.lag_ms.end());
      const auto& s = rr.stats;
      rejected += double(s.rejected_queue_full + s.rejected_deadline +
                         s.rejected_breaker + s.rejected_draining +
                         s.rejected_backpressure + s.rejected_banned);
      shed += double(s.shed_deadline);
      misses += double(s.deadline_misses);
      max_rung = std::max(max_rung, double(s.max_rung_engaged));
      bytes = std::max(bytes, double(rr.track_bytes));
      escalated += double(rr.tstats.elevations);
      bans += double(rr.tstats.bans);
      fill += double(s.served + s.shed_deadline + s.failed_backend);
    }
    rounds = static_cast<double>(round_ms.size());
    r.layer["serve.submit_us"] = median(submit_us);
    r.layer["serve.round_ms"] = median(round_ms);
    r.layer["serve.round_self_ms"] = median(round_self_ms);
    r.layer["serve.queue_wait_ms.p50"] = median(wait);
    r.layer["serve.queue_wait_ms.tail"] = tail(wait).value;
    r.layer["serve.batch_fill"] =
        rounds > 0 ? fill / rounds / double(service_config(1).batch_size)
                   : 0.0;
    r.layer["serve.generator_lag_ms"] = median(lag);
    r.layer["serve.rejected"] = rejected;
    r.layer["serve.shed_deadline"] = shed;
    r.layer["serve.deadline_misses"] = misses;
    r.layer["serve.max_rung"] = max_rung;
    r.layer["track.observe_us"] = median(observe_us);
    r.layer["track.bytes_used"] = bytes;
    r.layer["track.escalated"] = escalated;
    r.layer["track.bans"] = bans;
    finish_trace(r, o, spans, self, by_label, totals, r.e2e["ops_per_s"],
                 goodput(traced.rates[kOverloadRate]));
  }
  return r;
}

}  // namespace perfbench
