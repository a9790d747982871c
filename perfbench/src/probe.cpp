#include "probe.hpp"

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "hpc/noise.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using namespace advh;

void measure_totals::add(double wall_ms, std::size_t inputs,
                         std::size_t repeats) {
  std::lock_guard<std::mutex> lock(mutex_);
  wall_ms_ += wall_ms;
  inputs_ += static_cast<double>(inputs);
  repeats_ += static_cast<double>(repeats * inputs);
}

double measure_totals::wall_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wall_ms_;
}

double measure_totals::inputs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inputs_;
}

double measure_totals::repeats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return repeats_;
}

timing_monitor::timing_monitor(nn::model& model, std::uint64_t seed,
                               measure_totals& totals,
                               std::shared_ptr<call_log> log)
    : inner_(model, {}, hpc::noise_model{}, seed),
      totals_(totals),
      log_(std::move(log)) {
  if (log_) {
    log_->model = &model;
    log_->seed = seed;
  }
}

template <typename F>
std::vector<hpc::measurement> timing_monitor::timed(
    std::span<const tensor> inputs, std::span<const hpc::hpc_event> events,
    std::size_t repeats, std::size_t threads, F&& forward) {
  const auto t0 = steady::now();
  std::vector<hpc::measurement> out;
  {
    trace::scope s("hpc.measure");
    out = forward();
  }
  const double wall_ms = since(t0) * 1e3;
  totals_.add(wall_ms, inputs.size(), repeats);

  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t stream = next_stream_;
  next_stream_ += inputs.size();
  if (log_) {
    call_log::call c;
    c.inputs.assign(inputs.begin(), inputs.end());
    c.events.assign(events.begin(), events.end());
    c.repeats = repeats;
    c.threads = threads;
    c.stream = stream;
    c.wall_ms = wall_ms;
    c.out = out;
    log_->calls.push_back(std::move(c));
  }
  return out;
}

hpc::measurement timing_monitor::do_measure(
    const tensor& x, std::span<const hpc::hpc_event> events,
    std::size_t repeats) {
  return timed(std::span<const tensor>(&x, 1), events, repeats, 0, [&] {
    return std::vector<hpc::measurement>{inner_.measure(x, events, repeats)};
  })[0];
}

std::vector<hpc::measurement> timing_monitor::do_measure_batch(
    std::span<const tensor> inputs, std::span<const hpc::hpc_event> events,
    std::size_t repeats, std::size_t threads) {
  return timed(inputs, events, repeats, threads, [&] {
    return inner_.measure_batch(inputs, events, repeats, threads);
  });
}

hpc::measurement timing_monitor::do_measure_budgeted(
    const tensor& x, std::span<const hpc::hpc_event> events,
    std::size_t repeats, const hpc::measure_budget& budget) {
  return timed(std::span<const tensor>(&x, 1), events, repeats, 0, [&] {
    return std::vector<hpc::measurement>{
        inner_.measure(x, events, repeats, budget)};
  })[0];
}

std::vector<hpc::measurement> timing_monitor::do_measure_batch_budgeted(
    std::span<const tensor> inputs, std::span<const hpc::hpc_event> events,
    std::size_t repeats, std::size_t threads,
    const hpc::measure_budget& budget) {
  return timed(inputs, events, repeats, threads, [&] {
    return inner_.measure_batch(inputs, events, repeats, threads, budget);
  });
}

namespace {

bool same_entry(const nn::layer_trace_entry& a,
                const nn::layer_trace_entry& b) {
  return a.kind == b.kind && a.name == b.name && a.in_numel == b.in_numel &&
         a.out_numel == b.out_numel && a.weight_bytes == b.weight_bytes &&
         a.in_channels == b.in_channels && a.in_spatial == b.in_spatial &&
         a.out_channels == b.out_channels && a.out_spatial == b.out_spatial &&
         a.active_inputs == b.active_inputs &&
         a.active_outputs == b.active_outputs;
}

bool same_trace(const nn::inference_trace& a, const nn::inference_trace& b) {
  if (a.layers.size() != b.layers.size()) return false;
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    if (!same_entry(a.layers[i], b.layers[i])) return false;
  }
  return true;
}

std::string child_kind(const nn::layer& l) {
  // Nested sequentials (separable blocks, dense transitions) report the
  // container kind "input"; name them for what they are.
  return l.kind() == nn::layer_kind::input ? "sequential"
                                           : nn::to_string(l.kind());
}

void add_counts(uarch::uarch_counts& acc, const uarch::uarch_counts& c) {
  for (const auto field : kCountFields) acc.*field += c.*field;
}

// One input's rebuild: returns false on any mismatch.
struct piece_out {
  bool ok = true;
  std::string why;
  double active = 0.0;
  double bytes = 0.0;
  double cost_ms = 0.0;
  uarch::uarch_counts counts{};
};

piece_out rebuild(nn::model& m, const tensor& x,
                  std::span<const hpc::hpc_event> events, std::size_t repeats,
                  std::uint64_t seed, std::uint64_t stream,
                  const hpc::measurement& expect, const std::string& label,
                  const core::detector* det, uarch::trace_generator& gen,
                  const hpc::noise_model& noise) {
  piece_out out;
  const auto t0 = steady::now();
  std::size_t predicted = 0;
  nn::inference_trace tr;
  {
    trace::scope s("nn.trace_inference." + label);
    tr = m.trace_inference(x, predicted);
  }
  uarch::uarch_counts counts;
  {
    trace::scope s("uarch.run." + label);
    counts = gen.run(tr);
  }
  hpc::measurement rebuilt;
  rebuilt.predicted = predicted;
  {
    trace::scope s("hpc.noise");
    rng noise_rng = rng::stream(seed, stream);
    for (const hpc::hpc_event e : events) {
      const auto truth = static_cast<double>(hpc::extract(counts, e));
      stats::running_stats acc;
      for (std::size_t k = 0; k < repeats; ++k) {
        acc.push(noise.sample(e, truth, noise_rng));
      }
      rebuilt.mean_counts.push_back(acc.mean());
      rebuilt.stddev_counts.push_back(acc.stddev());
    }
  }
  out.cost_ms = since(t0) * 1e3;
  if (!same_measurement(rebuilt, expect)) {
    out.ok = false;
    out.why = "split oracle: rebuilt measurement differs from sim_backend";
    return out;
  }

  // The same forward, one top-level child at a time.
  nn::inference_trace split;
  nn::forward_ctx ctx;
  ctx.grad = false;
  ctx.trace = &split;
  tensor y = x;
  auto& net = m.net();
  for (std::size_t i = 0; i < net.size(); ++i) {
    trace::scope s("nn.child." + child_kind(net.at(i)));
    y = net.at(i).forward(y, ctx);
  }
  if (ops::argmax(y) != predicted || !same_trace(split, tr)) {
    out.ok = false;
    out.why = "split oracle: per-child forward differs from trace_inference";
    return out;
  }
  // A measurement from a rung that sheds events is narrower than the
  // detector; the service widens it before scoring, so it is not scored
  // here.
  if (det != nullptr &&
      rebuilt.mean_counts.size() == det->config().events.size()) {
    trace::scope s("core.score");
    (void)det->score(predicted, rebuilt.mean_counts, rebuilt.q.available);
  }
  for (const auto& e : tr.layers) {
    out.active += static_cast<double>(e.active_inputs.size());
    out.bytes += static_cast<double>(
        (e.active_inputs.size() + e.active_outputs.size()) *
        sizeof(std::uint32_t));
  }
  out.counts = counts;
  return out;
}

}  // namespace

void split_oracle(const call_log& log, const std::string& label,
                  const core::detector* det, std::size_t threads,
                  split_stats& stats, result& r) {
  struct item {
    const call_log::call* c;
    std::size_t i;
  };
  std::vector<item> items;
  for (const auto& c : log.calls) {
    for (std::size_t i = 0; i < c.inputs.size(); ++i) items.push_back({&c, i});
  }
  std::vector<piece_out> outs(items.size());
  const std::size_t workers = std::max<std::size_t>(1, threads);
  std::vector<std::unique_ptr<uarch::trace_generator>> gens;
  for (std::size_t w = 0; w < workers; ++w) {
    gens.push_back(std::make_unique<uarch::trace_generator>());
  }
  const hpc::noise_model noise;
  const trace::span_id parent = trace::current();
  parallel::parallel_for(items.size(), workers, [&](std::size_t k,
                                                    std::size_t w) {
    trace::scope window("bench.oracle", 0, parent);
    const auto& [c, i] = items[k];
    outs[k] = rebuild(*log.model, c->inputs[i], c->events, c->repeats,
                      log.seed, c->stream + i, c->out[i], label, det,
                      *gens[w], noise);
  });

  std::size_t k = 0;
  for (const auto& c : log.calls) {
    double call_cost = 0.0;
    for (std::size_t i = 0; i < c.inputs.size(); ++i, ++k) {
      const piece_out& o = outs[k];
      r.check(o.ok, o.why + " (" + label + ")");
      ++stats.inputs;
      stats.active_inputs += o.active;
      stats.trace_bytes += o.bytes;
      add_counts(stats.counts, o.counts);
      call_cost += o.cost_ms;
    }
    const std::size_t workers_used =
        std::max<std::size_t>(1, std::min(c.threads, c.inputs.size()));
    stats.batch_cost_ms += call_cost;
    stats.batch_capacity_ms += static_cast<double>(workers_used) * c.wall_ms;
  }
}

void decorator_oracle(const call_log& log, result& r) {
  hpc::sim_backend plain(*log.model, {}, hpc::noise_model{}, log.seed);
  bool ok = true;
  for (const auto& c : log.calls) {
    const auto out =
        c.threads == 0
            ? std::vector<hpc::measurement>{plain.measure(c.inputs[0], c.events,
                                                          c.repeats)}
            : plain.measure_batch(c.inputs, c.events, c.repeats, c.threads);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ok = ok && same_measurement(out[i], c.out[i]);
    }
  }
  r.check(ok, "decorator oracle: decorated measurements differ from the "
              "undecorated backend");
}

void layer_metrics(const std::vector<trace::span>& spans,
                   const std::vector<double>& self,
                   const std::map<std::string, split_stats>& by_label,
                   const measure_totals& totals, result& r) {
  std::map<std::string, double> total_ms;
  std::map<std::string, std::size_t> count;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    total_ms[spans[i].name] += self[i];
    ++count[spans[i].name];
  }
  const auto mean_ms = [&](const std::string& name) {
    return count[name] > 0 ? total_ms[name] / static_cast<double>(count[name])
                           : 0.0;
  };

  split_stats all;
  for (const auto& [label, s] : by_label) {
    r.layer["nn.forward_ms." + label] = mean_ms("nn.trace_inference." + label);
    r.layer["uarch.replay_ms." + label] = mean_ms("uarch.run." + label);
    all.inputs += s.inputs;
    all.active_inputs += s.active_inputs;
    all.trace_bytes += s.trace_bytes;
    add_counts(all.counts, s.counts);
    all.batch_cost_ms += s.batch_cost_ms;
    all.batch_capacity_ms += s.batch_capacity_ms;
  }
  const double n = std::max<double>(1.0, static_cast<double>(all.inputs));
  for (const char* kind : {"conv2d", "batchnorm2d", "relu", "sequential",
                           "residual_add", "concat", "global_avgpool",
                           "linear"}) {
    r.layer[std::string("nn.forward_ms.") + kind] =
        total_ms[std::string("nn.child.") + kind] / n;
  }
  r.layer["nn.active_inputs"] = all.active_inputs / n;
  r.layer["nn.trace_kb"] = all.trace_bytes / 1024.0 / n;
  r.layer["uarch.llc_refs"] =
      static_cast<double>(all.counts.cache_references) / n;
  r.layer["uarch.llc_misses"] =
      static_cast<double>(all.counts.cache_misses) / n;
  r.layer["uarch.branch_misses"] =
      static_cast<double>(all.counts.branch_misses) / n;
  r.layer["uarch.instructions"] =
      static_cast<double>(all.counts.instructions) / n;
  double replay_ms = 0.0;
  for (const auto& [name, ms] : total_ms) {
    if (name.rfind("uarch.run.", 0) == 0) replay_ms += ms;
  }
  r.layer["uarch.ns_per_llc_ref"] =
      all.counts.cache_references > 0
          ? replay_ms * 1e6 / static_cast<double>(all.counts.cache_references)
          : 0.0;
  r.layer["hpc.noise_us"] = mean_ms("hpc.noise") * 1e3;
  r.layer["core.score_us"] = mean_ms("core.score") * 1e3;
  r.layer["hpc.batch_efficiency"] =
      all.batch_capacity_ms > 0.0 ? all.batch_cost_ms / all.batch_capacity_ms
                                  : 0.0;
  const double inputs = totals.inputs();
  r.layer["hpc.measure_ms"] = inputs > 0.0 ? totals.wall_ms() / inputs : 0.0;
  r.layer["hpc.repeats_per_verdict"] =
      inputs > 0.0 ? totals.repeats() / inputs : 0.0;
}

}  // namespace perfbench
