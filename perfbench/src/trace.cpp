#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct record {
  std::uint32_t name = 0;
  span_id parent = 0;
  std::uint64_t request = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

// One buffer per thread that ever opened a span; buffers outlive their
// threads so collect() can read them after worker pools have joined.
struct thread_buffer {
  std::uint32_t index = 0;
  std::deque<record> spans;
  std::vector<span_id> stack;
};

std::mutex g_mutex;  // guards g_buffers, g_names and g_name_ids
std::vector<std::unique_ptr<thread_buffer>> g_buffers;
std::vector<std::string> g_names;
std::unordered_map<std::string, std::uint32_t> g_name_ids;

constexpr int kThreadShift = 40;

thread_buffer& local() {
  thread_local thread_buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<thread_buffer>());
    buf = g_buffers.back().get();
    buf->index = static_cast<std::uint32_t>(g_buffers.size());
  }
  return *buf;
}

std::uint32_t intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(g_mutex);
  auto [it, inserted] =
      g_name_ids.emplace(std::string(name),
                         static_cast<std::uint32_t>(g_names.size()));
  if (inserted) g_names.emplace_back(name);
  return it->second;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

span_id current() {
  if (!enabled()) return 0;
  const auto& stack = local().stack;
  return stack.empty() ? 0 : stack.back();
}

scope::scope(std::string_view name, std::uint64_t request, span_id parent) {
  if (!enabled()) return;
  const std::uint32_t name_id = intern(name);
  thread_buffer& buf = local();
  record r;
  r.name = name_id;
  r.parent = parent != 0 ? parent : (buf.stack.empty() ? 0 : buf.stack.back());
  r.request = request;
  buf.spans.push_back(r);
  id_ = (static_cast<span_id>(buf.index) << kThreadShift) | buf.spans.size();
  buf.stack.push_back(id_);
  buf.spans.back().t0 = now_ns();
}

scope::~scope() {
  if (id_ == 0) return;
  const std::int64_t t1 = now_ns();
  thread_buffer& buf = local();
  buf.spans[(id_ & ((span_id{1} << kThreadShift) - 1)) - 1].t1 = t1;
  buf.stack.pop_back();
}

std::vector<span> collect() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<span> out;
  for (const auto& buf : g_buffers) {
    std::size_t i = 0;
    for (const record& r : buf->spans) {
      ++i;
      span s;
      s.name = g_names[r.name];
      s.id = (static_cast<span_id>(buf->index) << kThreadShift) | i;
      s.parent = r.parent;
      s.thread = buf->index;
      s.request = r.request;
      s.t0 = r.t0;
      s.t1 = r.t1;
      out.push_back(std::move(s));
    }
  }
  return out;
}

namespace {

using interval = std::pair<std::int64_t, std::int64_t>;

// Length of the union of `xs` clipped to [lo, hi].
std::int64_t covered(std::vector<interval> xs, std::int64_t lo,
                     std::int64_t hi) {
  std::sort(xs.begin(), xs.end());
  std::int64_t total = 0;
  std::int64_t reach = lo;
  for (auto [a, b] : xs) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      total += b - a;
      reach = b;
    }
  }
  return total;
}

std::unordered_map<span_id, std::vector<std::size_t>> children_of(
    const std::vector<span>& all) {
  std::unordered_map<span_id, std::vector<std::size_t>> kids;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent != 0) kids[all[i].parent].push_back(i);
  }
  return kids;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

std::vector<double> self_ms(const std::vector<span>& all) {
  const auto kids = children_of(all);
  std::vector<double> out(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::vector<interval> xs;
    if (auto it = kids.find(all[i].id); it != kids.end()) {
      for (std::size_t k : it->second) xs.emplace_back(all[k].t0, all[k].t1);
    }
    out[i] = static_cast<double>(all[i].t1 - all[i].t0 -
                                 covered(std::move(xs), all[i].t0, all[i].t1)) *
             1e-6;
  }
  return out;
}

double coverage(const std::vector<span>& all) {
  const auto kids = children_of(all);
  std::int64_t busy = 0;
  std::int64_t layer = 0;
  for (const span& w : all) {
    if (!starts_with(w.name, "bench.")) continue;
    std::vector<interval> idle, work;
    if (auto it = kids.find(w.id); it != kids.end()) {
      for (std::size_t k : it->second) {
        const span& c = all[k];
        if (starts_with(c.name, "bench.")) continue;  // nested window
        (starts_with(c.name, "idle.") ? idle : work).emplace_back(c.t0, c.t1);
      }
    }
    busy += w.t1 - w.t0 - covered(std::move(idle), w.t0, w.t1);
    layer += covered(std::move(work), w.t0, w.t1);
  }
  return busy > 0 ? static_cast<double>(layer) / static_cast<double>(busy)
                  : 0.0;
}

void write_tsv(const std::vector<span>& all, const std::string& path) {
  std::ofstream out(path);
  out << "name\tid\tparent\tthread\trequest\tt0_ns\tt1_ns\n";
  for (const span& s : all) {
    out << s.name << '\t' << s.id << '\t' << s.parent << '\t' << s.thread
        << '\t' << s.request << '\t' << s.t0 << '\t' << s.t1 << '\n';
  }
}

void clear() {
  std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& buf : g_buffers) buf->spans.clear();
}

}  // namespace perfbench::trace
