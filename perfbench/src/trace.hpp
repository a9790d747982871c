// In-memory span recorder for the traced run.
//
// Spans are recorded only in the benchmark's own code, around calls into
// the library's public functions. Each span has a name, a start and end
// (steady clock, ns), the thread that ran it and the span that caused it
// (the enclosing span on the same thread unless a parent is given, so
// worker threads can attribute their spans to the caller's span). Spans
// of one request share a request id. Recording is off unless enabled; a
// disabled scope costs one relaxed load.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench::trace {

/// Turns recording on or off (the untraced run never enables it).
void enable(bool on);
bool enabled();

/// Span id (0 = none).
using span_id = std::uint64_t;

/// Id of the innermost open span on this thread (0 when none).
span_id current();

/// RAII span. Names starting with "bench." mark the benchmark's own loop
/// windows, "idle." marks waits; every other name is a call into a layer.
class scope {
 public:
  explicit scope(std::string_view name, std::uint64_t request = 0,
                 span_id parent = 0);
  ~scope();
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

  span_id id() const noexcept { return id_; }

 private:
  span_id id_ = 0;
};

/// One finished span.
struct span {
  std::string name;
  span_id id = 0;
  span_id parent = 0;
  std::uint32_t thread = 0;
  std::uint64_t request = 0;
  std::int64_t t0 = 0;  ///< ns, steady clock
  std::int64_t t1 = 0;
  double ms() const { return static_cast<double>(t1 - t0) * 1e-6; }
};

/// Every span recorded so far (all threads), in id order. Call only when
/// no span is open.
std::vector<span> collect();

/// Self time of each span in `all`: its duration minus the part of its
/// interval covered by its direct children (any thread), in ms.
std::vector<double> self_ms(const std::vector<span>& all);

/// Share of the non-idle time inside "bench." windows covered by layer
/// spans that are direct children of those windows.
double coverage(const std::vector<span>& all);

/// Writes all spans as TSV (name, id, parent, thread, request, t0, t1).
void write_tsv(const std::vector<span>& all, const std::string& path);

/// Drops every recorded span.
void clear();

}  // namespace perfbench::trace
