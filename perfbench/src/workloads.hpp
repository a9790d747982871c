// The workloads of the repository benchmark. Each returns a result
// holding its end-to-end metrics (untraced timed phase) and, in the traced
// run, its per-layer metrics.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "probe.hpp"
#include "trace.hpp"

namespace perfbench {

result run_screen(const options& o);
result run_calibrate(const options& o);
result run_serve(const options& o);
result run_fleet(const options& o);

/// Common tail of every traced run: per-layer metrics of the measurement
/// path, span coverage, the tracing overhead (untraced vs traced
/// operation rate of the same timed loop) and the span dump.
void finish_trace(result& r, const options& o,
                  const std::vector<trace::span>& spans,
                  const std::vector<double>& self,
                  const std::map<std::string, split_stats>& by_label,
                  const measure_totals& totals, double untraced_ops_per_s,
                  double traced_ops_per_s);

}  // namespace perfbench
