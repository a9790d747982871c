// HPC envelope pass: abstract-interpretation cross-check of fitted
// templates (advh_check codes 3xx).
//
// The abstract trace of the model (analysis/abstract_trace) fed through
// the uarch static cost model (uarch/static_model) yields, per event, a
// feasibility interval covering every count the simulator can produce for
// *any* input of the configured shape. A fitted GMM component whose mass
// (mean ± 3 standard deviations) lies entirely outside that
// interval — widened by margins absorbing measurement noise — describes
// behaviour the model cannot exhibit: a miscalibrated, drifted or
// tampered template, caught offline with zero measurements.
#pragma once

#include "analysis/check.hpp"
#include "core/detector.hpp"
#include "nn/model.hpp"
#include "uarch/static_model.hpp"

namespace advh::analysis {

/// Derives the static envelope of `m` under `cost_model`. Exposed
/// separately so tests and tools can inspect the intervals directly.
uarch::static_envelope model_envelope(
    nn::model& m, const uarch::trace_gen_config& cost_model = {});

/// Cross-checks every fitted (class, event) cell of `det` against the
/// static envelope of `m`; findings append to `out`. The detector's
/// event list selects which envelope interval each cell compares against.
/// `cost_model` is the one the templates were fitted under; it must match
/// the measurement backend's trace_gen_config or the pass will flag
/// honest templates (which is exactly the mismatched-cost-model defect).
void check_envelope(nn::model& m, const core::detector& det,
                    const uarch::trace_gen_config& cost_model,
                    check_report& out);

}  // namespace advh::analysis
