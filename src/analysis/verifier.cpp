#include "analysis/verifier.hpp"

#include "analysis/passes.hpp"
#include "analysis/walk.hpp"
#include "common/logging.hpp"

namespace advh::analysis {

verification_report verify_model(nn::model& m) {
  verification_report report;
  report.model_name = m.name();
  report.input_shape = m.input_shape().to_string();
  report.num_classes = m.num_classes();

  walk_result walked = walk_graph_checked(m.net());
  const std::vector<walk_entry>& graph = walked.entries;
  for (const walk_entry& e : graph) report.layers_checked += e.leaf ? 1 : 0;
  for (const walk_anomaly& a : walked.anomalies) {
    const bool cycle = a.k == walk_anomaly::kind::cycle;
    report.add(severity::error,
               cycle ? diag_code::graph_cycle : diag_code::layer_aliased,
               a.top_index, a.node_name,
               cycle ? "layer is reachable from itself; the graph walk "
                       "refused to recurse into it"
                     : "layer object is registered under more than one "
                       "parent; its computation would be double-counted");
  }

  detail::run_shape_pass(m, report);
  detail::run_param_pass(m, graph, report);
  detail::run_trace_pass(graph, report);
  detail::run_structure_pass(m, graph, report);
  return report;
}

void ensure_verified(nn::model& m, const std::string& context) {
  verification_report report = verify_model(m);
  if (report.has_errors()) {
    throw verification_error(std::move(report), context);
  }
  if (report.warning_count() > 0) {
    log::warn(context, ": model ", m.name(), " verified with ",
              report.warning_count(), " warning(s)\n", report.to_text());
  }
}

}  // namespace advh::analysis
