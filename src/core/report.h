#ifndef CATAPULT_CORE_REPORT_H_
#define CATAPULT_CORE_REPORT_H_

#include <iosfwd>
#include <string>

#include "src/core/catapult.h"
#include "src/graph/label_map.h"

namespace catapult {

// JSON export of a pipeline run: the selected patterns (vertices with label
// names, edges) with their selection diagnostics, plus clustering/CSG/
// selection phase statistics and the run's merged per-primitive metrics.
// Intended for GUI layers and notebooks that consume the miner's output
// without linking the library. Emitted via the shared obs::JsonWriter, so
// escaping matches every other artifact the system writes.
//
// Schema (stable; all keys always present):
// {
//   "database": {"graphs": N, "clusters": N},
//   "timings": {"clustering_s": x, "csg_s": x, "selection_s": x},
//   "metrics": {"enabled": b,
//               "counters": {"vf2.calls": n, ...},
//               "gauges": {"mem.peak_bytes": n, ...},
//               "histograms": {"vf2.nodes_per_call":
//                  {"count": n, "sum": n, "min": n, "max": n,
//                   "buckets": [...]}, ...}},
//   "dist": {"enabled": b, "processes": n, "shards": n,
//            "workers_spawned": n, "worker_deaths": n, "worker_hangs": n,
//            "shard_retries": n, "backoff_waits": n, "backoff_total_ms": x,
//            "quarantined_shards": n, "inprocess_fallbacks": n,
//            "artifacts_reused": n, "artifacts_rejected": n,
//            "heartbeats": n},
//   "iterations": [
//     {"candidates": n, "exact": n, "skipped": n, "winning_score": x,
//      "best_skipped_bound": x},
//     ...],
//   "patterns": [
//     {"id": i, "score": s, "ccov": c, "lcov": l, "div": d, "cog": g,
//      "vertices": [{"id": v, "label": "C"}, ...],
//      "edges": [{"u": a, "v": b}, ...]},
//     ...]
// }
// "metrics.enabled" is false — with all counters zero — when the run
// carried no MetricsRegistry (see RunContext::WithObservability).
// "iterations" holds one SelectionIteration per greedy iteration that scored
// a candidate (selector.h): the candidates, how many were scored exactly and
// how many only bounded, the winner's score and the best bound left
// unevaluated; a score that does not exist (no winner, nothing skipped) is
// null. A run resumed from a selection checkpoint lists only the
// iterations it ran itself.
void WriteSelectionReport(const CatapultResult& result, const LabelMap& labels,
                          std::ostream& out);

// Convenience: the report as a string.
std::string SelectionReportJson(const CatapultResult& result,
                                const LabelMap& labels);

}  // namespace catapult

#endif  // CATAPULT_CORE_REPORT_H_
