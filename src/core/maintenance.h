#ifndef CATAPULT_CORE_MAINTENANCE_H_
#define CATAPULT_CORE_MAINTENANCE_H_

#include <vector>

#include "src/core/catapult.h"

namespace catapult {

// Incremental maintenance of canned patterns as the database evolves
// (Section 1: "it can be extended to support incremental maintenance of
// canned patterns as the underlying data graphs evolve").
//
// Instead of re-running the whole pipeline when new graphs arrive, the
// updater (a) assigns each new graph to the existing cluster whose CSG it
// is most similar to (the fraction of the graph's edges that fold onto the
// summary without growing it, MappedEdgeFraction - computed with the very
// mapping BuildCsg folds members through), creating fresh clusters for
// graphs that match nothing well, (b) folds the new members into the
// affected CSGs via the same closure step used at build time, and (c)
// re-runs only the selection phase (Algorithm 4), which is orders of
// magnitude cheaper than clustering.
struct MaintenanceOptions {
  // A new graph joins its best cluster only if at least this fraction of
  // its edges folds onto that cluster's summary (MappedEdgeFraction), or,
  // among the fresh clusters of one batch, if at least this fraction of its
  // labelled-edge keys already occurs in the cluster; otherwise it seeds a
  // new cluster.
  double min_affinity = 0.5;

  // Clusters never grow beyond this size through maintenance (new arrivals
  // overflow into fresh clusters), bounding CSG degradation between full
  // rebuilds.
  size_t max_cluster_size = 40;

  SelectorOptions selector;
  uint64_t seed = 91;
};

// Diff of the pattern panel across a maintenance step.
struct MaintenanceResult {
  SelectionResult selection;
  // The updated clusters (ids into the new db), their summaries and the
  // corpus indices the selection ran on.
  SelectionCorpus corpus;
  size_t new_clusters = 0;       // clusters created for unmatched arrivals
  size_t patterns_kept = 0;      // patterns isomorphic to a previous one
  size_t patterns_changed = 0;   // patterns.size() - patterns_kept
  double update_seconds = 0.0;
};

// Applies a batch of `new_graphs` on top of a previous run.
//
// `old_db` must be the database `previous` was computed from; the updated
// database (old graphs + new ones, ids preserved for the old prefix) is
// returned through `updated_db`. The previous result is not modified.
MaintenanceResult UpdateWithNewGraphs(const GraphDatabase& old_db,
                                      const CatapultResult& previous,
                                      const std::vector<Graph>& new_graphs,
                                      const MaintenanceOptions& options,
                                      GraphDatabase* updated_db);

}  // namespace catapult

#endif  // CATAPULT_CORE_MAINTENANCE_H_
