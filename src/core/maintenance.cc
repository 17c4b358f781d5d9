#include "src/core/maintenance.h"

#include <algorithm>
#include <unordered_set>

#include "src/iso/canonical_code.h"
#include "src/obs/clock.h"

namespace catapult {

namespace {

// Distinct labelled-edge keys of a graph.
std::unordered_set<EdgeLabelKey> KeysOf(const Graph& g) {
  std::unordered_set<EdgeLabelKey> keys;
  for (const Edge& e : g.EdgeList()) keys.insert(g.EdgeKey(e.u, e.v));
  return keys;
}

// Fraction of `graph`'s labelled edges whose key occurs in `summary_keys`.
double Affinity(const Graph& graph,
                const std::unordered_set<EdgeLabelKey>& summary_keys) {
  if (graph.NumEdges() == 0) return 0.0;
  std::unordered_set<EdgeLabelKey> keys = KeysOf(graph);
  size_t hit = 0;
  for (EdgeLabelKey key : keys) {
    if (summary_keys.contains(key)) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(keys.size());
}

}  // namespace

MaintenanceResult UpdateWithNewGraphs(const GraphDatabase& old_db,
                                      const CatapultResult& previous,
                                      const std::vector<Graph>& new_graphs,
                                      const MaintenanceOptions& options,
                                      GraphDatabase* updated_db) {
  CATAPULT_CHECK(updated_db != nullptr);
  WallTimer timer;
  MaintenanceResult result;

  // Updated database: old graphs keep their ids; new graphs are appended.
  std::vector<GraphId> all_old(old_db.size());
  for (GraphId i = 0; i < old_db.size(); ++i) all_old[i] = i;
  *updated_db = old_db.Subset(all_old);
  std::vector<GraphId> new_ids;
  new_ids.reserve(new_graphs.size());
  for (const Graph& g : new_graphs) {
    new_ids.push_back(updated_db->Add(g));
  }

  std::vector<std::vector<GraphId>>& clusters = result.corpus.clusters;
  clusters = previous.clusters;

  // Assign arrivals to their best existing cluster, or queue them. The
  // affinity is structural: the fraction of the arrival's edges that fold
  // onto the cluster summary without growing it (MappedEdgeFraction), the
  // same criterion the closure construction optimises.
  std::vector<bool> dirty(clusters.size(), false);
  std::vector<GraphId> unmatched;
  for (GraphId id : new_ids) {
    const Graph& g = updated_db->graph(id);
    int best = -1;
    double best_affinity = 0.0;
    for (size_t c = 0; c < clusters.size(); ++c) {
      if (clusters[c].size() >= options.max_cluster_size) continue;
      if (c >= previous.csgs.size()) continue;
      double affinity = MappedEdgeFraction(previous.csgs[c], g);
      if (affinity > best_affinity) {
        best_affinity = affinity;
        best = static_cast<int>(c);
      }
    }
    if (best >= 0 && best_affinity >= options.min_affinity) {
      clusters[static_cast<size_t>(best)].push_back(id);
      dirty[static_cast<size_t>(best)] = true;
    } else {
      unmatched.push_back(id);
    }
  }

  // Unmatched arrivals seed fresh clusters, packed greedily by affinity to
  // the growing cluster's key set.
  std::vector<std::vector<GraphId>> fresh;
  std::vector<std::unordered_set<EdgeLabelKey>> fresh_keys;
  for (GraphId id : unmatched) {
    const Graph& g = updated_db->graph(id);
    int best = -1;
    double best_affinity = 0.0;
    for (size_t c = 0; c < fresh.size(); ++c) {
      if (fresh[c].size() >= options.max_cluster_size) continue;
      double affinity = Affinity(g, fresh_keys[c]);
      if (affinity > best_affinity) {
        best_affinity = affinity;
        best = static_cast<int>(c);
      }
    }
    if (best >= 0 && best_affinity >= options.min_affinity) {
      fresh[static_cast<size_t>(best)].push_back(id);
      for (EdgeLabelKey key : KeysOf(g)) {
        fresh_keys[static_cast<size_t>(best)].insert(key);
      }
    } else {
      fresh.push_back({id});
      fresh_keys.push_back(KeysOf(g));
    }
  }
  result.new_clusters = fresh.size();
  for (auto& cluster : fresh) clusters.push_back(std::move(cluster));

  // Re-close affected clusters; reuse untouched summaries.
  std::vector<ClusterSummaryGraph>& csgs = result.corpus.csgs;
  csgs.reserve(clusters.size());
  for (size_t c = 0; c < clusters.size(); ++c) {
    bool reusable = c < previous.csgs.size() && !dirty[c];
    if (reusable) {
      csgs.push_back(previous.csgs[c]);
    } else {
      csgs.push_back(BuildCsg(*updated_db, clusters[c]));
    }
  }

  // Re-run only the selection phase.
  BuildCorpusIndices(*updated_db, &result.corpus);
  Rng rng(options.seed);
  result.selection = FindCannedPatternSet(*updated_db, result.corpus,
                                          options.selector, rng);

  // Panel diff vs the previous selection.
  std::unordered_set<std::string> previous_codes;
  for (const SelectedPattern& q : previous.selection.patterns) {
    previous_codes.insert(CanonicalCode(q.graph));
  }
  for (const SelectedPattern& p : result.selection.patterns) {
    if (previous_codes.contains(CanonicalCode(p.graph))) ++result.patterns_kept;
  }
  result.patterns_changed =
      result.selection.patterns.size() - result.patterns_kept;
  result.update_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace catapult
