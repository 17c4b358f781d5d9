#ifndef CATAPULT_CORE_WEIGHTS_H_
#define CATAPULT_CORE_WEIGHTS_H_

#include <unordered_map>
#include <vector>

#include "src/graph/graph_database.h"
#include "src/util/bitset.h"

namespace catapult {

// Multiplicative-weights decay factor n = 0.5 (Section 5, after [Arora et
// al.]): weights of covered clusters / used edge labels are halved after
// each pattern selection.
inline constexpr double kWeightDecay = 0.5;

class LabelCoverageIndex;

// Global edge-label weights elw (Algorithm 1, line 4): initially the label
// coverage lcov(e, D) of each labelled edge, decayed multiplicatively as
// patterns consume labels (Algorithm 4, line 21).
class EdgeLabelWeights {
 public:
  // Undecayed weights read off the database's `index`:
  // weight(key) = |L(e, D)| / |D|.
  explicit EdgeLabelWeights(const LabelCoverageIndex& index);

  // Current weight of `key` (0 for labels absent from D).
  double Get(EdgeLabelKey key) const;

  // Multiplies the weight of every labelled edge occurring in `pattern` by
  // `factor` (kWeightDecay by default).
  void DecayForPattern(const Graph& pattern, double factor = kWeightDecay);

  // Current weights as (key, weight) pairs sorted by key — a deterministic
  // snapshot for checkpointing mid-selection state.
  std::vector<std::pair<EdgeLabelKey, double>> Snapshot() const;

  // Replaces all weights with `entries` (a prior Snapshot of the same
  // database's weights).
  void Restore(const std::vector<std::pair<EdgeLabelKey, double>>& entries);

 private:
  std::unordered_map<EdgeLabelKey, double> weights_;
};

// Cluster weights cw (Algorithm 1, line 5): cw_i = |C_i| / |D|, decayed
// multiplicatively for every cluster whose CSG is covered by a selected
// pattern (Algorithm 4, line 20).
class ClusterWeights {
 public:
  ClusterWeights(const std::vector<std::vector<GraphId>>& clusters,
                 size_t database_size);

  size_t size() const { return weights_.size(); }
  double Get(size_t cluster) const {
    CATAPULT_CHECK(cluster < weights_.size());
    return weights_[cluster];
  }

  // Multiplies the weight of `cluster` by `factor`.
  void Decay(size_t cluster, double factor = kWeightDecay) {
    CATAPULT_CHECK(cluster < weights_.size());
    weights_[cluster] *= factor;
  }

  // Current (decayed) weights, for checkpointing mid-selection state.
  const std::vector<double>& Snapshot() const { return weights_; }

  // Replaces the current weights with `weights` (a prior Snapshot over the
  // same clusters; CHECK on size mismatch).
  void Restore(const std::vector<double>& weights) {
    CATAPULT_CHECK(weights.size() == weights_.size());
    weights_ = weights;
  }

 private:
  std::vector<double> weights_;
};

// Index from labelled-edge key to the set of graphs containing it; supports
// exact lcov computations for patterns and pattern sets (Section 3.2). It
// depends only on the database, so a selection corpus builds it once
// (BuildCorpusIndices) and every selection on the corpus reads it.
class LabelCoverageIndex {
 public:
  // The index of an empty database.
  LabelCoverageIndex() = default;
  explicit LabelCoverageIndex(const GraphDatabase& db);

  // lcov(p, D): fraction of graphs containing at least one of the pattern's
  // labelled edges.
  double PatternLabelCoverage(const Graph& pattern) const;

  // lcov(P, D) over a whole pattern set.
  double SetLabelCoverage(const std::vector<Graph>& patterns) const;

  size_t database_size() const { return database_size_; }
  const EdgeLabelIndex& graphs_with_key() const { return graphs_with_key_; }

 private:
  DynamicBitset UnionFor(const Graph& pattern, DynamicBitset acc) const;

  EdgeLabelIndex graphs_with_key_;
  size_t database_size_ = 0;
};

}  // namespace catapult

#endif  // CATAPULT_CORE_WEIGHTS_H_
