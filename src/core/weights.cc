#include "src/core/weights.h"

#include <algorithm>
#include <unordered_set>

namespace catapult {

EdgeLabelWeights::EdgeLabelWeights(const LabelCoverageIndex& index) {
  const double total = static_cast<double>(index.database_size());
  for (const auto& [key, graphs] : index.graphs_with_key()) {
    weights_[key] = static_cast<double>(graphs.Count()) / total;
  }
}

double EdgeLabelWeights::Get(EdgeLabelKey key) const {
  auto it = weights_.find(key);
  return it == weights_.end() ? 0.0 : it->second;
}

void EdgeLabelWeights::DecayForPattern(const Graph& pattern, double factor) {
  std::unordered_set<EdgeLabelKey> keys;
  for (const Edge& e : pattern.EdgeList()) {
    keys.insert(pattern.EdgeKey(e.u, e.v));
  }
  for (EdgeLabelKey key : keys) {
    auto it = weights_.find(key);
    if (it != weights_.end()) it->second *= factor;
  }
}

std::vector<std::pair<EdgeLabelKey, double>> EdgeLabelWeights::Snapshot()
    const {
  std::vector<std::pair<EdgeLabelKey, double>> entries(weights_.begin(),
                                                       weights_.end());
  std::sort(entries.begin(), entries.end());
  return entries;
}

void EdgeLabelWeights::Restore(
    const std::vector<std::pair<EdgeLabelKey, double>>& entries) {
  weights_.clear();
  for (const auto& [key, weight] : entries) weights_[key] = weight;
}

ClusterWeights::ClusterWeights(
    const std::vector<std::vector<GraphId>>& clusters, size_t database_size) {
  CATAPULT_CHECK(database_size > 0);
  weights_.reserve(clusters.size());
  for (const auto& cluster : clusters) {
    weights_.push_back(static_cast<double>(cluster.size()) /
                       static_cast<double>(database_size));
  }
}

LabelCoverageIndex::LabelCoverageIndex(const GraphDatabase& db)
    : graphs_with_key_(BuildEdgeLabelIndex(db, AllGraphIds(db))),
      database_size_(db.size()) {}

DynamicBitset LabelCoverageIndex::UnionFor(const Graph& pattern,
                                           DynamicBitset acc) const {
  std::unordered_set<EdgeLabelKey> keys;
  for (const Edge& e : pattern.EdgeList()) {
    keys.insert(pattern.EdgeKey(e.u, e.v));
  }
  for (EdgeLabelKey key : keys) {
    auto it = graphs_with_key_.find(key);
    if (it != graphs_with_key_.end()) acc |= it->second;
  }
  return acc;
}

double LabelCoverageIndex::PatternLabelCoverage(const Graph& pattern) const {
  if (database_size_ == 0) return 0.0;
  DynamicBitset acc = UnionFor(pattern, DynamicBitset(database_size_));
  return static_cast<double>(acc.Count()) /
         static_cast<double>(database_size_);
}

double LabelCoverageIndex::SetLabelCoverage(
    const std::vector<Graph>& patterns) const {
  if (database_size_ == 0) return 0.0;
  DynamicBitset acc(database_size_);
  for (const Graph& p : patterns) acc = UnionFor(p, std::move(acc));
  return static_cast<double>(acc.Count()) /
         static_cast<double>(database_size_);
}

}  // namespace catapult
