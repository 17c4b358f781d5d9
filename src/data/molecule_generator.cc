#include "src/data/molecule_generator.h"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "src/graph/algorithms.h"
#include "src/util/rng.h"

namespace catapult {

namespace {

// Atom alphabet with a PubChem-like skew.
struct AtomDistribution {
  std::vector<Label> labels;
  std::vector<double> weights;
};

AtomDistribution MakeAtoms(LabelMap& labels, size_t alphabet_size) {
  AtomDistribution atoms;
  const char* names[8] = {"C", "O", "N", "S", "Cl", "P", "F", "Br"};
  const double weights[8] = {0.68, 0.10, 0.09, 0.05, 0.03, 0.02, 0.02, 0.01};
  size_t n = std::clamp<size_t>(alphabet_size, 2, 26);
  for (size_t i = 0; i < std::min<size_t>(n, 8); ++i) {
    atoms.labels.push_back(labels.Intern(names[i]));
    atoms.weights.push_back(weights[i]);
  }
  if (n > 8) {
    // The long tail splits the rare mass evenly.
    double tail_total = 0.06;
    double each = tail_total / static_cast<double>(n - 8);
    for (size_t i = 8; i < n; ++i) {
      atoms.labels.push_back(
          labels.Intern(std::string("X").append(std::to_string(i))));
      atoms.weights.push_back(each);
    }
  }
  return atoms;
}

// Appends a ring of the given labels to `g`; returns its vertex ids.
std::vector<VertexId> AddRing(Graph& g, const std::vector<Label>& ring) {
  std::vector<VertexId> ids;
  ids.reserve(ring.size());
  for (Label label : ring) ids.push_back(g.AddVertex(label));
  for (size_t i = 0; i < ids.size(); ++i) {
    g.AddEdge(ids[i], ids[(i + 1) % ids.size()]);
  }
  return ids;
}

// Appends a path; returns its vertex ids.
std::vector<VertexId> AddPath(Graph& g, const std::vector<Label>& path) {
  std::vector<VertexId> ids;
  for (Label label : path) ids.push_back(g.AddVertex(label));
  for (size_t i = 0; i + 1 < ids.size(); ++i) g.AddEdge(ids[i], ids[i + 1]);
  return ids;
}

// Builds one of the eight primitive scaffolds into a fresh graph.
Graph BuildPrimitiveScaffold(size_t family, const AtomDistribution& atoms) {
  // The alphabet can be clamped as low as two labels; reuse the last label
  // for the missing hetero-atoms instead of reading past the vector.
  auto at = [&](size_t i) {
    return atoms.labels[std::min(i, atoms.labels.size() - 1)];
  };
  const Label C = at(0);
  const Label O = at(1);
  const Label N = at(2);
  const Label S = at(3);
  Graph g;
  switch (family % 8) {
    case 0: {  // Benzene-like six-ring.
      AddRing(g, {C, C, C, C, C, C});
      break;
    }
    case 1: {  // Pyridine-like hetero six-ring.
      AddRing(g, {C, C, C, C, C, N});
      break;
    }
    case 2: {  // Furan-like five-ring.
      AddRing(g, {C, C, C, C, O});
      break;
    }
    case 3: {  // Urea-like star: N-C(-O)-N with a carbon tail.
      VertexId c = g.AddVertex(C);
      VertexId n1 = g.AddVertex(N);
      VertexId n2 = g.AddVertex(N);
      VertexId o = g.AddVertex(O);
      g.AddEdge(c, n1);
      g.AddEdge(c, n2);
      g.AddEdge(c, o);
      VertexId tail = g.AddVertex(C);
      g.AddEdge(n1, tail);
      break;
    }
    case 4: {  // Carbon chain.
      AddPath(g, {C, C, C, C, C});
      break;
    }
    case 5: {  // Fused six-rings (naphthalene-like).
      std::vector<VertexId> ring = AddRing(g, {C, C, C, C, C, C});
      VertexId a = g.AddVertex(C);
      VertexId b = g.AddVertex(C);
      VertexId c = g.AddVertex(C);
      VertexId d = g.AddVertex(C);
      g.AddEdge(ring[0], a);
      g.AddEdge(a, b);
      g.AddEdge(b, c);
      g.AddEdge(c, d);
      g.AddEdge(d, ring[1]);
      break;
    }
    case 6: {  // Thiophene-like five-ring with a carboxyl-ish arm.
      std::vector<VertexId> ring = AddRing(g, {C, C, C, C, S});
      VertexId arm = g.AddVertex(C);
      VertexId o1 = g.AddVertex(O);
      VertexId o2 = g.AddVertex(O);
      g.AddEdge(ring[0], arm);
      g.AddEdge(arm, o1);
      g.AddEdge(arm, o2);
      break;
    }
    default: {  // Amide chain: C-C(-O)-N-C.
      VertexId c1 = g.AddVertex(C);
      VertexId c2 = g.AddVertex(C);
      VertexId o = g.AddVertex(O);
      VertexId n = g.AddVertex(N);
      VertexId c3 = g.AddVertex(C);
      g.AddEdge(c1, c2);
      g.AddEdge(c2, o);
      g.AddEdge(c2, n);
      g.AddEdge(n, c3);
      break;
    }
  }
  return g;
}

// Builds the scaffold of family `family`. Families 0-7 are the primitive
// scaffolds; higher ids are ordered pairs of primitives joined by a bridge
// edge (up to 64 distinct families), mirroring how real compound families
// combine multiple functional groups.
Graph BuildScaffold(size_t family, const AtomDistribution& atoms) {
  size_t first = family % 8;
  size_t second = (family / 8) % 8;
  Graph g = BuildPrimitiveScaffold(first, atoms);
  if (family < 8) return g;
  Graph other = BuildPrimitiveScaffold(second, atoms);
  VertexId offset = static_cast<VertexId>(g.NumVertices());
  for (VertexId v = 0; v < other.NumVertices(); ++v) {
    g.AddVertex(other.VertexLabel(v));
  }
  for (const Edge& e : other.EdgeList()) {
    g.AddEdge(offset + e.u, offset + e.v, e.label);
  }
  g.AddEdge(0, offset);  // bridge
  return g;
}

constexpr size_t kMaxDegree = 4;

}  // namespace

GraphDatabase GenerateMoleculeDatabase(
    const MoleculeGeneratorOptions& options) {
  CATAPULT_CHECK(options.min_vertices >= 5);
  CATAPULT_CHECK(options.max_vertices >= options.min_vertices);
  GraphDatabase db;
  AtomDistribution atoms = MakeAtoms(db.labels(), options.alphabet_size);
  Rng rng(options.seed);
  size_t families = std::max<size_t>(1, options.scaffold_families);

  for (size_t i = 0; i < options.num_graphs; ++i) {
    size_t family = options.scaffold_family_offset + rng.UniformInt(families);
    Graph g = BuildScaffold(family, atoms);

    size_t target = static_cast<size_t>(rng.UniformInRange(
        static_cast<int64_t>(options.min_vertices),
        static_cast<int64_t>(options.max_vertices)));

    // Decorate: attach random atoms to random under-degree vertices.
    while (g.NumVertices() < target) {
      std::vector<VertexId> attachable;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (g.Degree(v) < kMaxDegree) attachable.push_back(v);
      }
      if (attachable.empty()) break;
      VertexId host = attachable[rng.UniformInt(attachable.size())];
      Label label;
      if (rng.Bernoulli(options.family_label_bias)) {
        // Family-preferred non-carbon atom (rotating by family).
        label = atoms.labels[1 + family % (atoms.labels.size() - 1)];
      } else {
        label = atoms.labels[rng.WeightedIndex(atoms.weights)];
      }
      VertexId leaf = g.AddVertex(label);
      g.AddEdge(host, leaf);
    }

    // Occasionally close one extra ring between two nearby carbons.
    if (rng.Bernoulli(options.extra_ring_probability) &&
        g.NumVertices() >= 6) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        VertexId u = static_cast<VertexId>(rng.UniformInt(g.NumVertices()));
        if (g.Degree(u) >= kMaxDegree) continue;
        // Walk 4-5 steps away from u and close the ring.
        VertexId w = u;
        VertexId prev = u;
        size_t steps = 4 + rng.UniformInt(2);
        for (size_t s = 0; s < steps; ++s) {
          const auto& nbrs = g.Neighbors(w);
          VertexId next = nbrs[rng.UniformInt(nbrs.size())].to;
          if (next == prev && nbrs.size() > 1) {
            next = nbrs[rng.UniformInt(nbrs.size())].to;
          }
          prev = w;
          w = next;
        }
        if (w != u && !g.HasEdge(u, w) && g.Degree(w) < kMaxDegree) {
          g.AddEdge(u, w);
          break;
        }
      }
    }
    db.Add(std::move(g));
  }
  return db;
}

}  // namespace catapult
