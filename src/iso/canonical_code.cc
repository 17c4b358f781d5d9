#include "src/iso/canonical_code.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

namespace catapult {

namespace {

// splitmix64's finaliser: summed over a vertex's neighbours, it hashes the
// multiset of their cells.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// The search tree of one graph. A partition is one colour per vertex: the
// position of its cell's first vertex in the partition's vertex order, so
// a discrete partition's colours are positions. Cells are ordered by
// invariants only (labels, cell starts, neighbour-colour hashes), never by
// vertex id, so isomorphic graphs have isomorphic search trees.
struct Search {
  uint32_t n = 0;
  std::vector<uint32_t> offsets;     // CSR adjacency, each run sorted
  std::vector<VertexId> adj;
  std::vector<VertexId> twin;        // smallest vertex of each twin class
  std::vector<uint64_t> sig;         // neighbour-colour hash per vertex
  std::vector<VertexId> order;       // vertices sorted by (colour, sig)
  std::vector<uint32_t> scratch;     // refined colours, or cell sizes
  std::vector<uint64_t> leaf, best;  // packed edges by position, sorted

  // Splits cells by neighbour-colour hash until none splits; returns the
  // number of cells.
  uint32_t Refine(std::vector<uint32_t>& colour, uint32_t cells) {
    while (cells < n) {
      for (VertexId v = 0; v < n; ++v) {
        sig[v] = 0;
        for (uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
          sig[v] += Mix(colour[adj[i]]);
        }
      }
      std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
        return colour[a] != colour[b] ? colour[a] < colour[b] : sig[a] < sig[b];
      });
      uint32_t split = 0;
      for (uint32_t i = 0, start = 0; i < n; ++i) {
        const VertexId v = order[i];
        const VertexId u = order[i > 0 ? i - 1 : 0];
        if (i == 0 || colour[u] != colour[v] || sig[u] != sig[v]) {
          start = i;
          ++split;
        }
        scratch[v] = start;
      }
      colour = scratch;
      if (split == cells) break;
      cells = split;
    }
    return cells;
  }

  void Visit(std::vector<uint32_t>& colour, uint32_t cells) {
    cells = Refine(colour, cells);
    if (cells == n) {
      leaf.clear();
      for (VertexId v = 0; v < n; ++v) {
        for (uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
          const uint64_t a = colour[v];
          const uint64_t b = colour[adj[i]];
          if (adj[i] > v) leaf.push_back(std::min(a, b) << 32 | std::max(a, b));
        }
      }
      std::sort(leaf.begin(), leaf.end());
      if (best.empty() || leaf < best) best.swap(leaf);
      return;
    }
    // Branch on the first smallest cell of more than one vertex.
    std::fill(scratch.begin(), scratch.end(), 0);
    for (VertexId v = 0; v < n; ++v) ++scratch[colour[v]];
    uint32_t target = 0;
    uint32_t target_size = n + 1;
    for (uint32_t s = 0; s < n; ++s) {
      if (scratch[s] > 1 && scratch[s] < target_size) {
        target = s;
        target_size = scratch[s];
      }
    }
    std::vector<uint32_t> child;
    for (VertexId v = 0; v < n; ++v) {
      bool twin_tried = false;
      for (VertexId u = 0; u < v; ++u) {
        twin_tried |= colour[u] == target && twin[u] == twin[v];
      }
      if (colour[v] != target || twin_tried) continue;
      // Individualise v: it keeps the cell's start, the rest move one on.
      child = colour;
      for (VertexId w = 0; w < n; ++w) {
        if (child[w] == target && w != v) child[w] = target + 1;
      }
      Visit(child, cells + 1);
    }
  }
};

}  // namespace

std::string CanonicalCode(const Graph& g) {
  Search s;
  const uint32_t n = s.n = static_cast<uint32_t>(g.NumVertices());
  s.offsets.assign(n + 1, 0);
  s.adj.reserve(2 * g.NumEdges());
  for (VertexId v = 0; v < n; ++v) {
    for (const Graph::Neighbor& nb : g.Neighbors(v)) s.adj.push_back(nb.to);
    s.offsets[v + 1] = static_cast<uint32_t>(s.adj.size());
    std::sort(s.adj.begin() + s.offsets[v], s.adj.end());
  }
  // Twins have the same label and the same neighbours: swapping them is an
  // automorphism that fixes every other vertex.
  auto twins = [&s, &g](VertexId u, VertexId v) {
    const auto run = [&s](VertexId x) { return s.adj.begin() + s.offsets[x]; };
    return g.VertexLabel(u) == g.VertexLabel(v) &&
           std::equal(run(u), run(u + 1), run(v), run(v + 1));
  };
  s.twin.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    s.twin[v] = v;
    for (VertexId u = 0; u < v && s.twin[v] == v; ++u) {
      if (twins(u, v)) s.twin[v] = s.twin[u];
    }
  }

  // The root partition: one cell per label, in ascending label order.
  // Refinement only splits cells, so every leaf keeps the labels at these
  // positions: the code's labels are the sorted labels.
  std::vector<Label> sorted(n);
  for (VertexId v = 0; v < n; ++v) sorted[v] = g.VertexLabel(v);
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint32_t> colour(n);
  for (VertexId v = 0; v < n; ++v) {
    colour[v] = static_cast<uint32_t>(
        std::lower_bound(sorted.begin(), sorted.end(), g.VertexLabel(v)) -
        sorted.begin());
  }
  uint32_t cells = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (i == 0 || sorted[i] != sorted[i - 1]) ++cells;
  }
  s.sig.resize(n);
  s.order.resize(n);
  std::iota(s.order.begin(), s.order.end(), VertexId{0});
  s.scratch.resize(n);
  s.leaf.reserve(g.NumEdges());
  s.best.reserve(g.NumEdges());
  if (n > 0) s.Visit(colour, cells);

  std::string code(4 * (2 + n + 2 * s.best.size()), '\0');
  char* out = code.data();
  auto put = [&out](uint64_t x) {
    for (int shift = 0; shift < 32; shift += 8) {
      *out++ = static_cast<char>((x >> shift) & 0xFF);
    }
  };
  put(n);
  put(s.best.size());
  for (Label label : sorted) put(label);
  for (uint64_t edge : s.best) {
    put(edge >> 32);
    put(edge & 0xFFFFFFFFULL);
  }
  return code;
}

}  // namespace catapult
