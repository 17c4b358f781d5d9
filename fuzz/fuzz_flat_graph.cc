// libFuzzer target for the flat CSR graph core (src/graph/flat_graph.h).
//
// The input bytes are fed through the quarantine-mode gSpan parser; every
// graph that survives ingestion is flattened and the FlatGraph invariants
// are asserted against the source Graph: identical vertex labels, degrees
// and edge lists, binary-search FindEdge agreeing with the adjacency-scan
// HasEdge/EdgeLabel on every vertex pair, label-domain bitsets matching a
// direct label count, the VF2 kernel finding every connected graph in
// itself, and every connected graph of at most 12 vertices having the
// canonical code of its vertex-reversed copy and being contained in that
// copy, with and without the induced and edge-label constraints (the cap
// keeps a large symmetric input from stalling a short run). Any divergence
// traps.
//
// Build: -DCATAPULT_FUZZ=ON with clang (links -fsanitize=fuzzer,address).
// Under gcc the same file builds as a standalone regression driver that
// replays corpus files passed on the command line (see standalone_main.h).

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "src/graph/algorithms.h"
#include "src/graph/flat_graph.h"
#include "src/graph/io.h"
#include "src/iso/canonical_code.h"
#include "src/iso/flat_vf2.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string input(reinterpret_cast<const char*>(data), size);

  catapult::IngestOptions options;
  // The same small structural limits as fuzz_parser: graphs stay tiny, so
  // the quadratic pair scans below are cheap.
  options.limits.max_line_bytes = 512;
  options.limits.max_vertices_per_graph = 64;
  options.limits.max_edges_per_graph = 128;
  options.limits.max_label_bytes = 32;
  options.limits.max_labels = 256;
  options.limits.max_graphs = 16;
  options.memory = catapult::MemoryBudget::Limited(0, 1 << 20);

  std::istringstream stream(input);
  catapult::IngestReport report;
  catapult::ParseError error;
  auto db = catapult::ReadDatabase(stream, options, &report, &error);
  if (!db.has_value() || db->empty()) return 0;

  for (size_t id = 0; id < db->size(); ++id) {
    const catapult::Graph& g = db->graph(static_cast<catapult::GraphId>(id));
    catapult::FlatGraph flat = catapult::FlatGraph::Build(g);
    catapult::FlatGraphView view = flat.View();

    if (view.NumVertices() != g.NumVertices()) __builtin_trap();
    if (view.NumEdges() != g.NumEdges()) __builtin_trap();

    size_t adjacency_entries = 0;
    for (catapult::VertexId u = 0; u < g.NumVertices(); ++u) {
      if (view.VertexLabel(u) != g.VertexLabel(u)) __builtin_trap();
      if (view.Degree(u) != g.Degree(u)) __builtin_trap();
      adjacency_entries += view.Degree(u);
      // Flat adjacency preserves insertion order and carries the correct
      // neighbor labels.
      const catapult::FlatNeighbor* fn = view.NeighborsBegin(u);
      for (const catapult::Graph::Neighbor& n : g.Neighbors(u)) {
        if (fn == view.NeighborsEnd(u)) __builtin_trap();
        if (fn->to != n.to) __builtin_trap();
        if (fn->edge_label != n.edge_label) __builtin_trap();
        if (fn->to_label != g.VertexLabel(n.to)) __builtin_trap();
        ++fn;
      }
      if (fn != view.NeighborsEnd(u)) __builtin_trap();
      // Binary-search lookups agree with the adjacency scan on every pair.
      for (catapult::VertexId v = 0; v < g.NumVertices(); ++v) {
        if (view.HasEdge(u, v) != g.HasEdge(u, v)) __builtin_trap();
        if (g.HasEdge(u, v) &&
            view.EdgeLabel(u, v) != g.EdgeLabel(u, v)) {
          __builtin_trap();
        }
      }
    }
    if (adjacency_entries != 2 * g.NumEdges()) __builtin_trap();

    // Label domains match a direct scan.
    catapult::LabelDomains domains = catapult::LabelDomains::Build(view);
    for (catapult::VertexId v = 0; v < g.NumVertices(); ++v) {
      catapult::Label label = g.VertexLabel(v);
      const uint64_t* words = domains.Words(label);
      if (words == nullptr) __builtin_trap();
      if ((words[v >> 6] & (uint64_t{1} << (v & 63))) == 0) __builtin_trap();
    }

    // Every non-empty connected graph contains itself, even induced and
    // with edge labels matched (the kernel CHECKs connectivity).
    catapult::IsoOptions strict;
    strict.induced = true;
    strict.match_edge_labels = true;
    if (g.NumVertices() > 0 && catapult::IsConnected(g) &&
        !catapult::FlatContainsSubgraph(view, view, &domains, strict)) {
      __builtin_trap();
    }

    // Renumbering the vertices never changes the canonical code.
    const size_t n = g.NumVertices();
    if (n > 0 && n <= 12 && catapult::IsConnected(g)) {
      catapult::Graph reversed;
      for (size_t v = n; v-- > 0;) {
        reversed.AddVertex(g.VertexLabel(static_cast<catapult::VertexId>(v)));
      }
      for (const catapult::Edge& e : g.EdgeList()) {
        reversed.AddEdge(static_cast<catapult::VertexId>(n - 1 - e.u),
                         static_cast<catapult::VertexId>(n - 1 - e.v), e.label);
      }
      if (catapult::CanonicalCode(g) != catapult::CanonicalCode(reversed)) {
        __builtin_trap();
      }
      // The kernel skips only candidates that no embedding uses, so the
      // graph is found in its renumbered copy, plainly and strictly.
      catapult::FlatGraph flat_reversed = catapult::FlatGraph::Build(reversed);
      if (!catapult::FlatContainsSubgraph(view, flat_reversed.View(),
                                          nullptr) ||
          !catapult::FlatContainsSubgraph(view, flat_reversed.View(), nullptr,
                                          strict)) {
        __builtin_trap();
      }
    }
  }
  return 0;
}

#include "fuzz/standalone_main.h"
