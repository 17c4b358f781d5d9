#include "src/graph/io.h"

#include <fstream>
#include <sstream>
#include <unordered_set>

#include "src/util/atomic_file.h"
#include "src/util/failpoint.h"

namespace catapult {

void WriteDatabase(const GraphDatabase& db, std::ostream& out) {
  for (GraphId id = 0; id < db.size(); ++id) {
    const Graph& g = db.graph(id);
    out << "t # " << id << "\n";
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      out << "v " << v << " " << db.labels().Name(g.VertexLabel(v)) << "\n";
    }
    for (const Edge& e : g.EdgeList()) {
      out << "e " << e.u << " " << e.v << " " << e.label << "\n";
    }
  }
}

IoStatus WriteDatabaseToFile(const GraphDatabase& db,
                             const std::string& path) {
  std::ostringstream out;
  WriteDatabase(db, out);
  std::string error = AtomicWriteFile(path, out.str());
  if (!error.empty()) return IoStatus::Error(std::move(error));
  return IoStatus::Ok();
}

std::string IngestReport::Summary() const {
  std::string s = "ingested " + std::to_string(graphs_ingested) + " graphs";
  if (graphs_quarantined > 0 || !quarantine_reasons.empty()) {
    s += ", quarantined " + std::to_string(graphs_quarantined) + " (";
    bool first = true;
    for (const auto& [reason, count] : quarantine_reasons) {
      if (!first) s += ", ";
      s += reason + ": " + std::to_string(count);
      first = false;
    }
    s += ")";
  }
  if (stopped_early) s += "; stopped early: " + stop_reason;
  return s;
}

namespace {

// Reads one '\n'-terminated line into `line`, buffering at most `max_bytes`
// bytes. An overlong line sets `*overlong` and the remainder is *discarded
// unread* — the 100MB-line attack costs max_bytes of memory, not 100MB.
// Returns false only at immediate end of input.
bool ReadBoundedLine(std::istream& in, std::string& line, size_t max_bytes,
                     bool* overlong) {
  using Traits = std::char_traits<char>;
  line.clear();
  *overlong = false;
  std::streambuf* sb = in.rdbuf();
  if (sb == nullptr) return false;
  int c = sb->sbumpc();
  if (Traits::eq_int_type(c, Traits::eof())) return false;
  while (!Traits::eq_int_type(c, Traits::eof())) {
    if (c == '\n') return true;
    if (line.size() >= max_bytes) {
      *overlong = true;
      while (!Traits::eq_int_type(c, Traits::eof()) && c != '\n') {
        c = sb->sbumpc();
      }
      return true;
    }
    line.push_back(Traits::to_char_type(c));
    c = sb->sbumpc();
  }
  return true;  // final line without a trailing newline
}

// One graph being assembled. Labels stay as strings until the graph commits,
// so a quarantined label bomb never pollutes the database's LabelMap.
struct PendingGraph {
  std::vector<std::string> vertex_labels;
  struct PendingEdge {
    VertexId u = 0;
    VertexId v = 0;
    Label label = 0;
  };
  std::vector<PendingEdge> edges;
  std::unordered_set<uint64_t> edge_keys;  // packed min<<32|max

  void Clear() {
    vertex_labels.clear();
    edges.clear();
    edge_keys.clear();
  }
};

uint64_t PackEdge(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

// FNV-1a accumulator for the quarantine digest.
struct DigestMixer {
  uint64_t hash = 0;  // 0 until the first quarantined record

  void Mix(uint64_t value) {
    if (hash == 0) hash = 0xCBF29CE484222325ULL;
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  }
  void MixString(const std::string& s) {
    Mix(s.size());
    if (hash == 0) hash = 0xCBF29CE484222325ULL;
    for (char c : s) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001B3ULL;
    }
  }
};

}  // namespace

std::optional<GraphDatabase> ReadDatabase(std::istream& in,
                                          const IngestOptions& options,
                                          IngestReport* report,
                                          ParseError* error) {
  const ParseLimits& limits = options.limits;
  MemoryBudget memory = options.memory;
  IngestReport local_report;
  IngestReport& rep = report != nullptr ? *report : local_report;
  rep = IngestReport();

  GraphDatabase db;
  PendingGraph pending;
  bool has_current = false;   // a 't' header opened a graph
  bool skipping = false;      // discarding the rest of a quarantined graph
  bool stop_reading = false;
  size_t line_number = 0;
  size_t headers_seen = 0;    // input-order graph count ('t' records)
  DigestMixer digest;

  // Current graph's input-order index (0 before any header, matching the
  // ParseError convention).
  auto CurrentIndex = [&]() -> size_t {
    return headers_seen == 0 ? 0 : headers_seen - 1;
  };

  auto CountReason = [&](const std::string& reason) {
    for (auto& [name, count] : rep.quarantine_reasons) {
      if (name == reason) {
        ++count;
        return;
      }
    }
    rep.quarantine_reasons.emplace_back(reason, 1);
  };

  // Strict-mode failure: abandon the whole read.
  auto Fail = [&](const std::string& message) -> std::optional<GraphDatabase> {
    if (error != nullptr) {
      error->line = line_number;
      error->graph_index = CurrentIndex();
      error->message = message;
    }
    return std::nullopt;
  };

  // Quarantines the record at the current line: the enclosing graph (if one
  // is open) is dropped and its remaining lines discarded; pre-header junk
  // is counted by reason without claiming a graph.
  auto Quarantine = [&](const std::string& reason) {
    CountReason(reason);
    digest.Mix(CurrentIndex());
    digest.MixString(reason);
    if (has_current) {
      ++rep.graphs_quarantined;
      if (rep.quarantined_indices.size() < IngestReport::kMaxRecordedIndices) {
        rep.quarantined_indices.push_back(CurrentIndex());
      }
      pending.Clear();
      has_current = false;
      skipping = true;
    }
  };

  // Commits the pending graph into the database: db-wide label limit, memory
  // charge, then interning + assembly. Returns false when the graph was
  // quarantined or ingestion must stop (strict failures are reported through
  // `commit_error`).
  std::string commit_error;
  auto Commit = [&]() -> bool {
    if (!has_current) return true;
    has_current = false;

    // Distinct-label limit is database-wide: count only labels this graph
    // would newly intern.
    size_t new_labels = 0;
    size_t new_label_bytes = 0;
    {
      std::unordered_set<std::string> fresh;
      for (const std::string& name : pending.vertex_labels) {
        if (db.labels().Find(name) != LabelMap::kUnknown ||
            fresh.count(name) > 0) {
          continue;
        }
        fresh.insert(name);
        ++new_labels;
        new_label_bytes += name.size() + 64;  // name + intern table slack
      }
    }
    if (db.labels().size() + new_labels > limits.max_labels) {
      const std::string reason = "vertex label limit exceeded";
      if (options.strict) {
        commit_error = reason;
        return false;
      }
      // Re-open so Quarantine attributes the drop to this graph.
      has_current = true;
      Quarantine(reason);
      return false;
    }

    size_t bytes =
        ApproxGraphBytes(pending.vertex_labels.size(), pending.edges.size()) +
        new_label_bytes;
    if (!memory.TryCharge(bytes, "ingest.graph")) {
      rep.stopped_early = true;
      rep.mem_breached = true;
      rep.resource_error = memory.error();
      rep.stop_reason = rep.resource_error.ToString();
      stop_reading = true;
      pending.Clear();
      if (options.strict) {
        commit_error = rep.stop_reason;
        return false;
      }
      return false;
    }

    Graph g;
    g.Reserve(pending.vertex_labels.size(), pending.edges.size());
    for (const std::string& name : pending.vertex_labels) {
      g.AddVertex(db.labels().Intern(name));
    }
    for (const PendingGraph::PendingEdge& e : pending.edges) {
      g.AddEdge(e.u, e.v, e.label);
    }
    db.Add(std::move(g));
    ++rep.graphs_ingested;
    pending.Clear();

    if (limits.max_graphs != 0 && db.size() >= limits.max_graphs) {
      rep.stopped_early = true;
      rep.stop_reason = "max_graphs limit reached";
      stop_reading = true;
    }
    return true;
  };

  // Checks one input line and applies it when it passes. Returns why the
  // record is rejected, or "" when it was applied or is ignored: a blank or
  // comment line, a line of a graph being skipped, or a 't' header (whose
  // commit of the previous graph reports through `commit_error` and
  // `stop_reading`).
  auto CheckLine = [&](const std::string& line,
                       bool overlong) -> std::string {
    if (overlong) {
      return skipping ? std::string() : "line exceeds max_line_bytes";
    }
    if (line.empty() || line[0] == '#') return std::string();
    if (line.find('\0') != std::string::npos) {
      return skipping ? std::string() : "NUL byte in record";
    }
    if (CATAPULT_FAILPOINT("io.parse")) {
      return "injected parse failure (failpoint io.parse)";
    }

    std::istringstream tokens(line);
    char kind = 0;
    tokens >> kind;

    if (kind == 't') {
      if (!Commit() && (!commit_error.empty() || stop_reading)) {
        return std::string();
      }
      // Commit may have quarantined the finished graph (label limit), which
      // arms skip mode; the header at hand starts a fresh graph either way.
      skipping = false;
      ++headers_seen;
      has_current = true;
      return std::string();
    }
    if (skipping) return std::string();

    if (kind == 'v') {
      if (!has_current) return "vertex record before any 't' graph header";
      long long id = -1;
      std::string label;
      tokens >> id >> label;
      if (!tokens) return "expected 'v <id> <label>'";
      if (id != static_cast<long long>(pending.vertex_labels.size())) {
        return "vertex ids must be dense and in order (expected " +
               std::to_string(pending.vertex_labels.size()) + ", got " +
               std::to_string(id) + ")";
      }
      if (pending.vertex_labels.size() >= limits.max_vertices_per_graph) {
        return "vertex limit exceeded";
      }
      if (label.size() > limits.max_label_bytes) {
        return "vertex label too long";
      }
      pending.vertex_labels.push_back(std::move(label));
      return std::string();
    }
    if (kind == 'e') {
      if (!has_current) return "edge record before any 't' graph header";
      long long u = -1;
      long long v = -1;
      tokens >> u >> v;
      if (!tokens) return "expected 'e <u> <v> [<label>]'";
      if (u < 0 || v < 0) return "negative edge endpoint";
      if (u == v) return "self-loop edge " + std::to_string(u);
      const long long nv = static_cast<long long>(pending.vertex_labels.size());
      if (u >= nv || v >= nv) {
        return "edge endpoint out of range (graph has " + std::to_string(nv) +
               " vertices)";
      }
      if (pending.edges.size() >= limits.max_edges_per_graph) {
        return "edge limit exceeded";
      }
      long long edge_label = 0;
      tokens >> edge_label;  // Optional; leaves 0 on failure.
      uint64_t key =
          PackEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
      if (!pending.edge_keys.insert(key).second) {
        return "duplicate edge " + std::to_string(u) + "-" + std::to_string(v);
      }
      pending.edges.push_back({static_cast<VertexId>(u),
                               static_cast<VertexId>(v),
                               static_cast<Label>(edge_label)});
      return std::string();
    }
    return std::string("unknown record type '") + kind + "'";
  };

  std::string line;
  bool overlong = false;
  while (!stop_reading &&
         ReadBoundedLine(in, line, limits.max_line_bytes, &overlong)) {
    ++line_number;
    ++rep.lines_read;
    const std::string reason = CheckLine(line, overlong);
    if (!commit_error.empty()) return Fail(commit_error);
    if (reason.empty()) continue;
    // The one place a rejected record is acted on: strict mode abandons
    // the read, quarantine mode drops the record's graph and reads on.
    if (options.strict) return Fail(reason);
    Quarantine(reason);
  }

  if (!stop_reading && !Commit() && !commit_error.empty()) {
    return Fail(commit_error);
  }
  rep.quarantine_digest = digest.hash;
  rep.mem_peak_bytes = memory.peak();
  if (memory.HardBreached() && !rep.mem_breached) {
    rep.mem_breached = true;
    rep.resource_error = memory.error();
  }
  return db;
}

std::optional<GraphDatabase> ReadDatabaseFromFile(const std::string& path,
                                                  const IngestOptions& options,
                                                  IngestReport* report,
                                                  ParseError* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      error->line = 0;
      error->graph_index = 0;
      error->message = "cannot open file";
    }
    if (report != nullptr) *report = IngestReport();
    return std::nullopt;
  }
  return ReadDatabase(in, options, report, error);
}

std::optional<GraphDatabase> ReadDatabase(std::istream& in,
                                          ParseError* error) {
  IngestOptions strict;
  strict.strict = true;
  return ReadDatabase(in, strict, nullptr, error);
}

std::optional<GraphDatabase> ReadDatabaseFromFile(const std::string& path,
                                                  ParseError* error) {
  IngestOptions strict;
  strict.strict = true;
  return ReadDatabaseFromFile(path, strict, nullptr, error);
}

}  // namespace catapult
