// catapult_client - client for the resident pattern-selection server
// (examples/catapult_serve.cpp, DESIGN.md §13).
//
// Subcommands:
//   mine --socket PATH [--gamma N] [--min-size K] [--max-size K]
//        [--deadline-ms MS] [--bypass-cache] [--retries N] [--out FILE]
//       Request a canned-pattern panel. A shed (overloaded/draining) server
//       is retried up to --retries times, honouring its retry_after_ms
//       hint. --out writes the panel as a pattern database in the gSpan
//       text format — byte-comparable against `catapult_cli mine` output
//       for the same database, seed, and budget.
//   ping --socket PATH
//       Liveness probe; prints sessions/queue/draining status.
//
// Exit status:
//   0  success (complete panel / pong)
//   1  usage or transport error (cannot connect, server vanished)
//   2  server rejected the request (invalid budget, version mismatch)
//   3  shed and retries exhausted — the server is overloaded or draining
//   5  degraded panel (deadline/memory cut the server's work short;
//      the panel was still printed/written)

#include <cstdio>
#include <string>

#include "examples/flags.h"
#include "src/graph/graph_database.h"
#include "src/graph/io.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"

namespace {

using namespace catapult;
using examples::Flags;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitRejected = 2;
constexpr int kExitShed = 3;
constexpr int kExitDegraded = 5;

int Usage() {
  std::fprintf(stderr,
               "usage: catapult_client <mine|ping> --socket PATH [--flags]\n"
               "(see the header of examples/catapult_client.cpp)\n");
  return kExitUsage;
}

// Rebuilds a writable pattern database from a decoded panel: the label
// names are interned in panel order, so the graphs' label ids resolve to
// the same strings the server's database used.
GraphDatabase PanelDatabase(const serve::Panel& panel) {
  GraphDatabase db;
  for (const std::string& name : panel.labels) db.labels().Intern(name);
  for (const SelectedPattern& p : panel.patterns) db.Add(p.graph);
  return db;
}

int CmdMine(const Flags& flags) {
  auto socket_path = flags.Get("socket");
  if (!socket_path) return Usage();
  serve::MineRequest request;
  request.gamma = flags.GetCount("gamma", 12);
  request.eta_min = flags.GetCount("min-size", 3);
  request.eta_max = flags.GetCount("max-size", 8);
  request.deadline_ms = static_cast<double>(flags.GetInt("deadline-ms", 0));
  request.bypass_cache = flags.GetBool("bypass-cache");
  const size_t retries = flags.GetCount("retries", 3);

  serve::ServeClient client;
  if (std::string error = client.Connect(*socket_path); !error.empty()) {
    std::fprintf(stderr, "%s: %s\n", socket_path->c_str(), error.c_str());
    return kExitUsage;
  }
  std::string retry_log;
  const serve::ServeClient::MineOutcome outcome =
      client.MineWithRetry(request, retries + 1, 30000.0, &retry_log);
  // Per-attempt shed lines carry the server-assigned request id so this
  // client's stderr joins against the server's --request-log.
  if (!retry_log.empty()) std::fputs(retry_log.c_str(), stderr);
  using Kind = serve::ServeClient::MineOutcome::Kind;
  switch (outcome.kind) {
    case Kind::kTransport:
      std::fprintf(stderr, "transport error: %s\n", outcome.error.c_str());
      return kExitUsage;
    case Kind::kError:
      std::fprintf(stderr, "request rejected (request_id=%llu): %s\n",
                   static_cast<unsigned long long>(outcome.request_id),
                   outcome.error.c_str());
      return kExitRejected;
    case Kind::kShed:
      std::fprintf(stderr,
                   "shed after %zu attempts: %s (request_id=%llu, queue depth "
                   "%llu, retry after %.0f ms)\n",
                   retries + 1, serve::ToString(outcome.shed.reason),
                   static_cast<unsigned long long>(outcome.request_id),
                   static_cast<unsigned long long>(outcome.shed.queue_depth),
                   outcome.shed.retry_after_ms);
      return kExitShed;
    case Kind::kPanel:
      break;
  }

  const serve::Panel& panel = outcome.panel;
  std::printf("%zu patterns (%s%s)\n", panel.patterns.size(),
              outcome.reply.cache_hit ? "cached" : "computed",
              panel.degraded ? ", degraded" : "");
  for (const SelectedPattern& p : panel.patterns) {
    std::printf("  |E|=%zu score=%.4f ccov=%.3f div=%.1f cog=%.2f%s\n",
                p.graph.NumEdges(), p.score, p.ccov, p.div, p.cog,
                p.fallback ? " [fallback]" : "");
  }
  if (auto out = flags.Get("out")) {
    GraphDatabase db = PanelDatabase(panel);
    if (IoStatus status = WriteDatabaseToFile(db, *out); !status) {
      std::fprintf(stderr, "cannot write %s: %s\n", out->c_str(),
                   status.message().c_str());
      return kExitUsage;
    }
    std::printf("wrote %zu patterns to %s\n", panel.patterns.size(),
                out->c_str());
  }
  return panel.degraded ? kExitDegraded : kExitOk;
}

int CmdPing(const Flags& flags) {
  auto socket_path = flags.Get("socket");
  if (!socket_path) return Usage();
  serve::ServeClient client;
  if (std::string error = client.Connect(*socket_path); !error.empty()) {
    std::fprintf(stderr, "%s: %s\n", socket_path->c_str(), error.c_str());
    return kExitUsage;
  }
  serve::PongReply pong;
  if (std::string error = client.Ping(&pong); !error.empty()) {
    std::fprintf(stderr, "ping failed: %s\n", error.c_str());
    return kExitUsage;
  }
  std::printf("pong: sessions=%llu queue=%llu draining=%d\n",
              static_cast<unsigned long long>(pong.sessions),
              static_cast<unsigned long long>(pong.queue_depth),
              pong.draining ? 1 : 0);
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags flags(argc, argv, 2);
  const std::string command = argv[1];
  if (command == "mine") return CmdMine(flags);
  if (command == "ping") return CmdPing(flags);
  return Usage();
}
