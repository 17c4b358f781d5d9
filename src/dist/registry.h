#ifndef CATAPULT_DIST_REGISTRY_H_
#define CATAPULT_DIST_REGISTRY_H_

#include <chrono>
#include <cstdint>
#include <vector>

// Fleet membership registry (DESIGN.md §12). Every admitted worker
// is a member keyed by (worker-id, generation). The generation is the
// fencing token: when the supervisor declares a connection dead (heartbeat
// deadline missed, write stall, EOF mid-shard) it marks the member dead,
// which retires the current generation; a zombie still holding the old
// connection keeps its old generation, so every frame it sends afterwards
// fails the IsCurrent check and is counted (dist.net.fenced_frames) but
// never applied. When the worker reconnects presenting its previous
// identity, Join mints generation+1 for the same worker-id — the member's
// history (reconnect count, death time for the reconnect-latency
// histogram) survives the fence.

namespace catapult::dist {

class WorkerRegistry {
 public:
  using Clock = std::chrono::steady_clock;

  struct Admission {
    uint64_t worker_id = 0;
    uint64_t generation = 0;
    bool reconnect = false;  // a previously-seen identity rejoined
    double down_ms = 0.0;    // death-to-rejoin latency (reconnects only)
  };

  // Admits a join. A non-zero (prev_id, prev_gen) naming a known member
  // whose current-or-retired generation matches bumps that member to a
  // fresh generation (a reconnect); anything else — including a stale
  // identity from a different run — mints a new member at generation 1.
  Admission Join(uint64_t prev_worker_id, uint64_t prev_generation,
                 Clock::time_point now);

  // True iff `generation` is `worker_id`'s current generation and the
  // member has not been fenced. Every state-changing frame is gated here.
  bool IsCurrent(uint64_t worker_id, uint64_t generation) const;

  // Fences `worker_id`'s current generation: IsCurrent goes false until
  // the worker rejoins at a bumped generation. Idempotent.
  void MarkDead(uint64_t worker_id, Clock::time_point now);

  size_t alive() const;
  size_t total() const { return members_.size(); }

  // Point-in-time roster for status endpoints: one entry per member ever
  // admitted, with its current generation and liveness.
  struct MemberInfo {
    uint64_t worker_id = 0;
    uint64_t generation = 0;
    bool alive = false;
  };
  std::vector<MemberInfo> Members() const {
    std::vector<MemberInfo> out;
    out.reserve(members_.size());
    for (size_t i = 0; i < members_.size(); ++i) {
      out.push_back(MemberInfo{static_cast<uint64_t>(i + 1),
                               members_[i].generation, members_[i].alive});
    }
    return out;
  }

 private:
  struct Member {
    uint64_t generation = 1;
    bool alive = true;
    Clock::time_point died_at{};
  };
  std::vector<Member> members_;  // worker_id i lives at members_[i - 1]
};

}  // namespace catapult::dist

#endif  // CATAPULT_DIST_REGISTRY_H_
