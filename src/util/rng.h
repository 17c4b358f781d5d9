#ifndef CATAPULT_UTIL_RNG_H_
#define CATAPULT_UTIL_RNG_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/util/check.h"

namespace catapult {

// An Rng stream position, captured with Rng::SaveState and replayed with
// Rng::RestoreState. Checkpoints persist it so a resumed pipeline continues
// the exact pseudo-random stream of the interrupted run (bit-identical
// output). The all-zero state is invalid (xoshiro's absorbing fixed point);
// decoders must reject it.
struct RngState {
  std::array<uint64_t, 4> words = {0, 0, 0, 0};

  bool Valid() const {
    return (words[0] | words[1] | words[2] | words[3]) != 0;
  }
  friend bool operator==(const RngState& a, const RngState& b) {
    return a.words == b.words;
  }
};

// An rng stream position's byte layout (src/persist/fields.h). Payloads
// that resume a stream also Require it Valid(): the all-zero state is
// xoshiro's absorbing fixed point, which no healthy run produces.
template <class Io>
void Fields(Io& io, RngState& state) {
  io(state.words);
}

// Deterministic pseudo-random number generator (xoshiro256** seeded via
// SplitMix64). Every randomised component in the library takes an explicit
// `Rng&` so that experiments are reproducible bit-for-bit from a seed.
//
// Not thread-safe; create one Rng per thread.
class Rng {
 public:
  // Seeds the generator. Two Rng instances built from the same seed produce
  // identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Captures the current stream position.
  RngState SaveState() const;

  // Resumes from a previously saved position: after RestoreState(s) the
  // generator produces exactly the values it produced after SaveState()
  // returned s. `state` must be Valid() (CHECK).
  void RestoreState(const RngState& state);

  // Returns the next raw 64-bit value.
  uint64_t Next();

  // Splits off an independent child generator: consumes exactly one draw
  // from this stream and seeds the child from it (SplitMix64 expansion in
  // the child's constructor decorrelates the streams). Parallel tasks each
  // take a pre-split child on the calling thread, in task order, so the
  // parent stream's consumption — and therefore the run's entire output —
  // is independent of execution interleaving and thread count.
  Rng Split() { return Rng(Next()); }

  // Returns a uniform integer in [0, bound). `bound` must be positive.
  uint64_t UniformInt(uint64_t bound);

  // Returns a uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInRange(int64_t lo, int64_t hi);

  // Returns a uniform double in [0, 1).
  double UniformReal();

  // Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Samples an index in [0, weights.size()) with probability proportional to
  // weights[i]. Zero-weight entries are never chosen. Requires at least one
  // strictly positive weight.
  //
  // This is the continuous equivalent of the paper's LCM integerisation of
  // candidate-adjacent-edge weights (Section 5): replicating an edge k times
  // and drawing uniformly is identical to drawing proportionally to k.
  size_t WeightedIndex(const std::vector<double>& weights);

  // Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap(items[i - 1], items[j]);
    }
  }

  // Samples `k` distinct indices from [0, n) (reservoir sampling). If
  // k >= n, returns all indices 0..n-1.
  std::vector<size_t> SampleIndices(size_t n, size_t k);

 private:
  uint64_t state_[4];
};

}  // namespace catapult

#endif  // CATAPULT_UTIL_RNG_H_
