#ifndef CATAPULT_UTIL_BITSET_H_
#define CATAPULT_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/check.h"

namespace catapult {

// Fixed-universe dynamic bitset. Used for feature vectors (graph contains
// frequent subtree t?) and for the per-vertex/edge supporting-graph sets of
// cluster summary graphs.
class DynamicBitset {
 public:
  DynamicBitset() = default;

  // Creates a bitset over the universe [0, num_bits) with all bits clear.
  explicit DynamicBitset(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  // Number of bits in the universe.
  size_t size() const { return num_bits_; }

  // Sets bit `i`.
  void Set(size_t i) {
    CATAPULT_CHECK(i < num_bits_);
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }

  // Clears bit `i`.
  void Clear(size_t i) {
    CATAPULT_CHECK(i < num_bits_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  // Returns bit `i`.
  bool Test(size_t i) const {
    CATAPULT_CHECK(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  // Number of set bits.
  size_t Count() const;

  // True if no bit is set.
  bool None() const;

  // In-place union / intersection. Both operands must share a universe size.
  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator&=(const DynamicBitset& other);

  // Hamming distance (number of differing bits).
  size_t HammingDistance(const DynamicBitset& other) const;

  // Indices of all set bits, ascending.
  std::vector<size_t> ToIndices() const;

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace catapult

#endif  // CATAPULT_UTIL_BITSET_H_
