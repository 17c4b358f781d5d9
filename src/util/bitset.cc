#include "src/util/bitset.h"

#include <bit>

namespace catapult {

size_t DynamicBitset::Count() const {
  size_t total = 0;
  for (uint64_t word : words_) total += std::popcount(word);
  return total;
}

bool DynamicBitset::None() const {
  for (uint64_t word : words_) {
    if (word != 0) return false;
  }
  return true;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  CATAPULT_CHECK(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  CATAPULT_CHECK(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

size_t DynamicBitset::HammingDistance(const DynamicBitset& other) const {
  CATAPULT_CHECK(num_bits_ == other.num_bits_);
  size_t total = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    total += std::popcount(words_[i] ^ other.words_[i]);
  }
  return total;
}

std::vector<size_t> DynamicBitset::ToIndices() const {
  std::vector<size_t> indices;
  indices.reserve(Count());
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      int bit = std::countr_zero(word);
      indices.push_back((w << 6) + static_cast<size_t>(bit));
      word &= word - 1;
    }
  }
  return indices;
}

}  // namespace catapult
