#ifndef CATAPULT_PERSIST_FIELDS_H_
#define CATAPULT_PERSIST_FIELDS_H_

#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/persist/record_io.h"
#include "src/util/bitset.h"

// One layout per payload (DESIGN.md §8). Every payload type — checkpoint
// records, fleet frames, service messages — states its byte layout once, as
// a field list next to its struct:
//
//   template <class Io>
//   void Fields(Io& io, T& t) {
//     io(t.a, t.b, t.c);
//     io.Require(t.c.size() <= kMaxC);
//   }
//
// FieldWriter walks the list to encode and FieldReader walks it to decode,
// so the two cannot disagree. A field's encoding follows from its type:
// bool is a u8; uint32_t and enums over it are a u32; uint64_t is a u64;
// double is its IEEE-754 bits; a string is its u64 length and its bytes; a
// vector is its u64 count and its elements; an array or a pair is its
// elements; a DynamicBitset is BinaryWriter::PutBitset's form; any other
// type is its own field list. Graph and ClusterSummaryGraph, which decode
// through their validating constructors, give FieldWriter and FieldReader
// one overload each instead of a template (codec.h).

namespace catapult::persist {

template <class T>
struct IsVector : std::false_type {};
template <class T>
struct IsVector<std::vector<T>> : std::true_type {};
template <class T>
struct IsArrayOrPair : std::false_type {};
template <class T, size_t N>
struct IsArrayOrPair<std::array<T, N>> : std::true_type {};
template <class A, class B>
struct IsArrayOrPair<std::pair<A, B>> : std::true_type {};

// Walks a field list to encode it.
class FieldWriter {
 public:
  template <class... T>
  void operator()(const T&... fields) {
    (Put(fields), ...);
  }
  // Decode-side checks; the writer has nothing to check.
  void Require(bool) {}
  void StopIf(bool) {}

  std::string TakeBuffer() { return out_.TakeBuffer(); }

 private:
  template <class T>
  void Put(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      out_.PutU8(value ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(std::is_same_v<std::underlying_type_t<T>, uint32_t>);
      out_.PutU32(static_cast<uint32_t>(value));
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      out_.PutU32(value);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      out_.PutU64(value);
    } else if constexpr (std::is_same_v<T, double>) {
      out_.PutDouble(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
      out_.PutString(value);
    } else if constexpr (std::is_same_v<T, DynamicBitset>) {
      out_.PutBitset(value);
    } else if constexpr (IsVector<T>::value) {
      out_.PutU64(value.size());
      for (const auto& element : value) Put(element);
    } else if constexpr (IsArrayOrPair<T>::value) {
      std::apply([this](const auto&... parts) { (Put(parts), ...); }, value);
    } else {
      // Field lists take their object by mutable reference so one list
      // serves both directions; the writer only reads through it.
      Fields(*this, const_cast<T&>(value));
    }
  }

  BinaryWriter out_;
};

// Walks a field list to decode it, with BinaryReader's sticky-fail
// contract: a read past the end or a failed Require rejects the payload,
// and every later read yields zeros, so any byte string is either decoded
// whole or rejected, never read out of bounds.
class FieldReader {
 public:
  explicit FieldReader(const std::string& bytes) : in_(bytes) {}

  template <class... T>
  void operator()(T&... fields) {
    (Get(fields), ...);
  }
  // Rejects the payload unless `condition` holds.
  void Require(bool condition) {
    if (!condition && !stopped_) in_.Fail();
  }
  // When `condition` holds, the rest of the payload is accepted unread: a
  // versioned layout that is not this build's ends at its version.
  void StopIf(bool condition) {
    if (condition && in_.ok()) stopped_ = true;
  }

  bool ok() const { return in_.ok(); }
  // True when every field decoded and every check held, and the list used
  // the whole payload (or stopped early).
  bool Finished() const { return in_.ok() && (stopped_ || in_.AtEnd()); }

 private:
  template <class T>
  void Get(T& value) {
    if (stopped_) return;
    if constexpr (std::is_same_v<T, bool>) {
      value = in_.GetU8() != 0;
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(std::is_same_v<std::underlying_type_t<T>, uint32_t>);
      value = static_cast<T>(in_.GetU32());
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      value = in_.GetU32();
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      value = in_.GetU64();
    } else if constexpr (std::is_same_v<T, double>) {
      value = in_.GetDouble();
    } else if constexpr (std::is_same_v<T, std::string>) {
      value = in_.GetString();
    } else if constexpr (std::is_same_v<T, DynamicBitset>) {
      value = in_.GetBitset();
    } else if constexpr (IsVector<T>::value) {
      GetVector(value);
    } else if constexpr (IsArrayOrPair<T>::value) {
      std::apply([this](auto&... parts) { (Get(parts), ...); }, value);
    } else {
      Fields(*this, value);
    }
  }

  template <class T>
  void GetVector(std::vector<T>& elements) {
    elements.clear();
    const uint64_t count = in_.GetU64();
    // Every element takes at least one byte, and a scalar exactly its
    // width, so a count the bytes left cannot hold is rejected before
    // anything is allocated.
    constexpr bool kScalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;
    constexpr size_t kMinBytes = kScalar ? sizeof(T) : 1;
    if (!in_.ok() || count > in_.Remaining() / kMinBytes) {
      in_.Fail();
      return;
    }
    if constexpr (kScalar) elements.reserve(count);
    for (uint64_t i = 0; i < count && in_.ok(); ++i) {
      Get(elements.emplace_back());
    }
  }

  BinaryReader in_;
  bool stopped_ = false;
};

// Encodes `payload` by its field list.
template <class T>
std::string Encode(const T& payload) {
  FieldWriter io;
  io(payload);
  return io.TakeBuffer();
}

// Decodes `bytes` into `*payload` by its field list. False when the bytes
// are not exactly one such payload; `*payload` is then unspecified.
template <class T>
bool Decode(const std::string& bytes, T* payload) {
  FieldReader io(bytes);
  io(*payload);
  return io.Finished();
}

}  // namespace catapult::persist

#endif  // CATAPULT_PERSIST_FIELDS_H_
