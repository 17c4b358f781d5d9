#ifndef CATAPULT_PERSIST_RECORD_IO_H_
#define CATAPULT_PERSIST_RECORD_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/bitset.h"

// Durable record files: the on-disk unit of the checkpoint store
// (DESIGN.md Section 8). Every artifact is one self-validating file:
//
//   offset  size  field
//        0     8  magic "CATCKPT1"
//        8     4  format version (little-endian u32, currently 1)
//       12     4  record type (RecordType)
//       16     8  config fingerprint of the producing run
//       24     8  payload size in bytes
//       32     4  CRC32 of the payload
//       36     4  CRC32 of the 36 header bytes above
//       40     -  payload
//
// Readers validate magic, header checksum, version, type, fingerprint,
// payload size, and payload checksum, in that order, and report the first
// mismatch as a human-readable reason — a corrupt checkpoint is always a
// logged decision, never an abort. All integers are little-endian
// regardless of host byte order.

namespace catapult::persist {

// CRC32 (IEEE 802.3, polynomial 0xEDB88320) of `data`.
uint32_t Crc32(const void* data, size_t size);

// What a record file holds. Values are part of the on-disk format; never
// renumber.
enum class RecordType : uint32_t {
  kManifest = 1,
  kClustering = 2,
  kCsgs = 3,
  kSelection = 4,
  // One coarse cluster's fine clusters + CSGs from the sharded phase
  // (src/dist/), written by CheckpointStore::SaveShard under shards/.
  kShard = 5,
};

// The printable name of a record type ("manifest", "clustering", ...).
const char* RecordTypeName(RecordType type);

// Append-only little-endian encoder for record payloads.
class BinaryWriter {
 public:
  void PutU8(uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void PutU32(uint32_t value);
  void PutU64(uint64_t value);
  // Doubles are stored as their IEEE-754 bit pattern, so values (pattern
  // scores, decayed weights) round-trip bit-exactly.
  void PutDouble(double value);
  void PutString(const std::string& value);   // u64 length + bytes
  void PutBitset(const DynamicBitset& bits);  // u64 universe + set indices

  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

// Bounds-checked decoder. Reads past the end (or any malformed field) set a
// sticky failure flag and yield zero values; callers check ok() once at the
// end instead of after every field, so corrupt payloads can never read out
// of bounds or abort.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& buffer) : buffer_(buffer) {}

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  double GetDouble();
  std::string GetString();
  DynamicBitset GetBitset();

  // True while every read so far was in bounds and well-formed.
  bool ok() const { return ok_; }
  // Marks the payload malformed: a check above the byte level failed.
  void Fail() { ok_ = false; }
  // True when the whole buffer was consumed (trailing garbage = corrupt).
  bool AtEnd() const { return position_ == buffer_.size(); }
  size_t Remaining() const { return buffer_.size() - position_; }

 private:
  bool Ensure(size_t bytes);

  const std::string& buffer_;
  size_t position_ = 0;
  bool ok_ = true;
};

// Atomically writes `payload` to `path` as a record of `type`. Returns an
// empty string on success, else a descriptive error. `payload_crc`
// (optional) receives the payload checksum for manifest bookkeeping.
std::string WriteRecordFile(const std::string& path, RecordType type,
                            uint64_t config_fingerprint,
                            const std::string& payload,
                            uint32_t* payload_crc = nullptr);

// Validates an in-memory record image (header + payload) exactly as
// ReadRecordFile does, without touching the filesystem. This is the pure
// core of record reading — the fuzz targets feed it arbitrary byte strings
// directly. Same contract as ReadRecordFile minus the I/O errors.
std::string DecodeRecordBytes(const std::string& file,
                              RecordType expected_type,
                              uint64_t expected_fingerprint,
                              std::string* payload,
                              uint32_t* payload_crc = nullptr);

// Reads and validates the record at `path`. On success returns an empty
// string and fills `payload` (and optionally `payload_crc`); on any
// validation failure returns the reason ("bad magic", "checksum mismatch",
// "config fingerprint mismatch (stale checkpoint?)", "truncated payload",
// ...) and leaves `payload` empty.
std::string ReadRecordFile(const std::string& path, RecordType expected_type,
                           uint64_t expected_fingerprint, std::string* payload,
                           uint32_t* payload_crc = nullptr);

}  // namespace catapult::persist

#endif  // CATAPULT_PERSIST_RECORD_IO_H_
