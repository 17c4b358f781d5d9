// Tests of the durability layer (DESIGN.md Section 8): atomic file writes,
// the checksummed record format, the checkpoint store and its recovery
// ladder, options validation, and end-to-end kill/resume runs that must
// reproduce the uninterrupted pipeline bit-identically. Corruption is
// injected two ways: failpoints on the write/read paths and direct surgery
// on the checkpoint files.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/graph/io.h"
#include "src/persist/checkpoint.h"
#include "src/persist/record_io.h"
#include "src/util/atomic_file.h"
#include "src/util/failpoint.h"
#include "src/util/rng.h"
#include "tests/scratch_dir.h"

namespace catapult {
namespace {

using persist::BinaryReader;
using persist::BinaryWriter;
using persist::RecordType;

class PersistTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

GraphDatabase SmallDb(uint64_t seed = 31, size_t n = 40) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = n;
  gen.min_vertices = 8;
  gen.max_vertices = 14;
  gen.seed = seed;
  return GenerateMoleculeDatabase(gen);
}

CatapultOptions FastOptions() {
  CatapultOptions options;
  options.selector.budget.eta_min = 3;
  options.selector.budget.eta_max = 6;
  options.selector.budget.gamma = 6;
  options.selector.walks_per_candidate = 8;
  options.clustering.max_cluster_size = 10;
  options.clustering.fine_mcs.node_budget = 3000;
  options.seed = 99;
  return options;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Flips one bit of the byte at `offset` in `path`.
void FlipByteAt(const std::string& path, size_t offset) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] ^= 0x04;
  WriteFileBytes(path, bytes);
}

std::string CheckpointPath(const std::string& dir, RecordType type) {
  return dir + "/" + CheckpointStore::FileNameFor(type);
}

bool HasEvent(const std::vector<CheckpointEvent>& events,
              CheckpointEvent::Kind kind, const std::string& phase) {
  for (const CheckpointEvent& e : events) {
    if (e.kind == kind && e.phase == phase) return true;
  }
  return false;
}

// The acceptance bar for resume: the panel must match the uninterrupted
// run bit-for-bit, scores included.
void ExpectSamePanel(const CatapultResult& expected,
                     const CatapultResult& actual) {
  ASSERT_EQ(expected.selection.patterns.size(),
            actual.selection.patterns.size());
  for (size_t i = 0; i < expected.selection.patterns.size(); ++i) {
    const SelectedPattern& a = expected.selection.patterns[i];
    const SelectedPattern& b = actual.selection.patterns[i];
    EXPECT_EQ(a.graph.DebugString(), b.graph.DebugString()) << "pattern " << i;
    EXPECT_EQ(a.score, b.score) << "pattern " << i;
    EXPECT_EQ(a.ccov, b.ccov) << "pattern " << i;
    EXPECT_EQ(a.lcov, b.lcov) << "pattern " << i;
    EXPECT_EQ(a.div, b.div) << "pattern " << i;
    EXPECT_EQ(a.cog, b.cog) << "pattern " << i;
    EXPECT_EQ(a.fallback, b.fallback) << "pattern " << i;
  }
}

// ---------------------------------------------------------------------------
// CRC32 and the binary codec.

TEST_F(PersistTest, Crc32KnownVector) {
  // The standard IEEE 802.3 check value.
  EXPECT_EQ(persist::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(persist::Crc32("", 0), 0u);
}

TEST_F(PersistTest, BinaryCodecRoundTrip) {
  BinaryWriter out;
  out.PutU8(7);
  out.PutU32(0xDEADBEEFu);
  out.PutU64(uint64_t{1} << 50);
  out.PutDouble(-0.1);
  out.PutString("hello");
  DynamicBitset bits(10);
  bits.Set(2);
  bits.Set(9);
  out.PutBitset(bits);

  BinaryReader in(out.buffer());
  EXPECT_EQ(in.GetU8(), 7);
  EXPECT_EQ(in.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(in.GetU64(), uint64_t{1} << 50);
  EXPECT_EQ(in.GetDouble(), -0.1);
  EXPECT_EQ(in.GetString(), "hello");
  DynamicBitset back = in.GetBitset();
  EXPECT_EQ(back.size(), 10u);
  EXPECT_TRUE(back.Test(2));
  EXPECT_TRUE(back.Test(9));
  EXPECT_TRUE(in.ok());
  EXPECT_TRUE(in.AtEnd());
}

TEST_F(PersistTest, BinaryReaderStickyFailureOnTruncation) {
  BinaryWriter out;
  out.PutU64(123);
  std::string truncated = out.buffer().substr(0, 3);
  BinaryReader in(truncated);
  EXPECT_EQ(in.GetU64(), 0u);  // out of bounds -> zero, not a crash
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.GetU32(), 0u);  // stays failed
  EXPECT_EQ(in.GetString(), "");
  EXPECT_FALSE(in.ok());
}

TEST_F(PersistTest, BinaryReaderRejectsHostileBitset) {
  // count > universe would otherwise read far out of bounds.
  BinaryWriter out;
  out.PutU64(4);        // universe
  out.PutU64(1000000);  // claimed count
  BinaryReader in(out.buffer());
  (void)in.GetBitset();
  EXPECT_FALSE(in.ok());
}

// ---------------------------------------------------------------------------
// Record files.

TEST_F(PersistTest, RecordFileRoundTrip) {
  std::string dir = ScratchDir("rt");
  std::string path = dir + "/r.ckpt";
  ASSERT_EQ(persist::WriteRecordFile(path, RecordType::kClustering, 42,
                                     "payload bytes"),
            "");
  std::string payload;
  EXPECT_EQ(persist::ReadRecordFile(path, RecordType::kClustering, 42,
                                    &payload),
            "");
  EXPECT_EQ(payload, "payload bytes");
}

TEST_F(PersistTest, RecordFileRejectsWrongTypeAndFingerprint) {
  std::string dir = ScratchDir("wrong");
  std::string path = dir + "/r.ckpt";
  ASSERT_EQ(persist::WriteRecordFile(path, RecordType::kCsgs, 42, "x"), "");
  std::string payload;
  std::string error =
      persist::ReadRecordFile(path, RecordType::kSelection, 42, &payload);
  EXPECT_NE(error.find("type mismatch"), std::string::npos) << error;
  error = persist::ReadRecordFile(path, RecordType::kCsgs, 43, &payload);
  EXPECT_NE(error.find("fingerprint mismatch"), std::string::npos) << error;
}

TEST_F(PersistTest, RecordFileDetectsSurgery) {
  std::string dir = ScratchDir("surgery");
  std::string path = dir + "/r.ckpt";
  std::string body(100, 'a');
  ASSERT_EQ(persist::WriteRecordFile(path, RecordType::kCsgs, 7, body), "");
  std::string payload;

  // Bit flip in the payload.
  FlipByteAt(path, 60);
  EXPECT_EQ(persist::ReadRecordFile(path, RecordType::kCsgs, 7, &payload),
            "payload checksum mismatch");

  // Bit flip in the header.
  ASSERT_EQ(persist::WriteRecordFile(path, RecordType::kCsgs, 7, body), "");
  FlipByteAt(path, 12);
  EXPECT_EQ(persist::ReadRecordFile(path, RecordType::kCsgs, 7, &payload),
            "header checksum mismatch");

  // Truncation.
  ASSERT_EQ(persist::WriteRecordFile(path, RecordType::kCsgs, 7, body), "");
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 10));
  EXPECT_EQ(persist::ReadRecordFile(path, RecordType::kCsgs, 7, &payload),
            "truncated payload");

  // Wrong magic.
  WriteFileBytes(path, "NOTACKPT" + bytes.substr(8));
  EXPECT_EQ(persist::ReadRecordFile(path, RecordType::kCsgs, 7, &payload),
            "bad magic");

  // Zero-length file.
  WriteFileBytes(path, "");
  EXPECT_EQ(persist::ReadRecordFile(path, RecordType::kCsgs, 7, &payload),
            "truncated header");
}

// ---------------------------------------------------------------------------
// Atomic writes under injected faults.

TEST_F(PersistTest, AtomicWriteReplacesOrPreservesNeverTears) {
  std::string dir = ScratchDir("atomic");
  std::string path = dir + "/file.txt";
  ASSERT_EQ(AtomicWriteFile(path, "version 1"), "");
  EXPECT_EQ(ReadFileBytes(path), "version 1");

  {
    failpoint::ScopedFailpoint fp("persist.fsync");
    std::string error = AtomicWriteFile(path, "version 2");
    EXPECT_NE(error, "");
    // The failed write left the previous version intact and no temp file.
    EXPECT_EQ(ReadFileBytes(path), "version 1");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  }
  {
    failpoint::ScopedFailpoint fp("persist.rename");
    std::string error = AtomicWriteFile(path, "version 3");
    EXPECT_NE(error, "");
    EXPECT_EQ(ReadFileBytes(path), "version 1");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  }
  ASSERT_EQ(AtomicWriteFile(path, "version 4"), "");
  EXPECT_EQ(ReadFileBytes(path), "version 4");
}

TEST_F(PersistTest, TornWriteIsCaughtByRecordValidation) {
  std::string dir = ScratchDir("torn");
  std::string path = dir + "/r.ckpt";
  {
    // A torn write publishes a prefix of the record; the writer cannot tell,
    // so the read-side validation has to.
    failpoint::ScopedFailpoint fp("persist.torn_write");
    ASSERT_EQ(persist::WriteRecordFile(path, RecordType::kCsgs, 7,
                                       std::string(200, 'b')),
              "");
  }
  std::string payload;
  std::string error =
      persist::ReadRecordFile(path, RecordType::kCsgs, 7, &payload);
  EXPECT_NE(error, "");
  EXPECT_TRUE(payload.empty());
}

TEST_F(PersistTest, ShortReadAndBitFlipFailpointsAreCaught) {
  std::string dir = ScratchDir("read_faults");
  std::string path = dir + "/r.ckpt";
  ASSERT_EQ(persist::WriteRecordFile(path, RecordType::kCsgs, 7,
                                     std::string(200, 'c')),
            "");
  std::string payload;
  {
    failpoint::ScopedFailpoint fp("persist.short_read");
    EXPECT_NE(persist::ReadRecordFile(path, RecordType::kCsgs, 7, &payload),
              "");
  }
  {
    failpoint::ScopedFailpoint fp("persist.bit_flip");
    EXPECT_NE(persist::ReadRecordFile(path, RecordType::kCsgs, 7, &payload),
              "");
  }
  // Undisturbed, the record still reads fine.
  EXPECT_EQ(persist::ReadRecordFile(path, RecordType::kCsgs, 7, &payload),
            "");
}

// ---------------------------------------------------------------------------
// Atomic database writes (the io.cc satellite).

TEST_F(PersistTest, WriteDatabaseToFileIsAtomic) {
  std::string dir = ScratchDir("db");
  std::string path = dir + "/db.txt";
  GraphDatabase db = SmallDb(5, 10);
  IoStatus status = WriteDatabaseToFile(db, path);
  ASSERT_TRUE(status) << status.message();
  std::string original = ReadFileBytes(path);
  auto reloaded = ReadDatabaseFromFile(path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->size(), db.size());

  // A failed overwrite reports why and leaves the original untouched.
  failpoint::ScopedFailpoint fp("persist.fsync");
  status = WriteDatabaseToFile(SmallDb(6, 4), path);
  EXPECT_FALSE(status);
  EXPECT_NE(status.message(), "");
  EXPECT_EQ(ReadFileBytes(path), original);
}

TEST_F(PersistTest, TruncatedDatabaseFileFailsGracefully) {
  std::string dir = ScratchDir("truncdb");
  std::string path = dir + "/db.txt";
  GraphDatabase db = SmallDb(5, 10);
  ASSERT_TRUE(WriteDatabaseToFile(db, path));
  std::string bytes = ReadFileBytes(path);
  // Cut the file at every eighth byte; parsing must either succeed on the
  // prefix or fail with a diagnostic — never abort.
  for (size_t cut = 0; cut < bytes.size(); cut += 8) {
    WriteFileBytes(path, bytes.substr(0, cut));
    ParseError error;
    auto parsed = ReadDatabaseFromFile(path, &error);
    if (!parsed) {
      EXPECT_NE(error.message, "");
    }
  }
}

// ---------------------------------------------------------------------------
// Options validation.

TEST_F(PersistTest, ValidateCatapultOptionsAcceptsDefaults) {
  EXPECT_TRUE(ValidateCatapultOptions(FastOptions()).empty());
  CatapultOptions sampling = FastOptions();
  sampling.use_sampling = true;
  EXPECT_TRUE(ValidateCatapultOptions(sampling).empty());
}

TEST_F(PersistTest, ValidateCatapultOptionsRejectsBadBudget) {
  CatapultOptions options = FastOptions();
  options.selector.budget.eta_min = 2;  // Definition 3.1 requires > 2
  EXPECT_FALSE(ValidateCatapultOptions(options).empty());

  options = FastOptions();
  options.selector.budget.eta_max = options.selector.budget.eta_min - 1;
  EXPECT_FALSE(ValidateCatapultOptions(options).empty());

  options = FastOptions();
  options.selector.budget.gamma = 0;
  EXPECT_FALSE(ValidateCatapultOptions(options).empty());

  options = FastOptions();
  options.selector.walks_per_candidate = 0;
  EXPECT_FALSE(ValidateCatapultOptions(options).empty());

  options = FastOptions();
  options.selector.weight_decay = 0.0;
  EXPECT_FALSE(ValidateCatapultOptions(options).empty());

  options = FastOptions();
  options.resume = true;  // resume without a checkpoint directory
  EXPECT_FALSE(ValidateCatapultOptions(options).empty());
}

// eta_max arrives from clients and sizes per-size tallies: it is bounded
// by kMaxPatternEdges, not only ordered against eta_min.
TEST_F(PersistTest, ValidateCatapultOptionsBoundsEtaMax) {
  CatapultOptions options = FastOptions();
  options.selector.budget.eta_max = kMaxPatternEdges;
  EXPECT_TRUE(ValidateCatapultOptions(options).empty());
  for (size_t eta_max : {kMaxPatternEdges + 1, size_t{1} << 40}) {
    options.selector.budget.eta_max = eta_max;
    const std::vector<OptionsError> errors = ValidateCatapultOptions(options);
    ASSERT_EQ(errors.size(), 1u) << eta_max;
    EXPECT_EQ(errors[0].field, "selector.budget.eta_max");
  }
}

// Fine clustering splits down to max_cluster_size, so below 2 it is an
// options error, not a CHECK failure mid-run; coarse-only runs need only a
// positive k divisor.
TEST_F(PersistTest, ValidateCatapultOptionsBoundsMaxClusterSize) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  options.clustering.max_cluster_size = 2;
  EXPECT_TRUE(ValidateCatapultOptions(options).empty());
  options.clustering.max_cluster_size = 1;
  for (ClusteringMode mode :
       {ClusteringMode::kHybrid, ClusteringMode::kFineOnly}) {
    options.clustering.mode = mode;
    const CatapultResult result = RunCatapult(db, options);
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.option_errors.size(), 1u);
    EXPECT_EQ(result.option_errors[0].field, "clustering.max_cluster_size");
  }
  options.clustering.mode = ClusteringMode::kCoarseOnly;
  EXPECT_TRUE(ValidateCatapultOptions(options).empty());
  options.clustering.max_cluster_size = 0;
  ASSERT_EQ(ValidateCatapultOptions(options).size(), 1u);
}

TEST_F(PersistTest, RunCatapultReturnsOptionErrorsInsteadOfAborting) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  options.selector.budget.eta_min = 10;
  options.selector.budget.eta_max = 4;
  CatapultResult result = RunCatapult(db, options);
  EXPECT_FALSE(result.ok());
  ASSERT_FALSE(result.option_errors.empty());
  EXPECT_NE(result.option_errors[0].field, "");
  EXPECT_NE(result.option_errors[0].message, "");
  // The pipeline never ran.
  EXPECT_TRUE(result.selection.patterns.empty());
  EXPECT_TRUE(result.clusters.empty());
}

TEST_F(PersistTest, ConfigFingerprintTracksOutputAffectingOptionsOnly) {
  GraphDatabase db = SmallDb();
  CatapultOptions a = FastOptions();
  CatapultOptions b = FastOptions();
  EXPECT_EQ(ConfigFingerprint(a, db), ConfigFingerprint(b, db));

  // Deadlines are excluded by design: resuming under a new deadline is the
  // expected use of a checkpoint.
  b.deadline_ms = 5000.0;
  EXPECT_EQ(ConfigFingerprint(a, db), ConfigFingerprint(b, db));

  b = FastOptions();
  b.seed = a.seed + 1;
  EXPECT_NE(ConfigFingerprint(a, db), ConfigFingerprint(b, db));

  b = FastOptions();
  b.selector.budget.gamma = a.selector.budget.gamma + 1;
  EXPECT_NE(ConfigFingerprint(a, db), ConfigFingerprint(b, db));

  GraphDatabase other_db = SmallDb(77);
  EXPECT_NE(ConfigFingerprint(a, db), ConfigFingerprint(a, other_db));
}

// Checkpoints and trace ids carry the fingerprint, so reshaping the options
// must not move its value: a checkpoint an older build wrote still resumes.
// The six option sets reach every branch of ConfigFingerprint.
TEST_F(PersistTest, ConfigFingerprintMatchesPinnedValues) {
  const GraphDatabase db = SmallDb();
  std::vector<CatapultOptions> sets(6);
  sets[1].use_sampling = true;
  sets[2].clustering.mode = ClusteringMode::kCoarseOnly;
  sets[3].clustering.mode = ClusteringMode::kFineOnly;
  sets[3].clustering.fine_mcs.connected = false;
  sets[3].clustering.fine_mcs.match_edge_labels = true;
  sets[4].selector.strategy = CandidateStrategy::kGreedyBfs;
  sets[4].selector.approximate_diversity = true;
  sets[5].selector.walks_per_candidate = 8;
  sets[5].selector.weight_decay = 0.75;
  sets[5].selector.budget.eta_max = 6;
  sets[5].selector.budget.gamma = 8;
  sets[5].selector.budget.size_distribution = {1.0, 2.0, 1.0, 0.0};
  const uint64_t pinned[] = {
      0xae325872f6713c44ULL,  // defaults
      0x449b94a4cab9986dULL,  // sampled
      0x026ce6370273fa5aULL,  // coarse only
      0x60f4acac21a35763ULL,  // fine only, unconnected MCS, edge labels
      0xcb5c2908feee8ce8ULL,  // greedy BFS, approximate diversity
      0xf9c167d4db1f2db4ULL,  // walks, decay and a size distribution
  };
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(ConfigFingerprint(sets[i], db), pinned[i]) << "set " << i;
  }
}

// ---------------------------------------------------------------------------
// Checkpoint store: save, recover, reject.

TEST_F(PersistTest, CheckpointedRunRecoversAllPhases) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  options.checkpoint_dir = ScratchDir("all");
  CatapultResult run = RunCatapult(db, options);
  EXPECT_GT(run.execution.checkpoints_written, 0u);
  EXPECT_TRUE(HasEvent(run.execution.checkpoint_events,
                       CheckpointEvent::Kind::kPhaseCheckpointed,
                       "clustering"));
  EXPECT_TRUE(HasEvent(run.execution.checkpoint_events,
                       CheckpointEvent::Kind::kPhaseCheckpointed, "csgs"));

  CheckpointStore store(options.checkpoint_dir,
                        ConfigFingerprint(options, db));
  CheckpointStore::Recovery recovery =
      store.Recover(db, options.selector.budget);
  ASSERT_TRUE(recovery.clustering.has_value());
  ASSERT_TRUE(recovery.csgs.has_value());
  ASSERT_TRUE(recovery.selection.has_value());
  EXPECT_EQ(recovery.clustering->clusters, run.clusters);
  EXPECT_EQ(recovery.csgs->csgs.size(), run.csgs.size());
  EXPECT_EQ(recovery.selection->patterns.size(),
            run.selection.patterns.size());
}

TEST_F(PersistTest, RecoverRejectsForeignFingerprint) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  options.checkpoint_dir = ScratchDir("foreign");
  RunCatapult(db, options);

  // A store keyed to a different seed must not reuse these checkpoints.
  CatapultOptions other = options;
  other.seed = options.seed + 1;
  CheckpointStore store(options.checkpoint_dir, ConfigFingerprint(other, db));
  CheckpointStore::Recovery recovery =
      store.Recover(db, other.selector.budget);
  EXPECT_FALSE(recovery.clustering.has_value());
  EXPECT_FALSE(recovery.csgs.has_value());
  EXPECT_FALSE(recovery.selection.has_value());
  EXPECT_TRUE(HasEvent(recovery.events,
                       CheckpointEvent::Kind::kCheckpointRejected,
                       "manifest"));
  EXPECT_TRUE(HasEvent(recovery.events, CheckpointEvent::Kind::kColdStart,
                       ""));
}

TEST_F(PersistTest, RecoveryLadderFallsPhaseByPhase) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  options.checkpoint_dir = ScratchDir("ladder");
  RunCatapult(db, options);
  uint64_t fp = ConfigFingerprint(options, db);
  const PatternBudget& budget = options.selector.budget;

  // Corrupt selection -> resume from CSGs.
  FlipByteAt(CheckpointPath(options.checkpoint_dir, RecordType::kSelection),
             100);
  {
    CheckpointStore store(options.checkpoint_dir, fp);
    CheckpointStore::Recovery r = store.Recover(db, budget);
    EXPECT_TRUE(r.clustering.has_value());
    EXPECT_TRUE(r.csgs.has_value());
    EXPECT_FALSE(r.selection.has_value());
    EXPECT_TRUE(HasEvent(r.events, CheckpointEvent::Kind::kCheckpointRejected,
                         "selection"));
  }

  // Corrupt CSGs too -> resume from clusters.
  FlipByteAt(CheckpointPath(options.checkpoint_dir, RecordType::kCsgs), 100);
  {
    CheckpointStore store(options.checkpoint_dir, fp);
    CheckpointStore::Recovery r = store.Recover(db, budget);
    EXPECT_TRUE(r.clustering.has_value());
    EXPECT_FALSE(r.csgs.has_value());
    EXPECT_FALSE(r.selection.has_value());
    EXPECT_TRUE(HasEvent(r.events, CheckpointEvent::Kind::kCheckpointRejected,
                         "csgs"));
  }

  // Corrupt clustering too -> cold start.
  FlipByteAt(CheckpointPath(options.checkpoint_dir, RecordType::kClustering),
             100);
  {
    CheckpointStore store(options.checkpoint_dir, fp);
    CheckpointStore::Recovery r = store.Recover(db, budget);
    EXPECT_FALSE(r.clustering.has_value());
    EXPECT_TRUE(HasEvent(r.events, CheckpointEvent::Kind::kCheckpointRejected,
                         "clustering"));
    EXPECT_TRUE(HasEvent(r.events, CheckpointEvent::Kind::kColdStart, ""));
  }
}

TEST_F(PersistTest, EmptyOrMissingManifestMeansColdStart) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  options.checkpoint_dir = ScratchDir("manifest");
  RunCatapult(db, options);
  uint64_t fp = ConfigFingerprint(options, db);
  std::string manifest =
      CheckpointPath(options.checkpoint_dir, RecordType::kManifest);

  // Zero-length manifest.
  WriteFileBytes(manifest, "");
  {
    CheckpointStore store(options.checkpoint_dir, fp);
    CheckpointStore::Recovery r = store.Recover(db, options.selector.budget);
    EXPECT_FALSE(r.clustering.has_value());
    EXPECT_TRUE(HasEvent(r.events, CheckpointEvent::Kind::kColdStart, ""));
  }

  // Missing manifest (the artifacts are still on disk — without the
  // manifest they are unauthenticated and must be ignored).
  std::filesystem::remove(manifest);
  {
    CheckpointStore store(options.checkpoint_dir, fp);
    CheckpointStore::Recovery r = store.Recover(db, options.selector.budget);
    EXPECT_FALSE(r.clustering.has_value());
    EXPECT_TRUE(HasEvent(r.events, CheckpointEvent::Kind::kColdStart, ""));
  }
}

TEST_F(PersistTest, RecoverSurvivesArbitraryCorruption) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  options.checkpoint_dir = ScratchDir("fuzz");
  RunCatapult(db, options);
  uint64_t fp = ConfigFingerprint(options, db);

  // Flip a byte at many offsets of each checkpoint file in turn; every
  // recovery attempt must return normally (possibly cold) — never abort.
  for (RecordType type : {RecordType::kManifest, RecordType::kClustering,
                          RecordType::kCsgs, RecordType::kSelection}) {
    std::string path = CheckpointPath(options.checkpoint_dir, type);
    std::string pristine = ReadFileBytes(path);
    for (size_t offset = 0; offset < pristine.size();
         offset += 1 + pristine.size() / 23) {
      std::string corrupt = pristine;
      corrupt[offset] ^= 0x40;
      WriteFileBytes(path, corrupt);
      CheckpointStore store(options.checkpoint_dir, fp);
      (void)store.Recover(db, options.selector.budget);
    }
    WriteFileBytes(path, pristine);
  }
}

// ---------------------------------------------------------------------------
// End-to-end kill/resume: the panel must be bit-identical to the
// uninterrupted run.

TEST_F(PersistTest, CheckpointingDoesNotChangeTheOutput) {
  GraphDatabase db = SmallDb();
  CatapultOptions plain = FastOptions();
  CatapultResult baseline = RunCatapult(db, plain);
  ASSERT_FALSE(baseline.selection.patterns.empty());

  CatapultOptions checkpointed = FastOptions();
  checkpointed.checkpoint_dir = ScratchDir("out");
  CatapultResult run = RunCatapult(db, checkpointed);
  ExpectSamePanel(baseline, run);
}

TEST_F(PersistTest, ResumeAfterKillPostCsgIsBitIdentical) {
  GraphDatabase db = SmallDb();
  CatapultResult baseline = RunCatapult(db, FastOptions());
  ASSERT_FALSE(baseline.selection.patterns.empty());

  CatapultOptions options = FastOptions();
  options.checkpoint_dir = ScratchDir("kill");
  {
    // Simulated kill right after the CSG checkpoint became durable.
    failpoint::ScopedFailpoint fp("catapult.crash_after_csg_checkpoint", 1);
    CatapultResult killed = RunCatapult(db, options);
    EXPECT_FALSE(killed.execution.selection_complete);
  }

  options.resume = true;
  CatapultResult resumed = RunCatapult(db, options);
  EXPECT_EQ(resumed.execution.resumed_from, "csgs");
  EXPECT_TRUE(resumed.execution.Resumed());
  EXPECT_TRUE(HasEvent(resumed.execution.checkpoint_events,
                       CheckpointEvent::Kind::kResumedFromPhase, "csgs"));
  ExpectSamePanel(baseline, resumed);
}

TEST_F(PersistTest, ResumeAfterKillPostClusteringIsBitIdentical) {
  GraphDatabase db = SmallDb();
  CatapultResult baseline = RunCatapult(db, FastOptions());

  CatapultOptions options = FastOptions();
  options.checkpoint_dir = ScratchDir("kill");
  {
    failpoint::ScopedFailpoint fp("catapult.crash_after_clustering_checkpoint",
                                  1);
    RunCatapult(db, options);
  }
  options.resume = true;
  CatapultResult resumed = RunCatapult(db, options);
  EXPECT_EQ(resumed.execution.resumed_from, "clustering");
  ExpectSamePanel(baseline, resumed);
}

TEST_F(PersistTest, ResumeMidSelectionIsBitIdentical) {
  GraphDatabase db = SmallDb();
  CatapultResult baseline = RunCatapult(db, FastOptions());
  ASSERT_GT(baseline.selection.patterns.size(), 1u);

  CatapultOptions options = FastOptions();
  options.checkpoint_dir = ScratchDir("kill");
  {
    // Kill right after the first selected pattern's progress checkpoint.
    failpoint::ScopedFailpoint fp("catapult.crash_after_selection_checkpoint",
                                  1);
    RunCatapult(db, options);
  }
  options.resume = true;
  CatapultResult resumed = RunCatapult(db, options);
  EXPECT_EQ(resumed.execution.resumed_from, "selection");
  ExpectSamePanel(baseline, resumed);
}

TEST_F(PersistTest, ResumeWithCorruptSelectionFallsDownTheLadder) {
  GraphDatabase db = SmallDb();
  CatapultResult baseline = RunCatapult(db, FastOptions());

  CatapultOptions options = FastOptions();
  options.checkpoint_dir = ScratchDir("corrupt");
  RunCatapult(db, options);
  FlipByteAt(CheckpointPath(options.checkpoint_dir, RecordType::kSelection),
             100);

  options.resume = true;
  CatapultResult resumed = RunCatapult(db, options);
  // The ladder fell to CSGs, the rejection is on the record, and the rerun
  // selection still reproduces the baseline panel exactly.
  EXPECT_EQ(resumed.execution.resumed_from, "csgs");
  EXPECT_TRUE(HasEvent(resumed.execution.checkpoint_events,
                       CheckpointEvent::Kind::kCheckpointRejected,
                       "selection"));
  ExpectSamePanel(baseline, resumed);
}

TEST_F(PersistTest, ResumeFromEmptyDirectoryColdStarts) {
  GraphDatabase db = SmallDb();
  CatapultResult baseline = RunCatapult(db, FastOptions());

  CatapultOptions options = FastOptions();
  options.checkpoint_dir = ScratchDir("empty");
  options.resume = true;
  CatapultResult resumed = RunCatapult(db, options);
  EXPECT_FALSE(resumed.execution.Resumed());
  EXPECT_TRUE(HasEvent(resumed.execution.checkpoint_events,
                       CheckpointEvent::Kind::kColdStart, ""));
  ExpectSamePanel(baseline, resumed);
}

TEST_F(PersistTest, CheckpointWriteFailureIsLoggedAndRunContinues) {
  GraphDatabase db = SmallDb();
  CatapultResult baseline = RunCatapult(db, FastOptions());

  CatapultOptions options = FastOptions();
  options.checkpoint_dir = ScratchDir("failing");
  failpoint::ScopedFailpoint fp("persist.fsync");  // every write fails
  CatapultResult run = RunCatapult(db, options);
  EXPECT_EQ(run.execution.checkpoints_written, 0u);
  EXPECT_TRUE(HasEvent(run.execution.checkpoint_events,
                       CheckpointEvent::Kind::kCheckpointWriteFailed,
                       "clustering"));
  // The run itself is unharmed, just unprotected.
  ExpectSamePanel(baseline, run);
}

// ---------------------------------------------------------------------------
// Rng state round trip (the primitive bit-identical resume rests on).

TEST_F(PersistTest, RngStateRoundTrip) {
  Rng rng(123);
  for (int i = 0; i < 10; ++i) rng.Next();
  RngState state = rng.SaveState();
  EXPECT_TRUE(state.Valid());
  std::vector<uint64_t> expected;
  for (int i = 0; i < 5; ++i) expected.push_back(rng.Next());
  Rng other(999);
  other.RestoreState(state);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(other.Next(), expected[i]);
  EXPECT_FALSE(RngState().Valid());
}

TEST_F(PersistTest, CheckpointEventToString) {
  CheckpointEvent event{CheckpointEvent::Kind::kCheckpointRejected, "csgs",
                        "payload checksum mismatch"};
  EXPECT_EQ(ToString(event),
            "checkpoint rejected [csgs]: payload checksum mismatch");
}

}  // namespace
}  // namespace catapult
