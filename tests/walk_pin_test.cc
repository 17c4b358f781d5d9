// Pinned random walks of candidate generation (src/core/random_walk.h) on
// the corpus of `catapult_cli generate --graphs 40 --seed 7`, prepared with
// default options. Each row is one (CSG, pattern size) pair under undecayed
// edge-label weights: a digest of every PCP edge sequence of a 40-walk
// library, of the FCP assembled from it and of the greedy PCP. Sizes run
// from 3 to 8, plus one more edge than the summary has, where every walk
// ends at a dead end and the FCP runs out of library edges. The walks
// draw from the selection stream, so a change to the order in which a step
// lists its candidate adjacent edges, or to the weights it hands
// Rng::WeightedIndex, changes the panels; this table catches it. A change
// that alters the walks on purpose re-pins the rows it printed and says why.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/catapult.h"
#include "src/core/random_walk.h"
#include "src/data/molecule_generator.h"

namespace catapult {
namespace {

// FNV-1a 64 over a stream of integers.
struct Digest {
  uint64_t hash = 0xCBF29CE484222325ULL;
  void Mix(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash = (hash ^ ((value >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void Mix(const Pcp& pcp) {
    Mix(pcp.size());
    for (size_t idx : pcp) Mix(idx);
  }
};

constexpr size_t kWalks = 40;  // SelectorOptions' default x

struct WalkCorpus {
  GraphDatabase db;
  PreparedCorpus corpus;
};

WalkCorpus MakeCorpus() {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 40;
  gen.scaffold_families = 12;
  gen.seed = 7;
  WalkCorpus c{GenerateMoleculeDatabase(gen), {}};
  c.corpus = PrepareCorpus(c.db, CatapultOptions{}, RunContext::NoLimit());
  return c;
}

// The walks' stream for one (CSG, size) row.
Rng RowRng(size_t csg, size_t size) { return Rng(7001 + 1000 * csg + size); }

// One row per (CSG, size), CSGs in corpus order, sizes 3 to 8 and then
// |E(CSG)| + 1.
std::vector<std::string> WalkRows() {
  const WalkCorpus c = MakeCorpus();
  const EdgeLabelWeights elw(c.corpus.label_index);
  std::vector<std::string> rows;
  for (size_t i = 0; i < c.corpus.csgs.size(); ++i) {
    const ClusterSummaryGraph& csg = c.corpus.csgs[i];
    const WeightedCsg wcsg = MakeWeightedCsg(csg, elw);
    for (size_t size : {size_t{3}, size_t{4}, size_t{5}, size_t{6}, size_t{7},
                        size_t{8}, csg.NumEdges() + 1}) {
      Rng rng = RowRng(i, size);
      const std::vector<Pcp> library =
          GeneratePcpLibrary(wcsg, size, kWalks, rng, RunContext::NoLimit());
      Digest walks;
      walks.Mix(library.size());
      for (const Pcp& pcp : library) walks.Mix(pcp);
      const Pcp fcp = GenerateFcp(csg, library, size);
      Digest fcp_digest;
      fcp_digest.Mix(fcp);
      const Pcp greedy = GenerateGreedyPcp(wcsg, size);
      Digest greedy_digest;
      greedy_digest.Mix(greedy);
      char row[160];
      std::snprintf(row, sizeof(row),
                    "%zu/%zu: walks %zu %016llx fcp %zu %016llx greedy %zu "
                    "%016llx",
                    i, size, library.size(),
                    static_cast<unsigned long long>(walks.hash), fcp.size(),
                    static_cast<unsigned long long>(fcp_digest.hash),
                    greedy.size(),
                    static_cast<unsigned long long>(greedy_digest.hash));
      rows.push_back(row);
    }
  }
  return rows;
}

// One row per (CSG, size), in WalkRows() order. A walk change that keeps
// every draw reproduces every row.
const char* const kPinnedRows[] = {
    "0/3: walks 40 b1828250c4263d4a fcp 3 dc5cb54f81c7dd04 greedy 3 dc5cb54f81c7dd04",
    "0/4: walks 40 f8a07502a56c2a6d fcp 4 12f78fa43546ff24 greedy 4 b9a674c9ec79b774",
    "0/5: walks 40 a34bdf331a439b67 fcp 5 aaecadd342ec9b67 greedy 5 34d586b7924548ed",
    "0/6: walks 40 4f169f3810bd2e4e fcp 6 174e3124b30eae00 greedy 6 ba62795b444978cf",
    "0/7: walks 40 e3a65c0432422bee fcp 7 a7d86c3e8946a5ab greedy 7 be90071b0478de0b",
    "0/8: walks 40 652c80a9973701ae fcp 8 b85033658ed766d9 greedy 8 7331921aa7b13f5e",
    "0/89: walks 40 06bd534ac874444d fcp 88 4d9f40a0e1ce6a1d greedy 88 0d59b5f598484bdd",
    "1/3: walks 40 e6422644e9fc885d fcp 3 22e34b14edb7ba25 greedy 3 39b44a665021554e",
    "1/4: walks 40 66b315999e2cfe76 fcp 4 b9a6195bba296066 greedy 4 e298b1d43fbd0a2d",
    "1/5: walks 40 e054e57e4dd82d60 fcp 5 f24b4505a1d84ab6 greedy 5 45ae5be87f64f10a",
    "1/6: walks 40 d193c90488e3c510 fcp 6 d8d2e846bf99605a greedy 6 e5d28a11c85f85eb",
    "1/7: walks 40 081d3bbe853ec1a6 fcp 7 c3ad22ffeb182ec1 greedy 7 e1bc80e3b97e9161",
    "1/8: walks 40 8000eaee22125666 fcp 8 712d125cd9d60288 greedy 8 08b863221d505e43",
    "1/151: walks 40 ead88bc894384c8d fcp 150 211d6f5ca9196132 greedy 150 f2faf36ff38923d2",
    "2/3: walks 40 8d85f639792aa96d fcp 3 e38637f0809cab85 greedy 3 48a054c349f038e0",
    "2/4: walks 40 ddf48947996b2ecf fcp 4 5af53c27a50e6169 greedy 4 ee1570c7acfd89a6",
    "2/5: walks 40 6a70a6b9acb4d4d2 fcp 5 0144c9a300fb186e greedy 5 f577eeca9d21e4cc",
    "2/6: walks 40 5587f87c4280ef7e fcp 6 deb44df3d76b2f47 greedy 6 5d82aafa9deea3e9",
    "2/7: walks 40 6342a8d29cbc8b8f fcp 7 6ca216ddfb13c562 greedy 7 62b11b169f1d1540",
    "2/8: walks 40 ad66838185031ead fcp 8 409b6d6b63ea8547 greedy 8 b2be7722fadf6fde",
    "2/64: walks 40 dd1f385e9e8f934d fcp 63 68c044a1e00a0925 greedy 63 a69f2f280aed42e5",
    "3/3: walks 40 5c65075c1e2c958f fcp 3 b316a5d572a347a5 greedy 3 a6f82ef0c1fa91a1",
    "3/4: walks 40 ba647f586e573e23 fcp 4 43ce95389b10b11b greedy 4 fdc83833af037062",
    "3/5: walks 40 42804782835915f5 fcp 5 8081c3f62d05a25e greedy 5 a569ac96922ad2e2",
    "3/6: walks 40 46b4fc6345981913 fcp 6 959cdb0a446733bc greedy 6 8e38e591cce0cdc9",
    "3/7: walks 40 cf671b34e31f3e22 fcp 7 d3640cb55777d33f greedy 7 8388624f50dbe50a",
    "3/8: walks 40 2e68496963af9d1a fcp 8 09ed3a172ab47393 greedy 8 2f672d7442cd0c82",
    "3/85: walks 40 8346639acb328f4d fcp 84 cdf735b4a8fe1891 greedy 84 e497a07aa254cfd1",
};

TEST(WalkPinTest, WalksAndFcpsMatchPinnedTable) {
  const std::vector<std::string> rows = WalkRows();
  EXPECT_EQ(rows.size(), std::size(kPinnedRows))
      << "the table has one row per (CSG, size)";
  std::string actual;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i < std::size(kPinnedRows)) {
      EXPECT_EQ(rows[i], kPinnedRows[i]) << "row " << i;
    }
    actual += "    \"" + rows[i] + "\",\n";
  }
  if (HasFailure()) std::printf("actual rows:\n%s", actual.c_str());
}

// The header's contract: with an unlimited context, a library of `count`
// walks is `count` sequential GeneratePcp calls on the same stream, which
// it leaves at the same position.
TEST(WalkPinTest, LibraryIsSequentialWalksOnOneStream) {
  const WalkCorpus c = MakeCorpus();
  const EdgeLabelWeights elw(c.corpus.label_index);
  ASSERT_FALSE(c.corpus.csgs.empty());
  for (size_t i = 0; i < c.corpus.csgs.size(); ++i) {
    const WeightedCsg wcsg = MakeWeightedCsg(c.corpus.csgs[i], elw);
    for (size_t size : {1, 3, 8}) {
      Rng library_rng = RowRng(i, size);
      Rng walk_rng = RowRng(i, size);
      const std::vector<Pcp> library = GeneratePcpLibrary(
          wcsg, size, kWalks, library_rng, RunContext::NoLimit());
      std::vector<Pcp> walks;
      for (size_t w = 0; w < kWalks; ++w) {
        Pcp pcp = GeneratePcp(wcsg, size, walk_rng);
        if (!pcp.empty()) walks.push_back(std::move(pcp));
      }
      EXPECT_EQ(library, walks) << "csg " << i << " size " << size;
      EXPECT_EQ(library_rng.Next(), walk_rng.Next())
          << "csg " << i << " size " << size;
    }
  }
}

}  // namespace
}  // namespace catapult
