#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "src/util/bitset.h"
#include "src/util/failpoint.h"
#include "src/util/mem_budget.h"
#include "src/util/rng.h"
#include "src/util/signal.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

#include <poll.h>
#include <unistd.h>

namespace catapult {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.UniformInt(7), 7u);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformInRangeInclusive) {
  Rng rng(6);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    int64_t v = rng.UniformInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformRealInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformReal();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, WeightedIndexRespectsZeros) {
  Rng rng(9);
  std::vector<double> weights = {0.0, 1.0, 0.0, 3.0};
  for (int i = 0; i < 200; ++i) {
    size_t idx = rng.WeightedIndex(weights);
    EXPECT_TRUE(idx == 1 || idx == 3);
  }
}

TEST(RngTest, WeightedIndexProportional) {
  Rng rng(10);
  std::vector<double> weights = {1.0, 9.0};
  int count1 = 0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.WeightedIndex(weights) == 1) ++count1;
  }
  // Expect roughly 90% +- 3%.
  EXPECT_NEAR(static_cast<double>(count1) / kTrials, 0.9, 0.03);
}

TEST(RngTest, SampleIndicesDistinctAndBounded) {
  Rng rng(11);
  std::vector<size_t> sample = rng.SampleIndices(100, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleIndicesAllWhenKTooLarge) {
  Rng rng(12);
  std::vector<size_t> sample = rng.SampleIndices(5, 10);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> items = {1, 2, 3, 4, 5};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(BitsetTest, SetTestClear) {
  DynamicBitset bits(130);
  EXPECT_FALSE(bits.Test(129));
  bits.Set(129);
  EXPECT_TRUE(bits.Test(129));
  bits.Clear(129);
  EXPECT_FALSE(bits.Test(129));
}

TEST(BitsetTest, CountAndNone) {
  DynamicBitset bits(70);
  EXPECT_TRUE(bits.None());
  bits.Set(0);
  bits.Set(64);
  bits.Set(69);
  EXPECT_EQ(bits.Count(), 3u);
  EXPECT_FALSE(bits.None());
}

TEST(BitsetTest, UnionIntersection) {
  DynamicBitset a(10);
  DynamicBitset b(10);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  EXPECT_EQ(a.IntersectCount(b), 1u);
  EXPECT_EQ(a.UnionCount(b), 3u);
  EXPECT_EQ(a.HammingDistance(b), 2u);
  DynamicBitset u = a;
  u |= b;
  EXPECT_EQ(u.Count(), 3u);
  DynamicBitset i = a;
  i &= b;
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Test(2));
}

TEST(BitsetTest, ToIndicesSorted) {
  DynamicBitset bits(200);
  bits.Set(5);
  bits.Set(190);
  bits.Set(64);
  std::vector<size_t> indices = bits.ToIndices();
  EXPECT_EQ(indices, (std::vector<size_t>{5, 64, 190}));
}

TEST(BitsetTest, Equality) {
  DynamicBitset a(10);
  DynamicBitset b(10);
  EXPECT_EQ(a, b);
  a.Set(3);
  EXPECT_FALSE(a == b);
}

TEST(StatsTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(KendallTau({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(KendallTau({1}, {2}), 0.0);
}

TEST(StatsTest, KendallTauPerfectAgreement) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(KendallTau(a, b), 1.0);
}

TEST(StatsTest, KendallTauPerfectDisagreement) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(KendallTau(a, b), -1.0);
}

TEST(StatsTest, KendallTauMismatchedSizesIsZero) {
  EXPECT_DOUBLE_EQ(KendallTau({1, 2}, {1}), 0.0);
}

TEST(ThreadPoolTest, ClampsThreadCount) {
  EXPECT_EQ(ThreadPool(0).num_threads(), 1u);
  EXPECT_EQ(ThreadPool(3).num_threads(), 3u);
  EXPECT_EQ(ThreadPool(ThreadPool::kMaxThreads + 100).num_threads(),
            ThreadPool::kMaxThreads);
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  constexpr size_t kN = 20000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  pool.ParallelFor(kN, 7, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  std::thread::id caller = std::this_thread::get_id();
  bool all_on_caller = true;
  pool.ParallelFor(100, 16, [&](size_t i) {
    order.push_back(i);
    if (std::this_thread::get_id() != caller) all_on_caller = false;
  });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(all_on_caller);
}

TEST(ThreadPoolTest, OutputsIdenticalAcrossPoolSizes) {
  // The determinism contract: per-item slots + ordered reduce give the same
  // bytes at any pool size. Each item derives a value from a pre-split rng
  // stream, exactly like the pipeline's parallel phases do.
  constexpr size_t kN = 512;
  auto run = [](size_t threads) {
    Rng rng(1234);
    std::vector<Rng> streams;
    streams.reserve(kN);
    for (size_t i = 0; i < kN; ++i) streams.push_back(rng.Split());
    ThreadPool pool(threads);
    std::vector<double> slots(kN, 0.0);
    pool.ParallelFor(kN, 3, [&](size_t i) {
      slots[i] = streams[i].UniformReal() + static_cast<double>(i);
    });
    double reduced = 0.0;
    for (double v : slots) reduced += v;  // ordered fp accumulation
    return std::make_pair(slots, reduced);
  };
  auto [slots1, sum1] = run(1);
  auto [slots2, sum2] = run(2);
  auto [slots8, sum8] = run(8);
  EXPECT_EQ(slots1, slots2);
  EXPECT_EQ(slots1, slots8);
  EXPECT_EQ(sum1, sum2);
  EXPECT_EQ(sum1, sum8);
}

TEST(ThreadPoolTest, StatsCountItemsAndRegions) {
  ThreadPool pool(2);
  pool.ParallelFor(100, [](size_t) {});
  pool.ParallelFor(50, 8, [](size_t) {});
  ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.items, 150u);
  EXPECT_EQ(stats.regions, 2u);
  EXPECT_GE(stats.busy_seconds, 0.0);
}

TEST(ThreadPoolTest, BackToBackRegionsReuseWorkers) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(64, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 64u * 50u);
}

TEST(ThreadPoolTest, ZeroItemsIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(MemoryBudgetTest, ConcurrentChargesBalanceToZero) {
  // Hammer the ledger from four threads; every TryCharge on an unlimited
  // budget succeeds and is paired with a Release, so the ledger must read
  // exactly zero afterwards and the peak must be at most the sum of all
  // concurrent outstanding charges.
  MemoryBudget budget = MemoryBudget::Unlimited();
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  constexpr size_t kBytes = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&budget] {
      for (int i = 0; i < kIters; ++i) {
        ASSERT_TRUE(budget.TryCharge(kBytes, "test.hammer"));
        budget.Release(kBytes);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_FALSE(budget.HardBreached());
  EXPECT_GE(budget.peak(), kBytes);
  EXPECT_LE(budget.peak(), kThreads * kBytes);
}

TEST(MemoryBudgetTest, ConcurrentBreachLatchesOneAttributedError) {
  // Many threads race past a tiny hard limit. Exactly which charge is
  // refused first is scheduling-dependent, but the latched error must always
  // be fully attributed (site + sizes) the moment HardBreached() reads true.
  MemoryBudget budget = MemoryBudget::Limited(0, 1024);
  constexpr int kThreads = 4;
  std::atomic<int> refused{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&budget, &refused] {
      for (int i = 0; i < 200; ++i) {
        if (!budget.TryCharge(64, "test.breach")) {
          refused.fetch_add(1, std::memory_order_relaxed);
          // The sticky flag and its attribution must be visible together.
          ASSERT_TRUE(budget.HardBreached());
          ResourceError err = budget.error();
          ASSERT_EQ(err.site, "test.breach");
          ASSERT_EQ(err.requested, 64u);
          ASSERT_EQ(err.hard_limit, 1024u);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(refused.load(), 0);
  EXPECT_TRUE(budget.HardBreached());
  EXPECT_LE(budget.used(), 1024u);
}

TEST(FailpointTest, CountedArmFiresExactlyNTimesAcrossThreads) {
  // A counted failpoint evaluated from four threads at once must fire
  // exactly `count` times in total — no lost or duplicated firings.
  failpoint::Arm("test.counted", 100);
  constexpr int kThreads = 4;
  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fired] {
      for (int i = 0; i < 1000; ++i) {
        if (CATAPULT_FAILPOINT("test.counted")) {
          fired.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(fired.load(), 100);
  EXPECT_EQ(failpoint::HitCount("test.counted"), 100u);
  failpoint::Disarm("test.counted");
}

TEST(FailpointTest, ConcurrentArmDisarmDoesNotWedgeEvaluate) {
  // Arm/disarm churn from one thread while others evaluate: no crash, and
  // evaluations never fire once the site is finally disarmed.
  std::atomic<bool> stop{false};
  std::vector<std::thread> evaluators;
  for (int t = 0; t < 3; ++t) {
    evaluators.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)CATAPULT_FAILPOINT("test.churn");
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    failpoint::Arm("test.churn", 2);
    failpoint::Disarm("test.churn");
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : evaluators) th.join();
  EXPECT_FALSE(CATAPULT_FAILPOINT("test.churn"));
}

// The self-pipe signal bridge (src/util/signal.h). raise() delivers to this
// process; the sigaction handlers installed by Instance() catch it, so these
// tests never die to the default disposition. Every test re-arms the bridge
// afterwards so a latched signal cannot leak into another test.

namespace {
// The watcher thread cancels the token asynchronously; poll for it.
bool TokenCancelledWithin(const CancelToken& token, int millis) {
  for (int i = 0; i < millis; ++i) {
    if (token.Cancelled()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return token.Cancelled();
}
}  // namespace

TEST(ShutdownSignalsTest, SignalLatchesAndCancelsToken) {
  ShutdownSignals& signals = ShutdownSignals::Instance();
  signals.ResetForTest();
  const CancelToken token = signals.token();
  EXPECT_FALSE(token.Cancelled());
  EXPECT_FALSE(signals.Received());

  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(TokenCancelledWithin(token, 2000));
  EXPECT_EQ(signals.last_signal(), SIGTERM);
  EXPECT_TRUE(signals.Received());
  signals.ResetForTest();
}

TEST(ShutdownSignalsTest, SubscribedFdWakesOnSignal) {
  ShutdownSignals& signals = ShutdownSignals::Instance();
  signals.ResetForTest();
  const int fd = signals.SubscribeFd();
  ASSERT_GE(fd, 0);

  // Not readable before any signal.
  pollfd idle{fd, POLLIN, 0};
  EXPECT_EQ(::poll(&idle, 1, 0), 0);

  ASSERT_EQ(std::raise(SIGINT), 0);
  pollfd woken{fd, POLLIN, 0};
  EXPECT_EQ(::poll(&woken, 1, 2000), 1);
  char byte = 0;
  EXPECT_EQ(::read(fd, &byte, 1), 1);
  EXPECT_EQ(static_cast<int>(byte), SIGINT);
  ::close(fd);
  signals.ResetForTest();
}

TEST(ShutdownSignalsTest, SubscribingAfterSignalIsRaceFree) {
  ShutdownSignals& signals = ShutdownSignals::Instance();
  signals.ResetForTest();
  ASSERT_EQ(std::raise(SIGTERM), 0);
  ASSERT_TRUE(TokenCancelledWithin(signals.token(), 2000));

  // A subscriber arriving late still sees the byte immediately.
  const int fd = signals.SubscribeFd();
  ASSERT_GE(fd, 0);
  pollfd p{fd, POLLIN, 0};
  EXPECT_EQ(::poll(&p, 1, 2000), 1);
  ::close(fd);
  signals.ResetForTest();
}

TEST(ShutdownSignalsTest, ResetForTestRearmsTheBridge) {
  ShutdownSignals& signals = ShutdownSignals::Instance();
  signals.ResetForTest();
  ASSERT_EQ(std::raise(SIGINT), 0);
  ASSERT_TRUE(TokenCancelledWithin(signals.token(), 2000));

  signals.ResetForTest();
  EXPECT_FALSE(signals.Received());
  EXPECT_EQ(signals.last_signal(), 0);
  // A fresh token is installed; the old cancellation does not bleed over.
  EXPECT_FALSE(signals.token().Cancelled());
}

}  // namespace
}  // namespace catapult
