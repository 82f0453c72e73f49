// Tests for the parallel dispatch engine: ThreadPool/ParallelFor,
// DistanceCache, the concurrent CachedOracle path, and the determinism
// regression proving ParallelGreedyDpPlanner is bit-identical to the
// sequential GreedyDP planners for every thread count.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/parallel/parallel_planner.h"
#include "src/parallel/thread_pool.h"
#include "src/shortest/hub_labels.h"
#include "src/sim/simulator.h"
#include "src/util/distance_cache.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"

namespace urpsm {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 20000;
  std::vector<std::atomic<int>> counts(kN);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(0, kN, [&](std::int64_t i) {
    counts[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, RespectsNonZeroBeginAndGrain) {
  ThreadPool pool(3);
  constexpr std::int64_t kBegin = 17, kEnd = 4711;
  std::vector<std::atomic<int>> counts(kEnd);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(kBegin, kEnd,
                   [&](std::int64_t i) {
                     counts[static_cast<std::size_t>(i)].fetch_add(1);
                   },
                   /*grain=*/64);
  for (std::int64_t i = 0; i < kEnd; ++i) {
    ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), i >= kBegin ? 1 : 0);
  }
}

TEST(ThreadPoolTest, EmptyAndSingletonRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(3, 2, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A single iteration runs inline on the caller.
  std::int64_t seen = -1;
  pool.ParallelFor(9, 10, [&](std::int64_t i) { seen = i; });
  EXPECT_EQ(seen, 9);
}

TEST(ThreadPoolTest, SizeOnePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const auto caller = std::this_thread::get_id();
  bool all_inline = true;
  pool.ParallelFor(0, 100, [&](std::int64_t) {
    if (std::this_thread::get_id() != caller) all_inline = false;
  });
  EXPECT_TRUE(all_inline);
}

TEST(ThreadPoolTest, ReusableAcrossManyLoops) {
  // Stresses the epoch/wakeup logic: many small back-to-back jobs.
  ThreadPool pool(4);
  for (int round = 0; round < 300; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.ParallelFor(0, 64, [&](std::int64_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 64 * 63 / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, WritesAreVisibleToCallerAfterReturn) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 5000;
  std::vector<std::int64_t> out(kN, -1);  // plain (non-atomic) slots
  pool.ParallelFor(0, kN,
                   [&](std::int64_t i) { out[static_cast<std::size_t>(i)] = i * i; });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPoolTest, ParallelMapReturnsPerIndexValues) {
  ThreadPool pool(4);
  const std::vector<int> squares =
      pool.ParallelMap<int>(100, [](std::int64_t i) {
        return static_cast<int>(i * i);
      });
  ASSERT_EQ(squares.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(squares[static_cast<std::size_t>(i)], i * i);
}

// ------------------------------------- DistanceCache behind striped locks

TEST(ShardedLruCacheTest, PutGetAndCounters) {
  DistanceCache cache(64);
  EXPECT_EQ(cache.num_sets(), 16u);
  double v = 0.0;
  EXPECT_FALSE(cache.Get(1, &v));
  cache.Put(1, 10);
  cache.Put(2, 20);
  ASSERT_TRUE(cache.Get(1, &v));
  ASSERT_TRUE(cache.Get(1, &v));
  EXPECT_EQ(v, 10);
  ASSERT_TRUE(cache.Get(2, &v));
  EXPECT_EQ(v, 20);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 1);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(1, &v));
}

TEST(ShardedLruCacheTest, SetCountIsLargestPowerOfTwoWithinCapacity) {
  const DistanceCache cache(100);
  EXPECT_EQ(cache.ways(), 4);
  EXPECT_EQ(cache.num_sets(), 16u);  // 64 <= 100 < 128 slots
  const DistanceCache paper(std::size_t{1} << 20);
  EXPECT_EQ(paper.num_sets(), std::size_t{1} << 18);
  DistanceCache three(3);
  EXPECT_EQ(three.ways(), 3);
  EXPECT_EQ(three.num_sets(), 1u);
  three.Put(3, 33);
  double v = 0.0;
  ASSERT_TRUE(three.Get(3, &v));
  EXPECT_EQ(v, 33);
}

TEST(ShardedLruCacheTest, EvictionKeepsSizeBounded) {
  DistanceCache cache(64);
  for (std::uint64_t k = 1; k <= 10000; ++k) cache.Put(k, static_cast<double>(k));
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GT(cache.size(), 0u);
}

TEST(ShardedLruCacheTest, ZeroCapacityDisablesCaching) {
  DistanceCache cache(0);
  cache.Put(1, 10);
  double v = 0.0;
  EXPECT_FALSE(cache.Get(1, &v));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedLruCacheTest, ConcurrentHammerNeverReturnsWrongValue) {
  DistanceCache cache(256);
  constexpr int kThreads = 8, kOps = 20000, kKeys = 512;
  std::atomic<bool> corrupt{false};
  std::atomic<std::int64_t> gets{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t state = 0x9e3779b97f4a7c15ULL * (t + 1);
      for (int op = 0; op < kOps; ++op) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t key = (state >> 33) % kKeys + 1;
        if ((state & 1) != 0u) {
          cache.Put(key, static_cast<double>(key) * 3);
        } else {
          gets.fetch_add(1);
          double v = 0.0;
          if (cache.Get(key, &v) && v != static_cast<double>(key) * 3) {
            corrupt.store(true);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(corrupt.load());
  EXPECT_LE(cache.size(), 256u);
  // Every Get is counted as exactly one hit or one miss, even under
  // contention.
  EXPECT_EQ(cache.hits() + cache.misses(), gets.load());
}

// ----------------------------------------------------- concurrent oracle

TEST(CachedOracleConcurrencyTest, ConcurrentDistancesMatchSequential) {
  const RoadNetwork graph = MakeCity({12, 12, 0.3, 4, 12, 0.1, 0.02, 5});
  DijkstraOracle inner(&graph);
  CachedOracle cached(&inner, 1 << 12);

  // Ground truth from an independent sequential oracle.
  DijkstraOracle truth(&graph);
  const int n = graph.num_vertices();
  constexpr int kThreads = 8, kPairs = 400;
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(kPairs);
  std::uint64_t state = 42;
  for (int i = 0; i < kPairs; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto u = static_cast<VertexId>((state >> 33) % static_cast<std::uint64_t>(n));
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto v = static_cast<VertexId>((state >> 33) % static_cast<std::uint64_t>(n));
    pairs.emplace_back(u, v);
  }

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::vector<std::vector<double>> got(kThreads,
                                       std::vector<double>(kPairs, -1.0));
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPairs; ++i) {
        got[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
            cached.Distance(pairs[static_cast<std::size_t>(i)].first,
                            pairs[static_cast<std::size_t>(i)].second);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kPairs; ++i) {
    const double expect = truth.Distance(pairs[static_cast<std::size_t>(i)].first,
                                         pairs[static_cast<std::size_t>(i)].second);
    for (int t = 0; t < kThreads; ++t) {
      if (got[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] != expect) {
        mismatch.store(true);
      }
    }
  }
  EXPECT_FALSE(mismatch.load());
  // Every top-level call is counted exactly once, concurrency or not.
  EXPECT_EQ(cached.query_count(), static_cast<std::int64_t>(kThreads) * kPairs);
}

TEST(CachedOracleConcurrencyTest, ConcurrentBatchQueriesMatchDijkstraAndBill) {
  // Route-shaped ns x 2 batches (route positions x {origin, destination})
  // from 6 threads, with repeated sources and s == t cells, through a
  // cache far smaller than the pair space so sets evict constantly.
  const RoadNetwork graph = MakeCity({12, 12, 0.3, 4, 12, 0.1, 0.02, 5});
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  CachedOracle cached(&labels, 37);  // 8 sets x 4 ways

  constexpr int kPool = 24, kThreads = 6, kBatches = 300;
  const int n = graph.num_vertices();
  std::vector<VertexId> pool;
  for (int i = 0; i < kPool; ++i) pool.push_back((i * 37 + 5) % n);
  // Truth per pool pair: exact Dijkstra, and the labels' own point query
  // that every cached cell must equal bit for bit.
  DijkstraOracle dijkstra(&graph);
  std::vector<double> exact(kPool * kPool), point(kPool * kPool);
  for (int a = 0; a < kPool; ++a) {
    for (int b = 0; b < kPool; ++b) {
      const auto at = static_cast<std::size_t>(a * kPool + b);
      exact[at] = dijkstra.Distance(pool[static_cast<std::size_t>(a)],
                                    pool[static_cast<std::size_t>(b)]);
      point[at] = labels.Distance(pool[static_cast<std::size_t>(a)],
                                  pool[static_cast<std::size_t>(b)]);
    }
  }

  std::atomic<bool> mismatch{false};
  std::atomic<std::int64_t> billed{0};
  std::atomic<std::int64_t> probes{0};  // cells with s != t
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t state = 0x2545f4914f6cdd1dULL * (t + 1);
      const auto next = [&](int bound) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<int>((state >> 33) % static_cast<std::uint64_t>(bound));
      };
      std::vector<int> src_at, dst_at;
      std::vector<VertexId> sources, targets(2);
      std::vector<double> out;
      for (int b = 0; b < kBatches; ++b) {
        const int ns = 1 + next(9);
        src_at.resize(static_cast<std::size_t>(ns));
        for (int& i : src_at) i = next(kPool);
        if (ns > 2) src_at[2] = src_at[0];  // repeated source
        dst_at = {next(kPool), next(kPool)};
        if (ns > 1) src_at[1] = dst_at[0];  // s == t cell
        sources.clear();
        for (const int i : src_at) sources.push_back(pool[static_cast<std::size_t>(i)]);
        for (std::size_t j = 0; j < 2; ++j) {
          targets[j] = pool[static_cast<std::size_t>(dst_at[j])];
        }
        cached.BatchQuery(sources, targets, &out);
        billed.fetch_add(2 * ns);
        for (int i = 0; i < ns; ++i) {
          for (std::size_t j = 0; j < 2; ++j) {
            const auto at =
                static_cast<std::size_t>(src_at[static_cast<std::size_t>(i)] * kPool + dst_at[j]);
            const double got = out[static_cast<std::size_t>(i) * 2 + j];
            if (got != point[at] || std::abs(got - exact[at]) > 1e-9) {
              mismatch.store(true);
            }
            if (sources[static_cast<std::size_t>(i)] != targets[j]) probes.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
  // Billing parity: every cell of every batch is one query, as with
  // per-pair Distance calls, and every s != t cell is one probe.
  EXPECT_EQ(cached.query_count(), billed.load());
  EXPECT_EQ(cached.cache_hits() + cached.cache_misses(), probes.load());
  EXPECT_GT(cached.cache_hits(), 0);
  EXPECT_GT(cached.cache_misses(), 0);
}

// ------------------------------------------------- determinism regression

struct WorkloadRun {
  SimReport report;
  std::vector<bool> served;
};

WorkloadRun RunOnce(const RoadNetwork& graph, DistanceOracle* oracle,
                    const std::vector<Worker>& workers,
                    const std::vector<Request>& requests,
                    const PlannerFactory& factory, int num_threads) {
  SimOptions options;
  options.num_threads = num_threads;
  Simulation sim(&graph, oracle, workers, &requests, options);
  WorkloadRun run;
  run.report = sim.Run(factory);
  run.served = sim.served();
  return run;
}

// Bit-identical on every deterministic field (wall-clock response-time
// stats are inherently run-dependent and excluded).
void ExpectIdentical(const WorkloadRun& a, const WorkloadRun& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.report.served_requests, b.report.served_requests);
  EXPECT_EQ(a.report.unified_cost, b.report.unified_cost);
  EXPECT_EQ(a.report.total_distance, b.report.total_distance);
  EXPECT_EQ(a.report.penalty_sum, b.report.penalty_sum);
  EXPECT_EQ(a.report.mean_pickup_wait_min, b.report.mean_pickup_wait_min);
  EXPECT_EQ(a.report.mean_detour_ratio, b.report.mean_detour_ratio);
  EXPECT_EQ(a.report.makespan_min, b.report.makespan_min);
  EXPECT_EQ(a.served, b.served);
}

class ParallelPlannerDeterminismTest
    : public ::testing::TestWithParam<double> {};

TEST_P(ParallelPlannerDeterminismTest, BitIdenticalToSequentialForAllThreadCounts) {
  const double penalty_factor = GetParam();
  const RoadNetwork graph = MakeChengduLike(0.05, 2);
  HubLabelOracle labels = HubLabelOracle::Build(graph);

  Rng rng(17);
  RequestParams rp;
  rp.count = 260;
  rp.duration_min = 240.0;
  rp.penalty_factor = penalty_factor;
  rp.seed = 23;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 14, 4.0, &rng);

  const PlannerConfig config;  // pruning on
  const WorkloadRun sequential = RunOnce(graph, &labels, workers, requests,
                                         MakePruneGreedyDpFactory(config), 1);
  // The unpruned ablation must agree too (Lemma 8 losslessness with the
  // shared deterministic tie-break).
  const WorkloadRun unpruned = RunOnce(graph, &labels, workers, requests,
                                       MakeGreedyDpFactory(config), 1);
  ExpectIdentical(sequential, unpruned, "pruneGreedyDP vs GreedyDP");

  ASSERT_GT(sequential.report.served_requests, 0);
  if (penalty_factor < 5.0) {
    // The rejection-heavy workload must actually exercise rejections.
    ASSERT_LT(sequential.report.served_requests,
              sequential.report.total_requests);
  }

  for (int threads : {1, 2, 4, 8}) {
    const WorkloadRun parallel =
        RunOnce(graph, &labels, workers, requests,
                MakeParallelGreedyDpFactory(config), threads);
    ExpectIdentical(sequential, parallel,
                    "parallel threads=" + std::to_string(threads));
  }

  // The speculative block scan is thread-count independent, so the
  // distance-query count of parallel runs must not depend on the pool
  // size either.
  const WorkloadRun p2 = RunOnce(graph, &labels, workers, requests,
                                 MakeParallelGreedyDpFactory(config), 2);
  const WorkloadRun p8 = RunOnce(graph, &labels, workers, requests,
                                 MakeParallelGreedyDpFactory(config), 8);
  EXPECT_EQ(p2.report.distance_queries, p8.report.distance_queries);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ParallelPlannerDeterminismTest,
                         ::testing::Values(10.0,   // default penalties
                                           1.7,    // rejection-heavy
                                           30.0),  // accept-heavy: long
                                                   // routes, warm caches
                         [](const ::testing::TestParamInfo<double>& info) {
                           if (info.param < 5.0) return "RejectionHeavy";
                           return info.param > 20.0 ? "AcceptHeavy"
                                                    : "DefaultPenalties";
                         });

}  // namespace
}  // namespace urpsm
