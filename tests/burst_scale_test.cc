// Thread-count identity of the pipelined dispatch-window engine at bench
// scale: the input of perfbench's burst_window4 workload (1296-vertex
// Chengdu-like city, 20,000 trips uniform over 60 min, 400 workers, 6 s
// windows), replayed through the double-buffered engine at 1 and at 4
// threads. Every deterministic SimReport field, the served vector and the
// billed distance queries must be bit-identical, and both runs must pass
// the accounting and route-invariant checks. The small fixtures of
// pipeline_test.cc cover the same contract; this one holds it where the
// engine does its real work (dozens of requests per window, heavy
// commit-time conflicts). The suite is deliberately not named Pipeline*:
// the tsan preset would otherwise pick up a multi-second run.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/shortest/hub_labels.h"
#include "src/sim/dispatch_window.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"

namespace urpsm {
namespace {

struct BurstRun {
  SimReport report;
  std::vector<bool> served;
};

class BurstScaleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new RoadNetwork(MakeChengduLike(0.5, 2));
    labels_ = new HubLabelOracle(HubLabelOracle::Build(*graph_));
    RequestParams rp;
    rp.count = 20000;
    rp.rush_fraction = 0.0;
    rp.penalty_factor = 10.0;
    Rng trip_rng(7);
    requests_ = new std::vector<Request>(
        GenerateRequests(*graph_, rp, labels_, &trip_rng));
    // Arrivals uniform over 60 min with 10 min deadlines, as in the
    // benchmark's burst workload (seed 1).
    Rng time_rng(3);
    for (Request& r : *requests_) {
      r.release_time = time_rng.Uniform(0.0, 60.0);
      r.deadline = r.release_time + 10.0;
    }
    std::sort(requests_->begin(), requests_->end(),
              [](const Request& a, const Request& b) {
                return a.release_time < b.release_time;
              });
    for (std::size_t i = 0; i < requests_->size(); ++i) {
      (*requests_)[i].id = static_cast<RequestId>(i);
    }
    Rng worker_rng(4);
    workers_ = new std::vector<Worker>(
        GenerateWorkers(*graph_, 400, 4.0, &worker_rng));
  }

  static void TearDownTestSuite() {
    delete workers_;
    delete requests_;
    delete labels_;
    delete graph_;
  }

  static BurstRun Run(int threads) {
    SimOptions options;
    options.batch_window_s = 6.0;
    options.pipeline = true;
    options.num_threads = threads;
    HubLabelOracle labels = *labels_;  // per-run query counters
    Simulation sim(graph_, &labels, *workers_, requests_, options);
    BurstRun run;
    run.report = sim.Run(MakeDispatchWindowFactory({}));
    run.served = sim.served();
    const InvariantReport acct = CheckAccounting(run.report);
    EXPECT_TRUE(acct.ok) << threads << " threads: " << acct.violation;
    const InvariantReport inv = VerifyInvariants(sim.fleet(), *requests_);
    EXPECT_TRUE(inv.ok) << threads << " threads: " << inv.violation;
    return run;
  }

  static RoadNetwork* graph_;
  static HubLabelOracle* labels_;
  static std::vector<Request>* requests_;
  static std::vector<Worker>* workers_;
};

RoadNetwork* BurstScaleTest::graph_ = nullptr;
HubLabelOracle* BurstScaleTest::labels_ = nullptr;
std::vector<Request>* BurstScaleTest::requests_ = nullptr;
std::vector<Worker>* BurstScaleTest::workers_ = nullptr;

TEST_F(BurstScaleTest, OneAndFourThreadsBitIdentical) {
  const BurstRun one = Run(1);
  const BurstRun four = Run(4);
  ASSERT_FALSE(one.report.timed_out);
  ASSERT_FALSE(four.report.timed_out);
  ASSERT_TRUE(one.report.pipeline.enabled);
  ASSERT_GT(one.report.served_requests, 0);
  // The burst keeps the commit stage busy with conflict replans.
  EXPECT_GT(one.report.pipeline.replans_full, 0);

  const SimReport& a = one.report;
  const SimReport& b = four.report;
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.processed_requests, b.processed_requests);
  EXPECT_EQ(a.served_requests, b.served_requests);
  EXPECT_EQ(a.rejected_requests, b.rejected_requests);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  EXPECT_EQ(a.dnf_requests, b.dnf_requests);
  EXPECT_EQ(a.unified_cost, b.unified_cost);
  EXPECT_EQ(a.total_distance, b.total_distance);
  EXPECT_EQ(a.penalty_sum, b.penalty_sum);
  EXPECT_EQ(a.mean_pickup_wait_min, b.mean_pickup_wait_min);
  EXPECT_EQ(a.mean_detour_ratio, b.mean_detour_ratio);
  EXPECT_EQ(a.makespan_min, b.makespan_min);
  EXPECT_EQ(a.distance_queries, b.distance_queries);
  EXPECT_EQ(a.pipeline.windows, b.pipeline.windows);
  EXPECT_EQ(a.pipeline.replans_full, b.pipeline.replans_full);
  EXPECT_EQ(one.served, four.served);
}

}  // namespace
}  // namespace urpsm
