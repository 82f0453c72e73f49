// Tests for the continental-scale oracle work: pluggable vertex orderings
// (degree vs CH contraction) with per-ordering parallel-build bit-identity,
// 32-bit quantized label distances (saturation/infinity semantics and the
// proven error bound), the batched multi-source BatchQuery sweep through
// HubLabelOracle / CachedOracle / GatherDistanceColumns, and the
// ordering-identity gate on the determinism workload.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/builders.h"
#include "src/insertion/insertion.h"
#include "src/model/feasibility.h"
#include "src/parallel/thread_pool.h"
#include "src/shortest/contraction.h"
#include "src/shortest/dijkstra.h"
#include "src/shortest/hub_labels.h"
#include "src/shortest/oracle.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

RoadNetwork MakeTwoComponentGraph() {
  // Two 3x4 grids with no connecting edge.
  std::vector<Point> coords;
  std::vector<EdgeSpec> edges;
  const auto add_grid = [&](double x0, double y0) {
    const VertexId base = static_cast<VertexId>(coords.size());
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 4; ++c) {
        coords.push_back({x0 + c * 1.0, y0 + r * 1.0});
      }
    }
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 4; ++c) {
        const VertexId v = base + static_cast<VertexId>(r * 4 + c);
        if (c + 1 < 4) edges.push_back({v, v + 1, 1.0, RoadClass::kPrimary});
        if (r + 1 < 3) edges.push_back({v, v + 4, 1.0, RoadClass::kPrimary});
      }
    }
  };
  add_grid(0.0, 0.0);
  add_grid(100.0, 100.0);
  return RoadNetwork::FromEdges(std::move(coords), edges);
}

OracleOptions Opts(VertexOrder order, bool quantize) {
  OracleOptions o;
  o.order = order;
  o.quantize = quantize;
  return o;
}

// --------------------------------------------------------- vertex ordering

TEST(HubLabelOrderTest, ContractionOrderIsAPermutation) {
  Rng grng(91);
  const RoadNetwork g = MakeRandomGeometricGraph(150, 10.0, 4, &grng);
  const std::vector<int> rank = ContractionOrder(g);
  ASSERT_EQ(rank.size(), static_cast<std::size_t>(g.num_vertices()));
  std::vector<bool> seen(rank.size(), false);
  for (const int r : rank) {
    ASSERT_GE(r, 0);
    ASSERT_LT(r, static_cast<int>(rank.size()));
    ASSERT_FALSE(seen[static_cast<std::size_t>(r)]);
    seen[static_cast<std::size_t>(r)] = true;
  }
}

TEST(HubLabelOrderTest, ContractionOrderMatchesDijkstraOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng grng(40 + seed);
    const RoadNetwork g = MakeRandomGeometricGraph(160, 12.0, 4, &grng);
    HubLabelOracle labels = HubLabelOracle::Build(
        g, nullptr, Opts(VertexOrder::kContraction, false));
    EXPECT_EQ(labels.order(), VertexOrder::kContraction);
    DijkstraOracle truth(&g);
    Rng rng(7 * seed);
    for (int trial = 0; trial < 150; ++trial) {
      const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
      const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
      EXPECT_NEAR(labels.Distance(s, t), truth.Distance(s, t), 1e-9)
          << "seed=" << seed << " s=" << s << " t=" << t;
    }
  }
}

TEST(HubLabelOrderTest, ContractionOrderShrinksLabelsOnCityGraph) {
  const RoadNetwork g = MakeNycLike(0.06, 1);
  HubLabelOracle degree =
      HubLabelOracle::Build(g, nullptr, Opts(VertexOrder::kDegree, false));
  HubLabelOracle ch = HubLabelOracle::Build(
      g, nullptr, Opts(VertexOrder::kContraction, false));
  // The CH importance order is the point of the pluggable strategy: it must
  // measurably beat the degree proxy on road-like graphs.
  EXPECT_LT(ch.average_label_size(), degree.average_label_size());
  EXPECT_LT(ch.MemoryBytes(), degree.MemoryBytes());
}

TEST(HubLabelOrderTest, ParallelBuildBitIdenticalPerOrderingAndQuant) {
  Rng grng(77);
  const RoadNetwork g = MakeRandomGeometricGraph(220, 14.0, 4, &grng);
  for (const VertexOrder order :
       {VertexOrder::kDegree, VertexOrder::kContraction}) {
    for (const bool quantize : {false, true}) {
      const OracleOptions opts = Opts(order, quantize);
      const HubLabelOracle seq = HubLabelOracle::Build(g, nullptr, opts);
      for (const int threads : {2, 5, 8}) {
        ThreadPool pool(threads);
        const HubLabelOracle par = HubLabelOracle::Build(g, &pool, opts);
        EXPECT_TRUE(seq.SameLabels(par))
            << "order=" << static_cast<int>(order)
            << " quantize=" << quantize << " threads=" << threads;
      }
    }
  }
}

TEST(HubLabelOrderTest, DefaultOptionsReproduceLegacyBuild) {
  Rng grng(5);
  const RoadNetwork g = MakeRandomGeometricGraph(180, 12.0, 4, &grng);
  const HubLabelOracle legacy = HubLabelOracle::Build(g);
  const HubLabelOracle opted =
      HubLabelOracle::Build(g, nullptr, OracleOptions{});
  EXPECT_TRUE(legacy.SameLabels(opted));
  EXPECT_EQ(legacy.order(), VertexOrder::kDegree);
  EXPECT_FALSE(legacy.quantized());
  EXPECT_EQ(legacy.QuantizationErrorBound(), 0.0);
}

// ------------------------------------------------------------ quantization

TEST(HubLabelQuantTest, HelpersSaturateAndRoundTripInfinity) {
  const double scale = 1000.0;  // quanta per minute
  // Exact infinity survives via the sentinel (and NaN maps to it too —
  // "unknown" must never decode as a finite distance).
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(kInfDistance, scale),
            HubLabelOracle::kQuantInf);
  EXPECT_EQ(HubLabelOracle::DequantizeDistance(HubLabelOracle::kQuantInf,
                                               1.0 / scale),
            kInfDistance);
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(std::nan(""), scale),
            HubLabelOracle::kQuantInf);
  // Near-overflow saturates at the cap instead of wrapping.
  const double huge =
      static_cast<double>(HubLabelOracle::kQuantMax) / scale * 4.0;
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(huge, scale),
            HubLabelOracle::kQuantMax);
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(
                static_cast<double>(HubLabelOracle::kQuantMax) / scale, scale),
            HubLabelOracle::kQuantMax);
  // Zero and sub-quantum values round to the floor of the representation.
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(0.0, scale), 0u);
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(1e-9, scale), 0u);
  EXPECT_EQ(HubLabelOracle::DequantizeDistance(0u, 1.0 / scale), 0.0);
  // Round-trip of a representable value survives within rounding.
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(2.0, scale), 2000u);
  EXPECT_DOUBLE_EQ(HubLabelOracle::DequantizeDistance(2000u, 1.0 / scale),
                   2.0);
}

TEST(HubLabelQuantTest, DisconnectedPairsStayInfinite) {
  const RoadNetwork g = MakeTwoComponentGraph();
  HubLabelOracle labels = HubLabelOracle::Build(
      g, nullptr, Opts(VertexOrder::kDegree, true));
  EXPECT_TRUE(labels.quantized());
  const VertexId a = 0;               // first grid
  const VertexId b = 12;              // second grid
  EXPECT_EQ(labels.Distance(a, b), kInfDistance);
  EXPECT_EQ(labels.Distance(b, a), kInfDistance);
  EXPECT_LT(labels.Distance(0, 1), kInfDistance);
  // The batched sweep agrees.
  std::vector<double> out;
  labels.BatchQuery({a, b}, {b, a}, &out);
  EXPECT_EQ(out[0], kInfDistance);  // a -> b
  EXPECT_EQ(out[1], 0.0);           // a -> a
  EXPECT_EQ(out[2], 0.0);           // b -> b
  EXPECT_EQ(out[3], kInfDistance);  // b -> a
}

TEST(HubLabelQuantTest, ZeroLengthEdgesQuantizeExactly) {
  // All-zero edge costs make every finite distance 0; the degenerate scale
  // must not divide by zero, and results stay exact.
  const RoadNetwork g = MakePathGraph(12, 0.0);
  HubLabelOracle labels = HubLabelOracle::Build(
      g, nullptr, Opts(VertexOrder::kDegree, true));
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
    const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
    EXPECT_EQ(labels.Distance(s, t), 0.0);
  }
}

TEST(HubLabelQuantTest, ErrorBoundHoldsAcrossRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng grng(60 + seed);
    const RoadNetwork g = MakeRandomGeometricGraph(170, 13.0, 4, &grng);
    for (const VertexOrder order :
         {VertexOrder::kDegree, VertexOrder::kContraction}) {
      HubLabelOracle exact = HubLabelOracle::Build(g, nullptr,
                                                   Opts(order, false));
      HubLabelOracle quant = HubLabelOracle::Build(g, nullptr,
                                                   Opts(order, true));
      const double bound = quant.QuantizationErrorBound();
      ASSERT_GT(bound, 0.0);
      EXPECT_GT(quant.quant_resolution(), 0.0);
      // Quantized labels store half the bytes of the exact ones.
      EXPECT_LT(quant.MemoryBytes(), exact.MemoryBytes());
      Rng rng(9 * seed);
      for (int trial = 0; trial < 200; ++trial) {
        const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
        const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
        const double de = exact.Distance(s, t);
        const double dq = quant.Distance(s, t);
        if (de == kInfDistance) {
          EXPECT_EQ(dq, kInfDistance);
        } else {
          EXPECT_LE(std::abs(dq - de), bound)
              << "seed=" << seed << " s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST(HubLabelQuantTest, SimReportSurfacesErrorBound) {
  const RoadNetwork graph = MakeChengduLike(0.04, 2);
  Rng rng(17);
  HubLabelOracle exact = HubLabelOracle::Build(graph);
  RequestParams rp;
  rp.count = 60;
  rp.duration_min = 120.0;
  rp.seed = 23;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &exact, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 6, 4.0, &rng);

  HubLabelOracle quant = HubLabelOracle::Build(
      graph, nullptr, Opts(VertexOrder::kDegree, true));
  SimOptions options;
  {
    Simulation sim(&graph, &quant, workers, &requests, options);
    const SimReport report = sim.Run(MakePruneGreedyDpFactory({}));
    EXPECT_EQ(report.oracle_quant_error_bound,
              quant.QuantizationErrorBound());
    EXPECT_GT(report.oracle_quant_error_bound, 0.0);
  }
  {
    Simulation sim(&graph, &exact, workers, &requests, options);
    const SimReport report = sim.Run(MakePruneGreedyDpFactory({}));
    EXPECT_EQ(report.oracle_quant_error_bound, 0.0);
  }
}

// -------------------------------------------------------------- BatchQuery

TEST(OracleBatchQueryTest, MatchesPointQueriesExactly) {
  Rng grng(31);
  const RoadNetwork g = MakeRandomGeometricGraph(200, 13.0, 4, &grng);
  for (const VertexOrder order :
       {VertexOrder::kDegree, VertexOrder::kContraction}) {
    for (const bool quantize : {false, true}) {
      HubLabelOracle labels =
          HubLabelOracle::Build(g, nullptr, Opts(order, quantize));
      Rng rng(13);
      for (int trial = 0; trial < 30; ++trial) {
        const int ns = rng.UniformInt(1, 9);
        const int nt = rng.UniformInt(1, 4);
        std::vector<VertexId> sources, targets;
        for (int i = 0; i < ns; ++i) {
          sources.push_back(rng.UniformInt(0, g.num_vertices() - 1));
        }
        for (int j = 0; j < nt; ++j) {
          targets.push_back(rng.UniformInt(0, g.num_vertices() - 1));
        }
        if (trial % 3 == 0 && ns > 1) sources[1] = sources[0];  // duplicate
        if (trial % 4 == 0) targets[0] = sources[0];            // s == t cell
        const std::int64_t before = labels.query_count();
        std::vector<double> out;
        labels.BatchQuery(sources, targets, &out);
        EXPECT_EQ(labels.query_count() - before,
                  static_cast<std::int64_t>(ns) * nt);
        ASSERT_EQ(out.size(), static_cast<std::size_t>(ns) *
                                  static_cast<std::size_t>(nt));
        for (int i = 0; i < ns; ++i) {
          for (int j = 0; j < nt; ++j) {
            // Bit-identical, not just close: the sweep forms the same
            // candidate sums and min over doubles is order-independent.
            EXPECT_EQ(out[static_cast<std::size_t>(i * nt + j)],
                      labels.Distance(sources[static_cast<std::size_t>(i)],
                                      targets[static_cast<std::size_t>(j)]))
                << "order=" << static_cast<int>(order)
                << " quantize=" << quantize << " i=" << i << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(OracleBatchQueryTest, EmptySetsAreSafe) {
  Rng grng(8);
  const RoadNetwork g = MakeRandomGeometricGraph(60, 8.0, 4, &grng);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  std::vector<double> out{1.0, 2.0};
  labels.BatchQuery({}, {0, 1}, &out);
  EXPECT_TRUE(out.empty());
  labels.BatchQuery({0, 1}, {}, &out);
  EXPECT_TRUE(out.empty());
}

/// Forwards to `inner` and counts the BatchQuery calls it receives.
class BatchCountingOracle : public DistanceOracle {
 public:
  explicit BatchCountingOracle(DistanceOracle* inner) : inner_(inner) {}
  double Distance(VertexId u, VertexId v) override {
    ++query_count_;
    return inner_->Distance(u, v);
  }
  std::vector<VertexId> Path(VertexId u, VertexId v) override {
    return inner_->Path(u, v);
  }
  void BatchQuery(const std::vector<VertexId>& sources,
                  const std::vector<VertexId>& targets,
                  std::vector<double>* out) override {
    ++batch_calls;
    query_count_ += static_cast<std::int64_t>(sources.size() * targets.size());
    inner_->BatchQuery(sources, targets, out);
  }
  int batch_calls = 0;

 private:
  DistanceOracle* inner_;
};

TEST(OracleBatchQueryTest, CachedOracleBatchMatchesAndBills) {
  Rng grng(44);
  const RoadNetwork g = MakeRandomGeometricGraph(150, 11.0, 4, &grng);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  Rng rng(21);
  for (int round = 0; round < 2; ++round) {
    BatchCountingOracle counting(&labels);
    CachedOracle cached(&counting, 4096);
    CachedOracle reference(&labels, 4096);
    for (int trial = 0; trial < 30; ++trial) {
      const int ns = rng.UniformInt(1, 8);
      const int nt = 1 + trial % 3;  // 1, 2 (the fused walk) and 3 targets
      std::vector<VertexId> sources, targets;
      for (int i = 0; i < ns; ++i) {
        sources.push_back(rng.UniformInt(0, g.num_vertices() - 1));
      }
      for (int j = 0; j < nt; ++j) {
        targets.push_back(rng.UniformInt(0, g.num_vertices() - 1));
      }
      if (trial % 2 == 0 && ns > 2) sources[2] = sources[0];  // dup miss
      if (trial % 5 == 0 && ns > 1) sources[1] = targets[0];  // s == t cell
      std::vector<double> out;
      const int calls_before = counting.batch_calls;
      cached.BatchQuery(sources, targets, &out);
      // All misses of one batch go to the inner oracle in one call.
      EXPECT_LE(counting.batch_calls - calls_before, 1);
      for (int i = 0; i < ns; ++i) {
        for (int j = 0; j < nt; ++j) {
          const VertexId s = sources[static_cast<std::size_t>(i)];
          const VertexId t = targets[static_cast<std::size_t>(j)];
          // Bit-equal to the point query, through a cache or not.
          EXPECT_EQ(out[static_cast<std::size_t>(i * nt + j)],
                    reference.Distance(s, t));
          EXPECT_EQ(out[static_cast<std::size_t>(i * nt + j)],
                    labels.Distance(s, t));
        }
      }
      // Billing parity: the batch bills every cell, like per-pair calls.
      EXPECT_EQ(cached.query_count(), reference.query_count());

      // The same batch again hits every cell: no inner call at all.
      std::vector<double> again;
      const int calls_warm = counting.batch_calls;
      const std::int64_t inner_warm = counting.query_count();
      cached.BatchQuery(sources, targets, &again);
      EXPECT_EQ(counting.batch_calls, calls_warm);
      EXPECT_EQ(counting.query_count(), inner_warm);
      EXPECT_EQ(again, out);
      EXPECT_EQ(cached.query_count(),
                reference.query_count() + static_cast<std::int64_t>(ns) * nt);
      reference.ResetQueryCount();
      cached.ResetQueryCount();
    }
    EXPECT_GT(counting.batch_calls, 0);
  }
}

TEST(OracleBatchQueryTest, NestedCachedOraclesMatchPointQueries) {
  // A cache over a cache: the inner BatchQuery runs on the same thread in
  // the middle of the outer one and must not disturb its state.
  Rng grng(45);
  const RoadNetwork g = MakeRandomGeometricGraph(120, 10.0, 4, &grng);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  CachedOracle lower(&labels, 64);
  CachedOracle upper(&lower, 16);
  Rng rng(22);
  for (int trial = 0; trial < 40; ++trial) {
    const int ns = rng.UniformInt(1, 10);
    std::vector<VertexId> sources, targets;
    for (int i = 0; i < ns; ++i) {
      sources.push_back(rng.UniformInt(0, 14));  // small pools: repeats hit
    }
    targets = {rng.UniformInt(0, 5), rng.UniformInt(0, 5)};
    std::vector<double> out;
    upper.BatchQuery(sources, targets, &out);
    ASSERT_EQ(out.size(), static_cast<std::size_t>(ns) * 2);
    for (int i = 0; i < ns; ++i) {
      for (int j = 0; j < 2; ++j) {
        EXPECT_EQ(out[static_cast<std::size_t>(i * 2 + j)],
                  labels.Distance(sources[static_cast<std::size_t>(i)],
                                  targets[static_cast<std::size_t>(j)]))
            << "trial " << trial << " i=" << i << " j=" << j;
      }
    }
  }
  EXPECT_GT(upper.cache_hits(), 0);
  EXPECT_GT(lower.cache_hits(), 0);
}

TEST(OracleBatchQueryTest, GatherColumnsMatchReferenceFuzz) {
  // Fuzz-pin GatherDistanceColumns (batched sweep) against the original
  // per-pair loop, over random routes and requests, through a CachedOracle
  // on hub labels — values bit-identical AND the same billed query count.
  Rng grng(52);
  TestEnv env(MakeRandomGeometricGraph(120, 10.0, 4, &grng));
  HubLabelOracle labels = HubLabelOracle::Build(env.graph());
  CachedOracle cached(&labels, 4096);
  PlanningContext ctx(&env.graph(), &cached, &env.requests());

  Rng rng(67);
  Worker w;
  w.id = 0;
  w.capacity = 4;
  w.initial_location = 0;
  for (int round = 0; round < 12; ++round) {
    Route route(w.initial_location, 0.0);
    BuildRandomRoute(&env, w, &route, 6, 0.0, 90.0, &rng);
    const VertexId o = rng.UniformInt(0, env.graph().num_vertices() - 1);
    const VertexId d = rng.UniformInt(0, env.graph().num_vertices() - 1);
    const Request r = env.AddRequest(o, d, 0.0, 120.0);
    for (int max_pos = 0; max_pos <= route.size(); ++max_pos) {
      DistanceColumns got, want;
      const std::int64_t before_got = cached.query_count();
      GatherDistanceColumns(route, r, &ctx, &got, max_pos);
      const std::int64_t got_queries = cached.query_count() - before_got;
      GatherDistanceColumnsReference(route, r, &ctx, &want, max_pos);
      const std::int64_t want_queries =
          cached.query_count() - before_got - got_queries;
      EXPECT_EQ(got_queries, want_queries);
      ASSERT_EQ(got.to_origin.size(), want.to_origin.size());
      for (std::size_t k = 0; k < want.to_origin.size(); ++k) {
        EXPECT_EQ(got.to_origin[k], want.to_origin[k]);
        EXPECT_EQ(got.to_destination[k], want.to_destination[k]);
      }
    }
  }
}

TEST(OracleBatchQueryTest, MultiRouteGatherMatchesPerRoute) {
  Rng grng(58);
  TestEnv env(MakeRandomGeometricGraph(120, 10.0, 4, &grng));
  HubLabelOracle labels = HubLabelOracle::Build(env.graph());
  CachedOracle cached(&labels, 4096);
  PlanningContext ctx(&env.graph(), &cached, &env.requests());

  Rng rng(71);
  std::vector<Route> routes;
  for (int c = 0; c < 5; ++c) {
    Worker w;
    w.id = static_cast<WorkerId>(c);
    w.capacity = 4;
    w.initial_location = rng.UniformInt(0, env.graph().num_vertices() - 1);
    Route route(w.initial_location, 0.0);
    BuildRandomRoute(&env, w, &route, 5, 0.0, 90.0, &rng);
    routes.push_back(route);
  }
  const VertexId o = rng.UniformInt(0, env.graph().num_vertices() - 1);
  const VertexId d = rng.UniformInt(0, env.graph().num_vertices() - 1);
  const Request r = env.AddRequest(o, d, 0.0, 120.0);

  std::vector<const Route*> route_ptrs;
  std::vector<int> max_pos;
  for (const Route& route : routes) {
    route_ptrs.push_back(&route);
    max_pos.push_back(route.size());
  }
  std::vector<DistanceColumns> multi;
  const std::int64_t before = cached.query_count();
  GatherDistanceColumnsMulti(route_ptrs, max_pos, r, &ctx, &multi);
  const std::int64_t multi_queries = cached.query_count() - before;

  std::int64_t per_route_queries = 0;
  for (std::size_t c = 0; c < routes.size(); ++c) {
    DistanceColumns want;
    const std::int64_t b = cached.query_count();
    GatherDistanceColumns(routes[c], r, &ctx, &want, max_pos[c]);
    per_route_queries += cached.query_count() - b;
    ASSERT_EQ(multi[c].to_origin.size(), want.to_origin.size());
    for (std::size_t k = 0; k < want.to_origin.size(); ++k) {
      EXPECT_EQ(multi[c].to_origin[k], want.to_origin[k]);
      EXPECT_EQ(multi[c].to_destination[k], want.to_destination[k]);
    }
  }
  EXPECT_EQ(multi_queries, per_route_queries);
}

// ------------------------------------------------------- ordering identity

struct IdentityRun {
  SimReport report;
  std::vector<bool> served;
};

IdentityRun RunWorkload(const RoadNetwork& graph, DistanceOracle* oracle,
                        const std::vector<Worker>& workers,
                        const std::vector<Request>& requests,
                        const PlannerFactory& factory, int num_threads) {
  SimOptions options;
  options.num_threads = num_threads;
  Simulation sim(&graph, oracle, workers, &requests, options);
  IdentityRun run;
  run.report = sim.Run(factory);
  run.served = sim.served();
  return run;
}

void ExpectIdenticalRuns(const IdentityRun& a, const IdentityRun& b,
                         const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.report.served_requests, b.report.served_requests);
  EXPECT_EQ(a.report.unified_cost, b.report.unified_cost);
  EXPECT_EQ(a.report.total_distance, b.report.total_distance);
  EXPECT_EQ(a.report.penalty_sum, b.report.penalty_sum);
  EXPECT_EQ(a.report.mean_pickup_wait_min, b.report.mean_pickup_wait_min);
  EXPECT_EQ(a.report.mean_detour_ratio, b.report.mean_detour_ratio);
  EXPECT_EQ(a.report.makespan_min, b.report.makespan_min);
  EXPECT_EQ(a.report.distance_queries, b.report.distance_queries);
  EXPECT_EQ(a.served, b.served);
}

TEST(OrderingIdentityTest, DegreeAndContractionOrdersAreOutputIdentical) {
  // Reordering is exact — the oracle answers the same distances whatever
  // the build order — so the full simulation must be byte-identical on the
  // determinism workload under every ordering.
  const RoadNetwork graph = MakeChengduLike(0.05, 2);
  HubLabelOracle degree = HubLabelOracle::Build(graph);
  HubLabelOracle ch = HubLabelOracle::Build(
      graph, nullptr, Opts(VertexOrder::kContraction, false));

  Rng rng(17);
  RequestParams rp;
  rp.count = 260;
  rp.duration_min = 240.0;
  rp.seed = 23;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &degree, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 14, 4.0, &rng);

  const IdentityRun base = RunWorkload(graph, &degree, workers, requests,
                                       MakePruneGreedyDpFactory({}), 1);
  ASSERT_GT(base.report.served_requests, 0);
  const IdentityRun reordered = RunWorkload(graph, &ch, workers, requests,
                                            MakePruneGreedyDpFactory({}), 1);
  ExpectIdenticalRuns(base, reordered, "degree vs contraction order");
  // Same factory, same thread count: the query trace matches cell for cell.
  EXPECT_EQ(base.report.index_memory_bytes, reordered.report.index_memory_bytes)
      << "(cache memory, not labels — should match)";

  // The unpruned planner drives the batched multi-route gather path; it
  // must agree across orderings too.
  PlannerConfig unpruned;
  unpruned.use_pruning = false;
  const IdentityRun base_np = RunWorkload(graph, &degree, workers, requests,
                                          MakeGreedyDpFactory(unpruned), 1);
  const IdentityRun ch_np = RunWorkload(graph, &ch, workers, requests,
                                        MakeGreedyDpFactory(unpruned), 1);
  ExpectIdenticalRuns(base_np, ch_np, "unpruned degree vs contraction");
  EXPECT_EQ(base.report.served_requests, base_np.report.served_requests);
}

TEST(OrderingIdentityTest, QuantizedRunIsThreadCountIdentical) {
  // Quantization changes reported values within the error bound, but the
  // run must stay a pure function of the (quantized) oracle — identical
  // across thread counts.
  const RoadNetwork graph = MakeChengduLike(0.05, 2);
  HubLabelOracle exact = HubLabelOracle::Build(graph);
  HubLabelOracle quant = HubLabelOracle::Build(
      graph, nullptr, Opts(VertexOrder::kDegree, true));

  Rng rng(17);
  RequestParams rp;
  rp.count = 200;
  rp.duration_min = 200.0;
  rp.seed = 23;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &exact, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 12, 4.0, &rng);

  const IdentityRun t1 = RunWorkload(graph, &quant, workers, requests,
                                     MakeParallelGreedyDpFactory({}), 1);
  ASSERT_GT(t1.report.served_requests, 0);
  EXPECT_GT(t1.report.oracle_quant_error_bound, 0.0);
  for (const int threads : {2, 4, 8}) {
    const IdentityRun tn = RunWorkload(graph, &quant, workers, requests,
                                       MakeParallelGreedyDpFactory({}),
                                       threads);
    ExpectIdenticalRuns(t1, tn,
                        "quantized threads=" + std::to_string(threads));
    EXPECT_EQ(tn.report.oracle_quant_error_bound,
              t1.report.oracle_quant_error_bound);
  }
}

// ----------------------------------------------------- memory bookkeeping

TEST(HubLabelOrderTest, MemoryBytesReportsExactCsrSize) {
  Rng grng(12);
  const RoadNetwork g = MakeRandomGeometricGraph(140, 11.0, 4, &grng);
  const auto n = static_cast<std::size_t>(g.num_vertices());

  HubLabelOracle exact = HubLabelOracle::Build(g);
  const auto total = static_cast<std::size_t>(
      std::llround(exact.average_label_size() * static_cast<double>(n)));
  // Exact formula: offsets (n+1 x int64) + ranks (total x int32) +
  // distances (total x double). Capacity slack must not inflate it.
  EXPECT_EQ(exact.MemoryBytes(),
            static_cast<std::int64_t>((n + 1) * sizeof(std::int64_t) +
                                      total * sizeof(VertexId) +
                                      total * sizeof(double)));

  HubLabelOracle quant =
      HubLabelOracle::Build(g, nullptr, Opts(VertexOrder::kDegree, true));
  EXPECT_EQ(quant.MemoryBytes(),
            static_cast<std::int64_t>((n + 1) * sizeof(std::int64_t) +
                                      total * sizeof(VertexId) +
                                      total * sizeof(std::uint32_t)));
}

}  // namespace
}  // namespace urpsm
