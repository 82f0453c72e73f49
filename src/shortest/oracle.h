#ifndef URPSM_SRC_SHORTEST_ORACLE_H_
#define URPSM_SRC_SHORTEST_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/graph/road_network.h"
#include "src/util/sharded_lru_cache.h"

namespace urpsm {

class FaultInjector;

namespace obs {
class Registry;
}  // namespace obs

/// Abstract shortest-distance / shortest-path oracle over a road network.
///
/// The paper assumes a shortest-distance query takes O(1) (or O(q)) time and
/// answers them with a hub-based labeling plus a shared LRU cache
/// (Sec. 6.1). All algorithms in this library talk to this interface, and
/// the number of `Distance` calls is the "distance query" count reported by
/// the pruning experiments (Figs. 3 and 6).
///
/// Thread-safety contract (relied on by the parallel dispatch engine):
/// `Distance` must be safe to call concurrently. Every oracle bundled here
/// satisfies it the same way — the query itself only reads immutable state
/// (graph, labels) through per-call local buffers, and the query counter is
/// atomic. `Path` is not part of the contract: planners only materialize
/// paths sequentially.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Shortest travel time between two vertices, in minutes.
  virtual double Distance(VertexId u, VertexId v) = 0;

  /// Shortest path between two vertices as a vertex sequence including both
  /// endpoints. Empty when unreachable.
  virtual std::vector<VertexId> Path(VertexId u, VertexId v) = 0;

  /// Multi-source sweep: fills `out` (row-major, sources.size() x
  /// targets.size()) with out[i * targets.size() + j] =
  /// Distance(sources[i], targets[j]). Bills sources x targets queries, and
  /// every cell is bit-identical to the corresponding point query. The base
  /// implementation loops over Distance; label-based oracles override it to
  /// walk each source label once against rank-indexed dense target columns.
  /// Same thread-safety contract as Distance.
  virtual void BatchQuery(const std::vector<VertexId>& sources,
                          const std::vector<VertexId>& targets,
                          std::vector<double>* out) {
    out->resize(sources.size() * targets.size());
    std::size_t at = 0;
    for (const VertexId s : sources) {
      for (const VertexId t : targets) (*out)[at++] = Distance(s, t);
    }
  }

  /// Worst-case absolute error of any Distance result versus the exact
  /// shortest distance, when the oracle stores lossy (quantized) labels.
  /// 0 for exact oracles. Decorators forward to the wrapped oracle.
  virtual double QuantizationErrorBound() const { return 0.0; }

  /// Number of `Distance` calls served so far.
  std::int64_t query_count() const {
    return query_count_.load(std::memory_order_relaxed);
  }

  void ResetQueryCount() { query_count_.store(0, std::memory_order_relaxed); }

 protected:
  DistanceOracle() = default;
  // std::atomic is neither copyable nor movable; oracles are (HubLabelOracle
  // is returned by value from Build), so transfer the counter's value.
  DistanceOracle(const DistanceOracle& other) : query_count_(other.query_count()) {}
  DistanceOracle& operator=(const DistanceOracle& other) {
    query_count_.store(other.query_count(), std::memory_order_relaxed);
    return *this;
  }

  std::atomic<std::int64_t> query_count_{0};
};

/// Exact oracle running Dijkstra per query. Simple and always correct;
/// used as ground truth in tests and as a fallback oracle.
class DijkstraOracle : public DistanceOracle {
 public:
  explicit DijkstraOracle(const RoadNetwork* graph) : graph_(graph) {}

  double Distance(VertexId u, VertexId v) override;
  std::vector<VertexId> Path(VertexId u, VertexId v) override;

 private:
  const RoadNetwork* graph_;
};

/// Decorator adding the paper's shared LRU cache on top of any oracle.
/// Cache hits do not count as queries of the inner oracle but do count as
/// queries of this oracle (the paper's "saved queries" metric counts calls
/// that never happen at all thanks to pruning, not cache hits).
///
/// The cache is sharded with striped locks, so concurrent `Distance` calls
/// from the parallel planner only serialize when they collide on a shard.
/// Two threads racing on the same cold key may both consult the inner
/// oracle; both obtain the same exact value, so results are unaffected.
class CachedOracle : public DistanceOracle {
 public:
  /// `inner` is borrowed, not owned: oracles (hub labels in particular)
  /// are built once and shared across many simulation runs.
  CachedOracle(DistanceOracle* inner, std::size_t capacity)
      : inner_(inner), cache_(capacity) {}

  double Distance(VertexId u, VertexId v) override;
  std::vector<VertexId> Path(VertexId u, VertexId v) override;

  /// Batched sweep through the cache: hits are served from the cache, the
  /// misses of each target column are forwarded to the inner oracle as one
  /// (deduplicated) BatchQuery, and results are inserted back. Cell values
  /// and billed query counts are identical to per-pair Distance calls; only
  /// the cache's LRU touch order differs.
  void BatchQuery(const std::vector<VertexId>& sources,
                  const std::vector<VertexId>& targets,
                  std::vector<double>* out) override;

  double QuantizationErrorBound() const override {
    return inner_->QuantizationErrorBound();
  }

  std::int64_t cache_hits() const { return cache_.hits(); }
  std::int64_t cache_misses() const { return cache_.misses(); }
  DistanceOracle* inner() { return inner_; }

  /// Registers pull-model gauges (oracle.queries / oracle.cache_hits /
  /// oracle.cache_misses / oracle.cache_hit_rate) on `reg`. The oracle
  /// must outlive the registry's last Snapshot (or the gauges must be
  /// frozen first). No-op when reg is null or disabled.
  void RegisterMetrics(obs::Registry* reg);

  /// Arms the kOracleDelay fault site on this oracle's Distance path
  /// (timing-only; query counts and results are untouched). nullptr (the
  /// default) costs one branch per call.
  void set_faults(FaultInjector* faults) { faults_ = faults; }

 private:
  struct KeyHash {
    std::size_t operator()(const std::pair<VertexId, VertexId>& k) const {
      return std::hash<std::int64_t>()(
          (static_cast<std::int64_t>(k.first) << 32) |
          static_cast<std::uint32_t>(k.second));
    }
  };

  DistanceOracle* inner_;
  ShardedLruCache<std::pair<VertexId, VertexId>, double, KeyHash> cache_;
  FaultInjector* faults_ = nullptr;
};

}  // namespace urpsm

#endif  // URPSM_SRC_SHORTEST_ORACLE_H_
