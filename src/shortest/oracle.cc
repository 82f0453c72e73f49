#include "src/shortest/oracle.h"

#include <algorithm>
#include <utility>

#include "src/obs/registry.h"
#include "src/shortest/bidijkstra.h"
#include "src/shortest/dijkstra.h"
#include "src/util/fault.h"

namespace urpsm {

double DijkstraOracle::Distance(VertexId u, VertexId v) {
  ++query_count_;
  return BidirectionalDistance(*graph_, u, v);
}

std::vector<VertexId> DijkstraOracle::Path(VertexId u, VertexId v) {
  return DijkstraPath(*graph_, u, v);
}

namespace {

/// Cache key of the unordered pair {u, v}: (min << 32) | max. The network
/// is undirected, so both orders share an entry. Never 0 for u != v (0 is
/// the cache's empty-slot marker); 0 for u == v, which bypasses the cache.
std::uint64_t PairKey(VertexId u, VertexId v) {
  if (u == v) return 0;
  const auto lo = static_cast<std::uint32_t>(u < v ? u : v);
  const auto hi = static_cast<std::uint32_t>(u < v ? v : u);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// Reusable buffers of one CachedOracle::BatchQuery call.
struct BatchScratch {
  std::vector<std::uint64_t> keys;  // per cell: its key until answered, then 0
  // Distinct sources with an unanswered cell, in first-seen order; a source
  // repeated in a batch is forwarded once, like sequential point queries
  // where the repeat would hit.
  std::vector<VertexId> miss_sources;
  // (row, index of its source in miss_sources) per row to fill.
  std::vector<std::pair<std::size_t, std::size_t>> miss_rows;
  std::vector<double> computed;  // inner answers, miss_sources x targets
};

}  // namespace

double CachedOracle::Distance(VertexId u, VertexId v) {
  MaybeInject(faults_, FaultSite::kOracleDelay);
  ++query_count_;
  const std::uint64_t key = PairKey(u, v);
  if (key == 0) return 0.0;
  double d = 0.0;
  if (cache_.Get(key, &d)) return d;
  d = inner_->Distance(u, v);
  cache_.Put(key, d);
  return d;
}

void CachedOracle::BatchQuery(const std::vector<VertexId>& sources,
                              const std::vector<VertexId>& targets,
                              std::vector<double>* out) {
  MaybeInject(faults_, FaultSite::kOracleDelay);
  const std::size_t ns = sources.size();
  const std::size_t nt = targets.size();
  const auto pairs = static_cast<std::int64_t>(ns) * static_cast<std::int64_t>(nt);
  query_count_.fetch_add(pairs, std::memory_order_relaxed);
  out->resize(ns * nt);
  double* cells = out->data();

  // The thread's warm buffers are swapped in and back out, so steady state
  // allocates nothing and a CachedOracle nested under this one (running on
  // this thread inside inner_->BatchQuery) cannot clobber them.
  thread_local BatchScratch warm;
  BatchScratch s;
  std::swap(s, warm);
  s.keys.resize(ns * nt);
  s.miss_sources.clear();
  s.miss_rows.clear();

  // Prefetch every probed set first, so the probes below overlap their
  // memory latency instead of paying it one after another.
  for (std::size_t i = 0, c = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < nt; ++j, ++c) {
      s.keys[c] = PairKey(sources[i], targets[j]);
      if (s.keys[c] != 0) cache_.Prefetch(s.keys[c]);
    }
  }
  for (std::size_t i = 0, c = 0; i < ns; ++i) {
    bool missed = false;
    for (std::size_t j = 0; j < nt; ++j, ++c) {
      if (s.keys[c] == 0) {
        cells[c] = 0.0;
      } else if (cache_.Get(s.keys[c], &cells[c])) {
        s.keys[c] = 0;
      } else {
        missed = true;
      }
    }
    if (!missed) continue;
    const auto it =
        std::find(s.miss_sources.begin(), s.miss_sources.end(), sources[i]);
    s.miss_rows.emplace_back(
        i, static_cast<std::size_t>(it - s.miss_sources.begin()));
    if (it == s.miss_sources.end()) s.miss_sources.push_back(sources[i]);
  }

  if (!s.miss_sources.empty()) {
    // One fused sweep for all missed sources against all targets; cells
    // that hit are recomputed there too (same value) but not re-inserted.
    inner_->BatchQuery(s.miss_sources, targets, &s.computed);
    for (const auto& [i, m] : s.miss_rows) {
      for (std::size_t j = 0; j < nt; ++j) {
        const std::size_t c = i * nt + j;
        if (s.keys[c] == 0) continue;
        cells[c] = s.computed[m * nt + j];
        cache_.Put(s.keys[c], cells[c]);
      }
    }
  }
  std::swap(s, warm);
}

std::vector<VertexId> CachedOracle::Path(VertexId u, VertexId v) {
  return inner_->Path(u, v);
}

void CachedOracle::RegisterMetrics(obs::Registry* reg) {
  if (reg == nullptr || !reg->enabled()) return;
  reg->RegisterCallbackGauge(
      "oracle.queries",
      [this] { return static_cast<double>(query_count()); });
  reg->RegisterCallbackGauge(
      "oracle.cache_hits",
      [this] { return static_cast<double>(cache_hits()); });
  reg->RegisterCallbackGauge(
      "oracle.cache_misses",
      [this] { return static_cast<double>(cache_misses()); });
  reg->RegisterCallbackGauge("oracle.cache_hit_rate", [this] {
    const double h = static_cast<double>(cache_hits());
    const double m = static_cast<double>(cache_misses());
    return h + m == 0.0 ? 0.0 : h / (h + m);  // 0, not NaN, before traffic
  });
}

}  // namespace urpsm
