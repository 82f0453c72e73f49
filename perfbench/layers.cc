#include "perfbench/layers.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/core/decision.h"
#include "src/index/grid_index.h"
#include "src/insertion/insertion.h"

namespace urpsm::perfbench {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsBetween(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

class TracedGreedyDpPlanner : public RoutePlanner {
 public:
  TracedGreedyDpPlanner(PlanningContext* ctx, Fleet* fleet,
                        PlannerConfig config, const TimedOracle* labels,
                        SequentialLayers* layers)
      : ctx_(ctx), fleet_(fleet), config_(config), labels_(labels),
        layers_(layers) {
    Point lo, hi;
    ctx_->graph().BoundingBox(&lo, &hi);
    index_ = std::make_unique<GridIndex>(lo, hi, config_.grid_cell_km);
    fleet_->AttachIndex(index_.get());
  }

  std::string_view name() const override { return "pruneGreedyDP(traced)"; }
  std::int64_t index_memory_bytes() const override {
    return index_->MemoryBytes();
  }

  WorkerId OnRequest(const Request& r) override {
    SequentialLayers& lay = *layers_;
    ++lay.requests;
    const double now = r.release_time;

    std::int64_t label0 = labels_->busy_ns();
    std::int64_t t0 = NowNs();
    const double L = ctx_->DirectDist(r.id);
    std::int64_t t1 = NowNs();
    lay.direct_s += SecondsBetween(t0, t1);
    lay.direct_label_s += SecondsBetween(label0, labels_->busy_ns());

    const std::vector<WorkerId> candidates =
        FilterCandidates(ctx_, *index_, r, L, now);
    t0 = NowNs();
    lay.filter_s += SecondsBetween(t1, t0);
    lay.candidates += static_cast<std::int64_t>(candidates.size());
    if (candidates.empty()) return kInvalidWorker;

    for (const WorkerId w : candidates) fleet_->Touch(w, now);
    t1 = NowNs();
    lay.touch_s += SecondsBetween(t0, t1);

    // Decision phase (Algo. 4), as PlanRequestSequential's batched path.
    workers_.clear();
    states_.clear();
    for (const WorkerId w : candidates) {
      workers_.push_back(&fleet_->worker(w));
      states_.push_back(&fleet_->CachedState(w, ctx_));
    }
    t0 = NowNs();
    lay.state_s += SecondsBetween(t1, t0);
    BatchDecisionLowerBounds(workers_, states_, r, L, ctx_->graph(), &lbs_);
    t1 = NowNs();
    lay.decision_s += SecondsBetween(t0, t1);

    bounds_.clear();
    double min_lb = kInf;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (lbs_[i] == kInf) continue;
      bounds_.push_back({candidates[i], lbs_[i]});
      min_lb = std::min(min_lb, lbs_[i]);
    }
    if (bounds_.empty()) return kInvalidWorker;
    if (r.penalty < config_.alpha * min_lb) {
      ++lay.lb_rejects;
      return kInvalidWorker;
    }
    lay.scanned_bounds += static_cast<std::int64_t>(bounds_.size());

    // Planning phase (Algo. 5): ascending-LB scan with the Lemma 8 stop.
    t0 = NowNs();
    const std::vector<std::size_t> order = AscendingLowerBoundOrder(bounds_);
    t1 = NowNs();
    lay.scan_order_s += SecondsBetween(t0, t1);

    WorkerId best_worker = kInvalidWorker;
    InsertionCandidate best;
    DistanceColumns* cols = ThreadLocalDistanceColumns();
    for (const std::size_t k : order) {
      if (config_.use_pruning && best.feasible() &&
          LemmaEightCutoff(best.delta, bounds_[k].lower_bound)) {
        break;
      }
      const WorkerId w = bounds_[k].worker;
      ++lay.dp_evals;
      t0 = NowNs();
      const RouteState& st = fleet_->CachedState(w, ctx_);
      label0 = labels_->busy_ns();
      t1 = NowNs();
      lay.state_s += SecondsBetween(t0, t1);
      const Route& route = fleet_->route(w);
      GatherDistanceColumns(route, r, ctx_, cols, InsertionCutoff(st, r));
      t0 = NowNs();
      lay.gather_s += SecondsBetween(t1, t0);
      lay.gather_label_s += SecondsBetween(label0, labels_->busy_ns());
      const InsertionCandidate cand =
          LinearDpInsertion(fleet_->worker(w), route, st, r, *cols, ctx_);
      lay.dp_s += SecondsBetween(t0, NowNs());
      if (cand.feasible() && cand.delta < best.delta) {
        best = cand;
        best_worker = w;
      }
    }
    if (best_worker == kInvalidWorker) return kInvalidWorker;
    if (config_.exact_reject_check && r.penalty < config_.alpha * best.delta) {
      return kInvalidWorker;
    }
    t0 = NowNs();
    fleet_->ApplyInsertion(best_worker, r, best.i, best.j, ctx_->oracle());
    lay.apply_s += SecondsBetween(t0, NowNs());
    return best_worker;
  }

 private:
  PlanningContext* ctx_;
  Fleet* fleet_;
  PlannerConfig config_;
  const TimedOracle* labels_;
  SequentialLayers* layers_;
  std::unique_ptr<GridIndex> index_;
  std::vector<const Worker*> workers_;
  std::vector<const RouteState*> states_;
  std::vector<double> lbs_;
  std::vector<WorkerBound> bounds_;
};

class TimedWindowPlanner : public PipelinedBatchPlanner {
 public:
  TimedWindowPlanner(std::unique_ptr<PipelinedBatchPlanner> inner,
                     WindowLayers* layers)
      : inner_(std::move(inner)), layers_(layers) {}

  WorkerId OnRequest(const Request& r) override {
    return inner_->OnRequest(r);
  }
  std::string_view name() const override { return inner_->name(); }
  void Finalize(double budget_seconds) override {
    inner_->Finalize(budget_seconds);
  }
  std::int64_t index_memory_bytes() const override {
    return inner_->index_memory_bytes();
  }

  void OnBatch(const std::vector<RequestId>& batch, double now,
               WindowEpoch epoch) override {
    CountWindow(batch);
    const std::int64_t t0 = NowNs();
    inner_->OnBatch(batch, now, epoch);
    layers_->batch_s += SecondsBetween(t0, NowNs());
  }
  // PlanWindow and CommitWindow run on different threads; each writes
  // only its own fields, and the benchmark reads them after Run() joined
  // both stages.
  void PlanWindow(const std::vector<RequestId>& batch, double now,
                  WindowEpoch epoch) override {
    CountWindow(batch);
    const std::int64_t t0 = NowNs();
    inner_->PlanWindow(batch, now, epoch);
    layers_->plan_s += SecondsBetween(t0, NowNs());
  }
  void CommitWindow(WindowEpoch epoch) override {
    const std::int64_t t0 = NowNs();
    inner_->CommitWindow(epoch);
    layers_->commit_s += SecondsBetween(t0, NowNs());
  }

  void ConfigurePipeline(int depth) override {
    inner_->ConfigurePipeline(depth);
  }
  std::int64_t speculation_hits() const override {
    return inner_->speculation_hits();
  }
  std::int64_t speculation_misses() const override {
    return inner_->speculation_misses();
  }
  std::int64_t memo_hits() const override { return inner_->memo_hits(); }
  std::int64_t memo_misses() const override { return inner_->memo_misses(); }
  std::int64_t memo_saved_queries() const override {
    return inner_->memo_saved_queries();
  }
  std::int64_t replans_narrowed() const override {
    return inner_->replans_narrowed();
  }
  std::int64_t replans_full() const override { return inner_->replans_full(); }
  StatsAccumulator replan_scope() const override {
    return inner_->replan_scope();
  }

 private:
  void CountWindow(const std::vector<RequestId>& batch) {
    ++layers_->windows;
    layers_->window_size_max = std::max(
        layers_->window_size_max, static_cast<std::int64_t>(batch.size()));
  }

  std::unique_ptr<PipelinedBatchPlanner> inner_;
  WindowLayers* layers_;
};

}  // namespace

double TimedOracle::Distance(VertexId u, VertexId v) {
  const std::int64_t t0 = NowNs();
  const double d = inner_->Distance(u, v);
  busy_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  query_count_.fetch_add(1, std::memory_order_relaxed);
  return d;
}

// Paths are not label scans (the label oracle answers them by Dijkstra),
// so they are forwarded untimed.
std::vector<VertexId> TimedOracle::Path(VertexId u, VertexId v) {
  return inner_->Path(u, v);
}

void TimedOracle::BatchQuery(const std::vector<VertexId>& sources,
                             const std::vector<VertexId>& targets,
                             std::vector<double>* out) {
  const std::int64_t t0 = NowNs();
  inner_->BatchQuery(sources, targets, out);
  busy_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  query_count_.fetch_add(
      static_cast<std::int64_t>(sources.size() * targets.size()),
      std::memory_order_relaxed);
}

PlannerFactory MakeTracedGreedyDpFactory(PlannerConfig config,
                                         const TimedOracle* labels,
                                         SequentialLayers* layers) {
  config.use_pruning = true;
  return [config, labels, layers](PlanningContext* ctx, Fleet* fleet) {
    return std::make_unique<TracedGreedyDpPlanner>(ctx, fleet, config, labels,
                                                   layers);
  };
}

PlannerFactory MakeTimedWindowFactory(PlannerFactory inner,
                                      WindowLayers* layers) {
  return [inner = std::move(inner), layers](PlanningContext* ctx,
                                            Fleet* fleet) {
    std::unique_ptr<RoutePlanner> planner = inner(ctx, fleet);
    auto* pipelined = dynamic_cast<PipelinedBatchPlanner*>(planner.get());
    if (pipelined == nullptr) {
      throw std::invalid_argument(
          "MakeTimedWindowFactory: planner is not a PipelinedBatchPlanner");
    }
    planner.release();
    return std::make_unique<TimedWindowPlanner>(
        std::unique_ptr<PipelinedBatchPlanner>(pipelined), layers);
  };
}

}  // namespace urpsm::perfbench
