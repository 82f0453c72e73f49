#ifndef URPSM_PERFBENCH_LAYERS_H_
#define URPSM_PERFBENCH_LAYERS_H_

// Layer attribution for the traced benchmark runs. Every timer sits at a
// public call of the program, outside it:
//   - TimedOracle sits under the simulation's CachedOracle and times the
//     label scans the cache forwards (the `shortest` layer below the cache);
//   - TracedGreedyDpPlanner makes exactly GreedyDpPlanner::OnRequest's
//     public calls, in the same order, and times each one;
//   - TimedWindowPlanner forwards every PipelinedBatchPlanner call of the
//     dispatch-window engine and times PlanWindow / CommitWindow / OnBatch.
// End-to-end numbers never come from runs that use these.

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/core/planner.h"
#include "src/shortest/oracle.h"

namespace urpsm::perfbench {

/// Forwards every query to `inner` and accumulates the time spent in it;
/// query_count() counts the (source, target) pairs it answered. Safe to
/// call concurrently, as DistanceOracle requires.
class TimedOracle : public DistanceOracle {
 public:
  explicit TimedOracle(DistanceOracle* inner) : inner_(inner) {}

  double Distance(VertexId u, VertexId v) override;
  std::vector<VertexId> Path(VertexId u, VertexId v) override;
  void BatchQuery(const std::vector<VertexId>& sources,
                  const std::vector<VertexId>& targets,
                  std::vector<double>* out) override;
  double QuantizationErrorBound() const override {
    return inner_->QuantizationErrorBound();
  }

  std::int64_t busy_ns() const {
    return busy_ns_.load(std::memory_order_relaxed);
  }

 private:
  DistanceOracle* inner_;
  std::atomic<std::int64_t> busy_ns_{0};
};

/// Per-layer totals of one traced sequential run. Times are wall seconds
/// spent inside the named public calls.
struct SequentialLayers {
  double direct_s = 0.0;      // PlanningContext::DirectDist (L_r)
  double filter_s = 0.0;      // FilterCandidates
  double touch_s = 0.0;       // Fleet::Touch over the candidates
  double state_s = 0.0;       // Fleet::CachedState
  double decision_s = 0.0;    // BatchDecisionLowerBounds
  double scan_order_s = 0.0;  // AscendingLowerBoundOrder
  double gather_s = 0.0;      // GatherDistanceColumns
  double gather_label_s = 0.0;  // label-scan time inside those gathers
  double direct_label_s = 0.0;  // label-scan time inside DirectDist
  double dp_s = 0.0;          // LinearDpInsertion (columns overload)
  double apply_s = 0.0;       // Fleet::ApplyInsertion
  std::int64_t requests = 0;
  std::int64_t candidates = 0;      // filter output, summed
  std::int64_t lb_rejects = 0;      // rejected by p_r < alpha * min LB
  std::int64_t scanned_bounds = 0;  // finite bounds of scanned requests
  std::int64_t dp_evals = 0;

  /// Sum of the timed calls (label time is nested inside them).
  double total_s() const {
    return direct_s + filter_s + touch_s + state_s + decision_s +
           scan_order_s + gather_s + dp_s + apply_s;
  }
};

/// pruneGreedyDP composed from its public pieces: the same calls as
/// GreedyDpPlanner::OnRequest (which funnels through PlanRequestSequential
/// without memo or speculation), each one timed into `layers`. `labels` is
/// the TimedOracle under the simulation's cache, read to split label time
/// out of the gathers. The benchmark checks this planner's run against the
/// real planner's and discards its numbers when the two differ.
PlannerFactory MakeTracedGreedyDpFactory(PlannerConfig config,
                                         const TimedOracle* labels,
                                         SequentialLayers* layers);

/// Per-layer totals of one traced dispatch-window run.
struct WindowLayers {
  double plan_s = 0.0;    // PlanWindow, plan-stage thread
  double commit_s = 0.0;  // CommitWindow, commit-stage thread
  double batch_s = 0.0;   // OnBatch (lock-step windowed loop only)
  std::int64_t windows = 0;
  std::int64_t window_size_max = 0;
};

/// Wraps the planner `inner` builds, which must be a PipelinedBatchPlanner,
/// in a forwarding decorator that times its window calls into `layers`.
PlannerFactory MakeTimedWindowFactory(PlannerFactory inner,
                                      WindowLayers* layers);

}  // namespace urpsm::perfbench

#endif  // URPSM_PERFBENCH_LAYERS_H_
