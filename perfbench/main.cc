// Paper-density benchmark of the pruneGreedyDP engine (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds one workload's inputs from the seed, replays its request trace
// through Simulation::Run as fast as the planner takes it (closed loop, no
// wall-clock pacing) for the given seconds, gates every run's outputs, and
// prints one JSON result line last: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "src/shortest/hub_labels.h"
#include "src/sim/dispatch_window.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"

namespace urpsm::perfbench {
namespace {

/// One named input set and the engine mode that replays it.
struct Workload {
  const char* name;
  double city_scale;     // MakeChengduLike scale
  int requests;
  double duration_min;   // arrivals are uniform over [0, duration)
  int workers;
  double deadline_min;   // e_r = t_r + deadline_min
  bool windowed;         // pipelined 6 s windows on 4 threads; else sequential
};

// Why these three, and why arrivals are uniform: README.md.
constexpr Workload kWorkloads[] = {
    {"steady_seq", 0.5, 20000, 240.0, 800, 10.0, false},
    {"burst_window4", 0.5, 20000, 60.0, 400, 10.0, true},
    {"big_city_seq", 1.0, 10000, 240.0, 400, 15.0, false},
};

constexpr double kCapacityMean = 4.0;
constexpr double kPenaltyFactor = 10.0;
constexpr double kWindowS = 6.0;
constexpr int kWindowThreads = 4;
/// Inputs are built this many times per run; setup_s is the median.
constexpr int kSetups = 3;
/// Refuse a workload whose busiest 6 s window holds more than this many
/// times the mean arrivals per window (a rush peak clamped into one
/// window, for instance).
constexpr double kMaxWindowArrivalsOverMean = 4.0;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Inputs {
  RoadNetwork graph;
  std::unique_ptr<HubLabelOracle> labels;
  std::vector<Request> requests;
  std::vector<Worker> workers;
  double label_build_s = 0.0;
};

// The city and its trips (origin, destination, capacity, penalty) are fixed
// per workload; --seed draws the arrival times and the fleet. See README.md.
constexpr std::uint64_t kGraphSeed = 2;
constexpr std::uint64_t kTripSeed = 7;

std::unique_ptr<Inputs> MakeInputs(const Workload& w, std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->graph = MakeChengduLike(w.city_scale, kGraphSeed);
  const auto t0 = std::chrono::steady_clock::now();
  in->labels = std::make_unique<HubLabelOracle>(
      HubLabelOracle::Build(in->graph, nullptr, OracleOptions{}));
  in->label_build_s = SecondsSince(t0);
  RequestParams rp;
  rp.count = w.requests;
  rp.rush_fraction = 0.0;
  rp.penalty_factor = kPenaltyFactor;
  Rng trip_rng(kTripSeed);
  in->requests = GenerateRequests(in->graph, rp, in->labels.get(), &trip_rng);
  Rng time_rng(2 * seed + 1);
  for (Request& r : in->requests) {
    r.release_time = time_rng.Uniform(0.0, w.duration_min);
    r.deadline = r.release_time + w.deadline_min;
  }
  std::sort(in->requests.begin(), in->requests.end(),
            [](const Request& a, const Request& b) {
              return a.release_time < b.release_time;
            });
  for (std::size_t i = 0; i < in->requests.size(); ++i) {
    in->requests[i].id = static_cast<RequestId>(i);
  }
  Rng worker_rng(2 * seed + 2);
  in->workers =
      GenerateWorkers(in->graph, w.workers, kCapacityMean, &worker_rng);
  return in;
}

struct ArrivalShape {
  double mean = 0.0;
  double max = 0.0;
};

ArrivalShape WindowArrivals(const std::vector<Request>& requests,
                            double duration_min) {
  const double window_min = kWindowS / 60.0;
  const auto bins =
      static_cast<std::size_t>(std::ceil(duration_min / window_min));
  std::vector<int> count(bins, 0);
  for (const Request& r : requests) {
    const auto b = static_cast<std::size_t>(
        std::max(0.0, std::floor(r.release_time / window_min)));
    ++count[std::min(b, bins - 1)];
  }
  ArrivalShape s;
  s.mean = static_cast<double>(requests.size()) / static_cast<double>(bins);
  s.max = *std::max_element(count.begin(), count.end());
  return s;
}

SimOptions SequentialOptions() { return SimOptions{}; }

SimOptions WindowOptions() {
  SimOptions o;
  o.batch_window_s = kWindowS;
  o.pipeline = true;
  o.num_threads = kWindowThreads;
  return o;
}

double CpuSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

/// Starts a new peak-RSS interval: returns freed heap pages to the system,
/// then resets the kernel's high-water mark (VmHWM) to the current RSS.
/// Where the reset is not permitted, VmHWM stays the process peak.
void ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak RSS (MB) since the last ResetPeakRss.
double PeakRssMb() {
  double kb = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf", &kb) == 1) break;
    }
    std::fclose(f);
  }
  if (kb <= 0.0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kb = static_cast<double>(ru.ru_maxrss);
  }
  return kb / 1024.0;
}

/// One gated Simulation::Run.
struct RunResult {
  SimReport report;
  std::vector<bool> served;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // user + sys of the whole process during Run()
  double sys_s = 0.0;
  std::string gate_error;  // empty when every gate passed

  double throughput() const { return Ratio(report.total_requests, wall_s); }
};

RunResult RunOnce(const Inputs& in, DistanceOracle* oracle,
                  const PlannerFactory& factory, const SimOptions& options) {
  RunResult res;
  Simulation sim(&in.graph, oracle, in.workers, &in.requests, options);
  rusage ru0{}, ru1{};
  getrusage(RUSAGE_SELF, &ru0);
  const auto t0 = std::chrono::steady_clock::now();
  res.report = sim.Run(factory);
  res.wall_s = SecondsSince(t0);
  getrusage(RUSAGE_SELF, &ru1);
  res.sys_s = CpuSeconds(ru1.ru_stime) - CpuSeconds(ru0.ru_stime);
  res.cpu_s = CpuSeconds(ru1.ru_utime) - CpuSeconds(ru0.ru_utime) + res.sys_s;
  res.served = sim.served();
  const InvariantReport acc = CheckAccounting(res.report);
  const InvariantReport inv = VerifyInvariants(sim.fleet(), in.requests);
  if (!acc.ok) {
    res.gate_error = "accounting: " + acc.violation;
  } else if (!inv.ok) {
    res.gate_error = "invariants: " + inv.violation;
  }
  return res;
}

/// Bit-identity of the outputs the gates compare across runs.
bool SameOutputs(const RunResult& a, const RunResult& b) {
  return a.report.unified_cost == b.report.unified_cost &&
         a.report.served_requests == b.report.served_requests &&
         a.report.distance_queries == b.report.distance_queries &&
         a.served == b.served;
}

/// Named metric values in output order; one vector entry per round.
class MetricTable {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    auto it = std::find_if(rows_.begin(), rows_.end(),
                           [&](const Row& r) { return r.name == name; });
    if (it == rows_.end()) {
      rows_.push_back({name, unit, {}});
      it = rows_.end() - 1;
    }
    it->values.push_back(value);
  }

  /// Prints the result line: each metric's median over the rounds.
  void Print(bool correct, std::int64_t attempted, std::int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      double v = Median(rows_[i].values);
      if (!std::isfinite(v)) {
        std::fprintf(stderr, "perfbench: %s is not finite; reported as 0\n",
                     rows_[i].name.c_str());
        v = 0.0;
      }
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", rows_[i].name.c_str(), v,
                  rows_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Row {
    std::string name;
    const char* unit;
    std::vector<double> values;
  };
  std::vector<Row> rows_;
};

/// Gate bookkeeping shared by both modes.
struct Gates {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::optional<RunResult> reference;  // first run of the workload's mode

  /// Counts `r` and fails it on a gate error or, when `repeat` is set, on
  /// any output difference from the workload's first run. Dnf and shed
  /// requests count as failed; a failed gate fails every request.
  void Check(const RunResult& r, bool repeat, const char* what) {
    std::string error = r.gate_error;
    if (error.empty() && repeat) {
      if (!reference.has_value()) {
        reference = r;
      } else if (!SameOutputs(*reference, r)) {
        error = "outputs differ from the first run";
      }
    }
    attempted += r.report.total_requests;
    failed += error.empty() ? r.report.dnf_requests + r.report.shed_requests
                            : r.report.total_requests;
    if (!error.empty()) {
      correct = false;
      std::fprintf(stderr, "perfbench: %s run failed a gate: %s\n", what,
                   error.c_str());
    }
  }
};

void PrintRunLine(const Workload& w, const char* what, const RunResult& r) {
  std::printf("{\"workload\": \"%s\", \"run\": \"%s\", \"wall_s\": %.6f, "
              "\"unified_cost\": %.6f, \"served\": %d, "
              "\"distance_queries\": %lld}\n",
              w.name, what, r.wall_s, r.report.unified_cost,
              r.report.served_requests,
              static_cast<long long>(r.report.distance_queries));
}

/// --trace 0: repeated untraced runs of the workload's own mode.
void MeasureEndToEnd(const Workload& w, const Inputs& in, double seconds,
                     double setup_s, MetricTable* table, Gates* gates) {
  const PlannerFactory factory = w.windowed
                                     ? MakeDispatchWindowFactory({})
                                     : MakePruneGreedyDpFactory({});
  const SimOptions options = w.windowed ? WindowOptions() : SequentialOptions();
  table->Add("setup_s", setup_s, "s");
  int replays = 0;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    ResetPeakRss();
    const RunResult r = RunOnce(in, in.labels.get(), factory, options);
    const double peak_rss_mb = PeakRssMb();
    ++replays;
    gates->Check(r, /*repeat=*/true, "untraced");
    PrintRunLine(w, "untraced", r);
    table->Add("throughput_rps", r.throughput(), "1/s");
    table->Add("response_p50_ms", r.report.p50_response_ms, "ms");
    table->Add("response_p95_ms", r.report.p95_response_ms, "ms");
    table->Add("unified_cost", r.report.unified_cost, "cost");
    table->Add("served_rate", r.report.served_rate, "ratio");
    table->Add("peak_rss_mb", peak_rss_mb, "MB");
  } while (SecondsSince(t0) < seconds || replays < 2);
}

/// A traced run of the composed sequential planner, checked against the
/// untraced real planner's run `ref` on the same inputs.
struct SequentialTrace {
  TimedOracle labels;
  SequentialLayers layers;
  RunResult run;
  bool identical = false;

  SequentialTrace(const Inputs& in, const RunResult& ref)
      : labels(in.labels.get()) {
    SimOptions options = SequentialOptions();
    options.collect_metrics = true;
    run = RunOnce(in, &labels,
                  MakeTracedGreedyDpFactory({}, &labels, &layers), options);
    identical = SameOutputs(ref, run);
    if (!identical) {
      std::fprintf(stderr,
                   "perfbench: the composed planner's outputs differ from "
                   "pruneGreedyDP's; its per-layer numbers are void\n");
    }
  }
};

/// Per-layer metrics of one traced run. `traced` is the run under
/// `labels`; `untraced` the same mode's untraced run; `seq` the composed
/// sequential replay (of the same run on a sequential workload, of the
/// sequential bar on a windowed one); `wl`/`seq_bar` are set on windowed
/// workloads only.
void AddLayers(const RunResult& traced, const TimedOracle& labels,
               const RunResult& untraced, const SequentialTrace& seq,
               const WindowLayers* wl, const RunResult* seq_bar,
               MetricTable* table) {
  table->Add("shortest.label_queries",
             static_cast<double>(labels.query_count()), "count");
  table->Add("shortest.label_busy_s", labels.busy_ns() * 1e-9, "s");
  const auto hit = traced.report.metrics.find("oracle.cache_hit_rate");
  table->Add("shortest.cache_hit_rate",
             hit == traced.report.metrics.end() ? 0.0 : hit->second, "ratio");
  table->Add("shortest.distance_queries",
             static_cast<double>(traced.report.distance_queries), "count");

  // A composed run whose outputs differ from the real planner's does not
  // describe the program: its layer numbers are void (reported as 0,
  // with sim.trace_identity = 0).
  const SequentialLayers& lay = seq.layers;
  const double k = seq.identical ? 1.0 : 0.0;
  const double requests = static_cast<double>(lay.requests);
  table->Add("shortest.cache_path_s",
             k * (lay.gather_s - lay.gather_label_s + lay.direct_s -
                  lay.direct_label_s),
             "s");
  table->Add("index.filter_busy_s", k * lay.filter_s, "s");
  table->Add("index.candidates_per_request",
             k * Ratio(static_cast<double>(lay.candidates), requests),
             "count");
  table->Add("core.decision_busy_s", k * lay.decision_s, "s");
  table->Add("core.lb_rejects", k * static_cast<double>(lay.lb_rejects),
             "count");
  table->Add("core.scan_order_busy_s", k * lay.scan_order_s, "s");
  table->Add("core.dp_evals_per_request",
             k * Ratio(static_cast<double>(lay.dp_evals), requests), "count");
  table->Add("core.prune_ratio",
             k * Ratio(static_cast<double>(lay.dp_evals),
                       static_cast<double>(lay.scanned_bounds)),
             "ratio");
  table->Add("insertion.gather_busy_s", k * lay.gather_s, "s");
  table->Add("insertion.dp_busy_s", k * lay.dp_s, "s");
  table->Add("sim.state_busy_s", k * lay.state_s, "s");
  table->Add("sim.touch_busy_s", k * lay.touch_s, "s");
  table->Add("sim.apply_busy_s", k * lay.apply_s, "s");

  const WindowLayers no_windows;
  const WindowLayers& win = wl != nullptr ? *wl : no_windows;
  const PipelineStats& ps = traced.report.pipeline;
  table->Add("sim.plan_window_busy_s", win.plan_s, "s");
  table->Add("sim.commit_window_busy_s", win.commit_s, "s");
  table->Add("sim.windows", static_cast<double>(win.windows), "count");
  table->Add("sim.window_size_max", static_cast<double>(win.window_size_max),
             "count");
  table->Add("sim.replans",
             static_cast<double>(ps.replans_narrowed + ps.replans_full),
             "count");
  table->Add("sim.memo_hit_rate",
             Ratio(static_cast<double>(ps.memo_hits),
                   static_cast<double>(ps.memo_hits + ps.memo_misses)),
             "ratio");
  table->Add("sim.speculation_hits", static_cast<double>(ps.speculation_hits),
             "count");
  table->Add("sim.seq_speedup",
             seq_bar != nullptr
                 ? Ratio(untraced.throughput(), seq_bar->throughput())
                 : 1.0,
             "ratio");
  // Windowed: wall time outside PlanWindow/CommitWindow/OnBatch. The plan
  // and commit stages overlap, so this goes negative when the pipeline
  // overlaps more than the loop spends elsewhere.
  double unattributed = 0.0;
  if (wl != nullptr) {
    unattributed = traced.wall_s - wl->plan_s - wl->commit_s - wl->batch_s;
  } else if (seq.identical) {
    unattributed = traced.wall_s - lay.total_s();
  }
  table->Add("sim.unattributed_s", unattributed, "s");
  table->Add("sim.trace_overhead_s", traced.wall_s - untraced.wall_s, "s");
  table->Add("sim.trace_identity", seq.identical ? 1.0 : 0.0, "bool");
  table->Add("parallel.cpu_per_wall", Ratio(untraced.cpu_s, untraced.wall_s),
             "ratio");
  table->Add("parallel.sys_s", untraced.sys_s, "s");
}

/// --trace 1: rounds of {untraced run, traced run} of the workload's mode,
/// plus, on a windowed workload, the same input through sequential
/// pruneGreedyDP untraced (the bar) and traced. The index, core and
/// insertion layers are not reachable from outside the window engine, so
/// on a windowed workload they come from the traced sequential bar.
void MeasureLayers(const Workload& w, const Inputs& in, double seconds,
                   MetricTable* table, Gates* gates) {
  const PlannerFactory seq_factory = MakePruneGreedyDpFactory({});
  const PlannerFactory window_factory = MakeDispatchWindowFactory({});
  const auto t0 = std::chrono::steady_clock::now();
  do {
    const RunResult ref =
        w.windowed
            ? RunOnce(in, in.labels.get(), window_factory, WindowOptions())
            : RunOnce(in, in.labels.get(), seq_factory, SequentialOptions());
    gates->Check(ref, /*repeat=*/true, "untraced");
    PrintRunLine(w, "untraced", ref);
    if (!w.windowed) {
      const SequentialTrace seq(in, ref);
      gates->Check(seq.run, /*repeat=*/false, "traced");
      PrintRunLine(w, "traced", seq.run);
      AddLayers(seq.run, seq.labels, ref, seq, nullptr, nullptr, table);
      continue;
    }
    TimedOracle labels(in.labels.get());
    WindowLayers wl;
    SimOptions traced_options = WindowOptions();
    traced_options.collect_metrics = true;
    const RunResult traced = RunOnce(
        in, &labels, MakeTimedWindowFactory(window_factory, &wl),
        traced_options);
    gates->Check(traced, /*repeat=*/true, "traced");
    PrintRunLine(w, "traced", traced);
    const RunResult bar =
        RunOnce(in, in.labels.get(), seq_factory, SequentialOptions());
    gates->Check(bar, /*repeat=*/false, "sequential bar");
    PrintRunLine(w, "sequential_bar", bar);
    const SequentialTrace seq(in, bar);
    gates->Check(seq.run, /*repeat=*/false, "traced sequential bar");
    PrintRunLine(w, "traced_sequential_bar", seq.run);
    AddLayers(traced, labels, ref, seq, &wl, &bar, table);
  } while (SecondsSince(t0) < seconds);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <steady_seq|burst_window4|"
               "big_city_seq> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.size() != 4 || !args.count("workload") ||
      !args.count("seed") || !args.count("seconds") || !args.count("trace")) {
    return Usage();
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (args["workload"] == c.name) w = &c;
  }
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0' || args["seed"].empty()) return Usage();
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0)) return Usage();
  const std::string trace = args["trace"];
  if (w == nullptr || (trace != "0" && trace != "1")) return Usage();

  std::vector<double> setup_s, label_build_s;
  std::unique_ptr<Inputs> in;
  for (int k = 0; k < kSetups; ++k) {
    in.reset();  // one input set alive at a time
    const auto t0 = std::chrono::steady_clock::now();
    in = MakeInputs(*w, seed);
    setup_s.push_back(SecondsSince(t0));
    label_build_s.push_back(in->label_build_s);
  }

  const ArrivalShape shape = WindowArrivals(in->requests, w->duration_min);
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"vertices\": %d, "
              "\"requests\": %zu, \"workers\": %zu, "
              "\"arrivals_per_6s_window\": {\"mean\": %.3f, \"max\": %.0f}}\n",
              w->name, seed, in->graph.num_vertices(), in->requests.size(),
              in->workers.size(), shape.mean, shape.max);
  if (shape.max > kMaxWindowArrivalsOverMean * shape.mean) {
    std::fprintf(stderr,
                 "perfbench: refusing %s: its busiest 6 s window holds %.0f "
                 "arrivals, over %.0fx the mean of %.2f\n",
                 w->name, shape.max, kMaxWindowArrivalsOverMean, shape.mean);
    return 3;
  }

  MetricTable table;
  Gates gates;
  if (trace == "0") {
    MeasureEndToEnd(*w, *in, seconds, Median(setup_s), &table, &gates);
  } else {
    table.Add("shortest.label_build_s", Median(label_build_s), "s");
    table.Add("shortest.label_bytes",
              static_cast<double>(in->labels->MemoryBytes()), "bytes");
    MeasureLayers(*w, *in, seconds, &table, &gates);
    table.Add("failed_frac",
              Ratio(static_cast<double>(gates.failed),
                    static_cast<double>(gates.attempted)),
              "ratio");
    table.Add("workload.arrivals_per_window_mean", shape.mean, "count");
    table.Add("workload.arrivals_per_window_max", shape.max, "count");
  }
  std::fflush(stdout);
  table.Print(gates.correct, gates.attempted, gates.failed);
  return 0;
}

}  // namespace
}  // namespace urpsm::perfbench

int main(int argc, char** argv) { return urpsm::perfbench::Main(argc, argv); }
