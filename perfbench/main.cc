/// \file main.cc
/// SPEAr benchmark. One invocation runs one workload for a fixed
/// measuring time and prints, as its last stdout line, one JSON object
/// {"correct", "attempted", "failed", "metrics"}:
///   --trace 0  end-to-end metrics from untraced runs: a saturated replay
///              (closed loop, source at memory speed) gives throughput and
///              CPU cost; a paced replay (open loop, tuple i due at
///              t0 + i/rate) gives result latency.
///   --trace 1  per-layer metrics from probes around the program's public
///              interfaces (see probes.h); spans go to --span-file.
/// Every replay's output is checked against the offline exact reference.
/// Usage: spear_perfbench --workload NAME [--seed N] [--seconds S]
///        [--trace 0|1] [--span-file PATH] [--git-sha SHA]

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/time.h"
#include "probes.h"
#include "reference.h"
#include "runtime/executor.h"
#include "runtime/spouts.h"
#include "workloads.h"

namespace spear::perfbench {
namespace {

constexpr const char* kStatefulStage = "stateful";
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Share of the measuring time given to saturated replays (the rest is
/// paced), and the fewest replays of each kind a run makes. Saturated
/// metrics come from the half of the replays during which the host stole
/// the least CPU time: on a shared host, neighbours otherwise move every
/// timing.
constexpr double kSaturatedShare = 0.4;
constexpr int kMinSaturatedReplays = 4;
constexpr int kMinPacedReplays = 2;
/// Windows a paced replay must close, so that p90 has at least ten samples
/// beyond it.
constexpr std::size_t kMinWindows = 100;
/// A paced replay whose generator lag grew by more than this between the
/// first and last quarter of its schedule had a growing backlog: it is
/// reported as overloaded and its latencies are not used.
constexpr std::int64_t kBacklogGrowthNs = 5'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  std::string span_file;
  std::string git_sha = "unknown";
};

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fatal("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      args.seed_given = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") Fatal("--trace takes 0 or 1");
    } else if (flag == "--span-file") {
      args.span_file = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      Fatal("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') Fatal("bad value for " + flag);
  }
  if (args.workload.empty()) Fatal("--workload is required");
  if (!(args.seconds > 0)) Fatal("--seconds must be > 0");
  return args;
}

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (0 for an empty sample).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Process CPU time so far: {user, system} nanoseconds.
std::pair<std::int64_t, std::int64_t> CpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return {ns(usage.ru_utime), ns(usage.ru_stime)};
}

/// Aggregate "cpu" line of /proc/stat: {steal, total} jiffies.
std::pair<std::uint64_t, std::uint64_t> StealAndTotal() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return {0, 0};
  std::uint64_t fields[8] = {};
  for (std::uint64_t& f : fields) in >> f;
  std::uint64_t total = 0;
  for (const std::uint64_t f : fields) total += f;
  return {fields[7], total};
}

double StealShare(std::pair<std::uint64_t, std::uint64_t> from,
                  std::pair<std::uint64_t, std::uint64_t> to) {
  return to.second > from.second
             ? static_cast<double>(to.first - from.first) /
                   static_cast<double>(to.second - from.second)
             : 0.0;
}

// ---- one replay -------------------------------------------------------------

/// The generated input, its offline reference, and the spout replaying it.
struct Bench {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::shared_ptr<VectorSpout> spout;
  std::size_t tuples = 0;
  Reference reference;
};

enum class Pace { kSaturated, kPaced };

struct Replay {
  bool traced = false;
  std::int64_t start_ns = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t sys_ns = 0;
  /// Share of the host's CPU time stolen by the hypervisor meanwhile.
  double steal_share = 0.0;
  double mem_bytes_per_worker = 0.0;
  std::int64_t backpressure_ns = 0;
  std::int64_t stateful_busy_ns = 0;
  std::vector<std::uint64_t> tuples_in;
  DecisionStats decisions;
  CheckResult check;
  std::shared_ptr<SourceProbe> source;
  std::unique_ptr<WorkerRecords> workers;
};

Replay RunReplay(Bench& bench, Pace pace, bool traced) {
  const Workload& w = *bench.workload;
  Replay r;
  r.traced = traced;
  bench.spout->Rewind();
  std::shared_ptr<Spout> spout = bench.spout;
  if (pace == Pace::kPaced || traced) {
    r.source = std::make_shared<SourceProbe>(
        bench.spout, pace == Pace::kPaced ? w.paced_rate_tps : 0.0, traced);
    spout = r.source;
  }
  SecondaryStorage storage;
  DecisionStatsCollector decisions;
  Result<Topology> topology = BuildTopology(w, spout, &storage, &decisions);
  if (!topology.ok()) Fatal("build: " + topology.status().ToString());
  if (pace == Pace::kPaced || traced) {
    r.workers = std::make_unique<WorkerRecords>();
    BoltProbeOptions options;
    options.trace = traced;
    options.grouped = w.grouped;
    options.incremental_path = w.incremental_path;
    options.storage = w.spill_capacity > 0 ? &storage : nullptr;
    InstallBoltProbe(&*topology, kStatefulStage, options, r.workers.get());
  }

  const auto steal_start = StealAndTotal();
  const auto cpu_start = CpuNs();
  r.start_ns = NowNs();
  Result<RunReport> report = Executor(std::move(*topology)).Run();
  r.wall_ns = NowNs() - r.start_ns;
  const auto cpu_end = CpuNs();
  r.sys_ns = cpu_end.second - cpu_start.second;
  r.cpu_ns = cpu_end.first - cpu_start.first + r.sys_ns;
  r.steal_share = StealShare(steal_start, StealAndTotal());
  if (!report.ok()) Fatal("run: " + report.status().ToString());

  r.check = CheckOutput(w, bench.reference, report->output);
  r.decisions = decisions.Total();
  r.mem_bytes_per_worker =
      report->metrics.StageMeanMemoryPerWorker(kStatefulStage);
  r.backpressure_ns = report->overload.backpressure_wait_ns;
  for (const WorkerMetrics* m : report->metrics.ForStage(kStatefulStage)) {
    r.stateful_busy_ns += m->busy_ns();
    r.tuples_in.push_back(m->tuples_in());
  }
  return r;
}

/// \brief Latency view of one paced replay.
struct PacedResult {
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> watermark_delay_ms;
  bool overloaded = false;
};

PacedResult AnalyzePaced(const Bench& bench, const Replay& r) {
  const Reference& ref = bench.reference;
  const SourceProbe& source = *r.source;
  PacedResult out;

  // Per window: the last result emission across workers.
  std::vector<std::int64_t> emitted(ref.windows.size(), 0);
  for (const auto& worker : r.workers->all()) {
    for (const auto& [end, at] : worker->result_emits) {
      const std::int64_t idx = ref.IndexOfEnd(end);
      if (idx >= 0) {
        auto& e = emitted[static_cast<std::size_t>(idx)];
        e = std::max(e, at);
      }
    }
  }
  for (std::size_t k = 0; k < ref.windows.size(); ++k) {
    if (emitted[k] == 0) continue;  // missing: counted by the check
    out.latency_ms.push_back(
        static_cast<double>(emitted[k] -
                            source.DueNs(ref.windows[k].last_index)) /
        1e6);
  }

  // Watermark delay: due time of the first tuple at or past a window's end
  // to the (latest worker's) OnWatermark call that closes it.
  if (r.traced) {
    for (const WindowTruth& win : ref.windows) {
      if (win.next_index >= bench.tuples) continue;  // closed by end of stream
      std::int64_t closed = 0;
      for (const auto& worker : r.workers->all()) {
        for (const auto& call : worker->watermarks) {
          if (call.watermark >= win.end) {
            closed = std::max(closed, call.start_ns);
            break;
          }
        }
      }
      if (closed != 0) {
        out.watermark_delay_ms.push_back(
            static_cast<double>(closed - source.DueNs(win.next_index)) / 1e6);
      }
    }
  }

  // Generator lag, and whether the backlog grew over the schedule.
  const auto& lag = source.record().lag_ns;
  std::vector<double> first_quarter;
  std::vector<double> last_quarter;
  for (const auto& [index, ns] : lag) {
    out.lag_ms.push_back(static_cast<double>(ns) / 1e6);
    if (index < bench.tuples / 4) {
      first_quarter.push_back(static_cast<double>(ns));
    } else if (index >= bench.tuples - bench.tuples / 4) {
      last_quarter.push_back(static_cast<double>(ns));
    }
  }
  out.overloaded = Median(last_quarter) - Median(first_quarter) >
                   static_cast<double>(kBacklogGrowthNs);
  return out;
}

// ---- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(bool correct, const CheckResult& check,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-42s %16s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(check.expected_windows);
  json += ", \"failed\": " +
          std::to_string(check.failed_windows + check.unexpected_results);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- the run --------------------------------------------------------------

class Run {
 public:
  explicit Run(const Args& args) : args_(args) {
    bench_.workload = FindWorkload(args.workload);
    if (bench_.workload == nullptr) Fatal("unknown workload " + args.workload);
    bench_.seed =
        args.seed_given ? args.seed : bench_.workload->default_seed;
  }

  int Main() {
    const auto steal_start = StealAndTotal();
    Setup();
    const std::int64_t measure_start = NowNs();
    std::vector<Metric> metrics =
        args_.trace ? TracedRun() : UntracedRun();
    const double measured_s =
        static_cast<double>(NowNs() - measure_start) / 1e9;
    const double steal = StealShare(steal_start, StealAndTotal());

    const Workload& w = *bench_.workload;
    std::printf(
        "{\"meta\": {\"workload\": %s, \"seed\": %" PRIu64
        ", \"trace\": %d, \"nproc\": %u, \"compiler\": %s, "
        "\"build_type\": %s, \"git_sha\": %s, \"run_seconds\": %s, "
        "\"measured_s\": %s, \"steal_share\": %s, \"tuples\": %zu, "
        "\"windows\": %zu, \"saturated_replays\": %d, \"paced_replays\": %d, "
        "\"paced_overloaded\": %d, \"paced_rate_tps\": %s, "
        "\"cpu_ns_per_tuple\": %s, "
        "\"expedited_ratio\": %s, \"accuracy_violation_ratio\": %s, "
        "\"accuracy_violation_limit\": %s, \"failed_window_ratio\": %s}}\n",
        Quote(w.name).c_str(), bench_.seed, args_.trace ? 1 : 0,
        std::thread::hardware_concurrency(),
        Quote(SPEAR_BENCH_COMPILER).c_str(),
        Quote(SPEAR_BENCH_BUILD_TYPE).c_str(), Quote(args_.git_sha).c_str(),
        Num(args_.seconds).c_str(), Num(measured_s).c_str(),
        Num(steal).c_str(), bench_.tuples, bench_.reference.windows.size(),
        saturated_replays_, paced_replays_, paced_overloaded_,
        Num(w.paced_rate_tps).c_str(), Num(cpu_ns_per_tuple_).c_str(),
        Num(expedited_ratio_).c_str(),
        Num(worst_.ViolationRatio()).c_str(),
        Num(worst_.ViolationLimit(w.confidence)).c_str(),
        Num(check_.FailedWindowRatio()).c_str());
    if (!check_.first_problem.empty()) {
      std::fprintf(stderr, "perfbench: check failed: %s\n",
                   check_.first_problem.c_str());
    }
    if (worst_.ViolationRatio() > worst_.ViolationLimit(w.confidence)) {
      std::fprintf(stderr,
                   "perfbench: accuracy violations %" PRIu64 " of %" PRIu64
                   " expedited results exceed the (eps, alpha) limit\n",
                   worst_.violations, worst_.expedited_results);
    }
    PrintResult(correct_, check_, metrics);
    return correct_ ? 0 : 1;
  }

 private:
  /// Generates the stream and compiles the topology kSetups times (the
  /// last stream is kept), then computes the offline reference.
  void Setup() {
    const Workload& w = *bench_.workload;
    std::vector<Tuple> input;
    for (int i = 0; i < kSetups; ++i) {
      input.clear();
      input.shrink_to_fit();
      const std::int64_t start = NowNs();
      input = GenerateStream(w, bench_.seed);
      auto spout = std::make_shared<VectorSpout>(std::vector<Tuple>{});
      SecondaryStorage storage;
      DecisionStatsCollector decisions;
      Result<Topology> topology =
          BuildTopology(w, spout, &storage, &decisions);
      if (!topology.ok()) Fatal("build: " + topology.status().ToString());
      setup_s_.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
    Result<Reference> reference = ComputeReference(w, input);
    if (!reference.ok()) Fatal("reference: " + reference.status().ToString());
    if (reference->windows.size() < kMinWindows) {
      Fatal("the stream has fewer than " + std::to_string(kMinWindows) +
            " windows");
    }
    bench_.reference = std::move(*reference);
    bench_.tuples = input.size();
    bench_.spout = std::make_shared<VectorSpout>(std::move(input));
    std::printf("# %s seed=%" PRIu64 " tuples=%zu windows=%zu\n",
                w.name.c_str(), bench_.seed, bench_.tuples,
                bench_.reference.windows.size());
  }

  double Elapsed(std::int64_t since) const {
    return static_cast<double>(NowNs() - since) / 1e9;
  }

  Replay Do(Pace pace, bool traced) {
    const Workload& w = *bench_.workload;
    Replay r = RunReplay(bench_, pace, traced);
    check_.Accumulate(r.check);
    if (!r.check.Correct(w.confidence)) correct_ = false;
    if (r.check.ViolationRatio() >= worst_.ViolationRatio()) worst_ = r.check;
    std::printf("# replay %s%s wall_ms=%.3f cpu_ms=%.3f sys_ms=%.3f "
                "steal=%.4f "
                "backpressure_ms=%.3f windows=%zu failed=%" PRIu64
                " expedited_results=%" PRIu64 " violations=%" PRIu64 "\n",
                pace == Pace::kPaced ? "paced" : "saturated",
                traced ? "+traced" : "", static_cast<double>(r.wall_ns) / 1e6,
                static_cast<double>(r.cpu_ns) / 1e6,
                static_cast<double>(r.sys_ns) / 1e6, r.steal_share,
                static_cast<double>(r.backpressure_ns) / 1e6,
                bench_.reference.windows.size(), r.check.failed_windows,
                r.check.expedited_results, r.check.violations);
    if (pace == Pace::kSaturated) {
      ++saturated_replays_;
      if (r.decisions.windows_total > 0) {
        expedited_ratio_ = static_cast<double>(r.decisions.windows_expedited) /
                           static_cast<double>(r.decisions.windows_total);
      }
    } else {
      ++paced_replays_;
    }
    return r;
  }

  /// Paced replays until the measuring time is spent and at least
  /// kMinPacedReplays were not overloaded. Returns the per-window latencies
  /// of every replay that was not overloaded, pooled: the tail needs the
  /// samples more than it needs the least-stolen replays.
  std::vector<double> PacedPhase(std::int64_t since, bool traced,
                                 PacedResult* pooled) {
    std::vector<double> latency;
    int usable = 0;
    do {
      Replay r = Do(Pace::kPaced, traced);
      PacedResult p = AnalyzePaced(bench_, r);
      pooled->lag_ms.insert(pooled->lag_ms.end(), p.lag_ms.begin(),
                            p.lag_ms.end());
      pooled->watermark_delay_ms.insert(pooled->watermark_delay_ms.end(),
                                        p.watermark_delay_ms.begin(),
                                        p.watermark_delay_ms.end());
      if (p.overloaded) {
        ++paced_overloaded_;
        std::fprintf(stderr, "perfbench: paced replay overloaded (backlog "
                             "grew); its latencies are not used\n");
      } else {
        ++usable;
        latency.insert(latency.end(), p.latency_ms.begin(),
                       p.latency_ms.end());
      }
      if (traced) last_paced_ = std::move(r);
      // Give up on a host too slow for the offered rate rather than run on.
      if (paced_overloaded_ >= 3) break;
    } while (Elapsed(since) < args_.seconds || usable < kMinPacedReplays);
    if (latency.empty()) Fatal("every paced replay was overloaded");
    return latency;
  }

  std::vector<Metric> UntracedRun() {
    Do(Pace::kSaturated, false);  // warm-up: allocator and caches
    const std::int64_t start = NowNs();
    std::vector<Replay> replays;
    do {
      replays.push_back(Do(Pace::kSaturated, false));
    } while (Elapsed(start) < kSaturatedShare * args_.seconds ||
             static_cast<int>(replays.size()) < kMinSaturatedReplays);
    // The half of the replays the host disturbed least (stable order, so
    // ties keep replay order).
    std::stable_sort(replays.begin(), replays.end(),
                     [](const Replay& a, const Replay& b) {
                       return a.steal_share < b.steal_share;
                     });
    replays.resize((replays.size() + 1) / 2);
    std::vector<double> tps;
    std::vector<double> mem;
    for (const Replay& r : replays) {
      tps.push_back(static_cast<double>(bench_.tuples) /
                    (static_cast<double>(r.wall_ns) / 1e9));
      mem.push_back(r.mem_bytes_per_worker);
    }
    cpu_ns_per_tuple_ = CpuPerTuple(replays);

    PacedResult pooled;
    const std::vector<double> latency = PacedPhase(start, false, &pooled);
    return {
        {"throughput_tps", Median(tps), "tuples/s"},
        {"latency_p50_ms", Quantile(latency, 0.5), "ms"},
        {"latency_p90_ms", Quantile(latency, 0.9), "ms"},
        {"mem_bytes_per_worker", Median(mem), "bytes"},
        {"setup_s", Median(setup_s_), "s"},
    };
  }

  std::vector<Metric> TracedRun() {
    Do(Pace::kSaturated, false);  // warm-up
    const std::int64_t start = NowNs();
    std::vector<double> plain_wall;
    std::vector<double> traced_wall;
    std::vector<Replay> plain;
    std::vector<Replay> traced;
    do {
      plain.push_back(Do(Pace::kSaturated, false));
      plain_wall.push_back(static_cast<double>(plain.back().wall_ns));
      traced.push_back(Do(Pace::kSaturated, true));
      traced_wall.push_back(static_cast<double>(traced.back().wall_ns));
    } while (Elapsed(start) < 0.5 * args_.seconds || traced.size() < 2);
    PacedResult pooled;
    PacedPhase(start, true, &pooled);
    cpu_ns_per_tuple_ = CpuPerTuple(plain);

    const LayerTotals t = SumLayers(traced);
    const Replay& last = traced.back();
    const double replays = static_cast<double>(traced.size());
    double max_in = 0, sum_in = 0;
    for (const std::uint64_t n : last.tuples_in) {
      max_in = std::max(max_in, static_cast<double>(n));
      sum_in += static_cast<double>(n);
    }
    const double mean_in =
        sum_in / static_cast<double>(std::max<std::size_t>(
                     last.tuples_in.size(), 1));
    const double skew = mean_in > 0 ? max_in / mean_in : 0.0;
    const double coverage = t.busy > 0 ? t.callbacks / t.busy : 0.0;
    const double overhead = Median(traced_wall) / Median(plain_wall);
    const auto per = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };

    std::vector<Metric> metrics = {
        {"process.cpu_ns_per_tuple", cpu_ns_per_tuple_, "ns"},
        {"source.pull_ns_per_tuple", per(t.pull, t.tuples), "ns"},
        {"source.push_ns_per_tuple", per(t.push, t.tuples), "ns"},
        {"source.backpressure_ms", Median(t.backpressure_ms), "ms"},
        {"source.lag_p99_ms", Quantile(pooled.lag_ms, 0.99), "ms"},
        {"source.watermark_delay_ms_p50",
         Quantile(pooled.watermark_delay_ms, 0.5), "ms"},
        {"channel.worker_outside_bolt_ns_per_tuple", per(t.outside, t.tuples),
         "ns"},
        {"channel.partition_skew", skew, "ratio"},
        {"core.ingest_ns_per_tuple", per(t.execute, t.tuples), "ns"},
        {"core.expedited_window_us_p50", Quantile(t.expedited_us, 0.5), "us"},
        {"core.expedited_window_us_p99", Quantile(t.expedited_us, 0.99),
         "us"},
        {"core.exact_window_us_p50", Quantile(t.exact_us, 0.5), "us"},
        {"core.exact_window_us_p99", Quantile(t.exact_us, 0.99), "us"},
        {"core.windows_expedited",
         static_cast<double>(last.decisions.windows_expedited), "count"},
        {"core.windows_exact",
         static_cast<double>(last.decisions.windows_exact), "count"},
        {"core.windows_degraded",
         static_cast<double>(last.decisions.windows_degraded), "count"},
        {"core.expedited_ratio", expedited_ratio_, "ratio"},
        {"storage.spilled_tuples_peak", t.spilled_peak, "count"},
        {"storage.spill_ratio", per(t.spilled_at_close, t.tuples), "ratio"},
        {"emit.ns_per_result", per(t.emit, t.emits), "ns"},
        {"emit.results", t.emits / replays, "count"},
        {"checkpoint.snapshot_us_p50", Quantile(t.snapshot_us, 0.5), "us"},
        {"checkpoint.snapshot_bytes_p50", Quantile(t.snapshot_bytes, 0.5),
         "bytes"},
        {"checkpoint.snapshots",
         static_cast<double>(t.snapshot_us.size()) / replays, "count"},
        {"accuracy.violation_ratio", worst_.ViolationRatio(), "ratio"},
        {"accuracy.failed_window_ratio", check_.FailedWindowRatio(), "ratio"},
        {"trace.busy_coverage", coverage, "ratio"},
        {"trace.overhead_ratio", overhead, "ratio"},
    };
    PrintSelfTime(t, replays, coverage, overhead);
    if (!args_.span_file.empty()) WriteSpans(last, metrics);
    return metrics;
  }

  /// Median process CPU (user + system) per input tuple over `replays`.
  double CpuPerTuple(const std::vector<Replay>& replays) const {
    std::vector<double> cpu;
    for (const Replay& r : replays) {
      cpu.push_back(static_cast<double>(r.cpu_ns) /
                    static_cast<double>(bench_.tuples));
    }
    return Median(cpu);
  }

  /// \brief Layer totals over the traced saturated replays (ns unless
  /// named otherwise).
  struct LayerTotals {
    double tuples = 0, wall = 0, busy = 0;
    double pull = 0, push = 0, backpressure = 0;
    /// Self times: Execute, OnWatermark + Finish, SnapshotState, Emit.
    double execute = 0, watermark = 0, snapshot = 0, emit = 0;
    double callbacks = 0, outside = 0, emits = 0;
    double spilled_at_close = 0, spilled_peak = 0;
    std::vector<double> backpressure_ms, expedited_us, exact_us;
    std::vector<double> snapshot_us, snapshot_bytes;
  };

  static LayerTotals SumLayers(const std::vector<Replay>& traced) {
    LayerTotals t;
    for (const Replay& r : traced) {
      const SourceRecord& src = r.source->record();
      t.tuples += static_cast<double>(src.tuples);
      t.wall += static_cast<double>(r.wall_ns);
      t.busy += static_cast<double>(r.stateful_busy_ns);
      t.pull += static_cast<double>(src.pull_ns);
      t.push += static_cast<double>(src.between_ns - r.backpressure_ns);
      t.backpressure += static_cast<double>(r.backpressure_ns);
      t.backpressure_ms.push_back(static_cast<double>(r.backpressure_ns) /
                                  1e6);
      for (const auto& wr : r.workers->all()) {
        const double cb = wr->CallbackNs();
        t.callbacks += cb;
        t.outside += static_cast<double>(wr->end_ns - wr->prepare_ns) - cb;
        t.execute += wr->ExecuteSelfNs();
        // Emit time not spent inside Execute was spent inside these.
        t.watermark += static_cast<double>(wr->watermark_ns + wr->finish_ns) +
                       (wr->ExecuteNs() - wr->ExecuteSelfNs()) -
                       static_cast<double>(wr->emit_ns);
        t.snapshot += static_cast<double>(wr->snapshot_ns);
        t.emit += static_cast<double>(wr->emit_ns);
        t.emits += static_cast<double>(wr->emits);
        t.spilled_at_close += static_cast<double>(wr->spilled_at_close);
        t.spilled_peak =
            std::max(t.spilled_peak, static_cast<double>(wr->spilled_peak));
        for (const auto& call : wr->watermarks) {
          const double us =
              static_cast<double>(call.end_ns - call.start_ns) / 1e3;
          if (call.degraded > 0) continue;
          if (call.exact > 0) {
            t.exact_us.push_back(us);
          } else if (call.expedited > 0) {
            t.expedited_us.push_back(us);
          }
        }
        for (const std::int64_t ns : wr->snapshot_call_ns) {
          t.snapshot_us.push_back(static_cast<double>(ns) / 1e3);
        }
        for (const std::size_t b : wr->snapshot_bytes) {
          t.snapshot_bytes.push_back(static_cast<double>(b));
        }
      }
    }
    return t;
  }

  /// Per-layer self time, ms per traced saturated replay.
  static void PrintSelfTime(const LayerTotals& t, double replays,
                            double coverage, double overhead) {
    const double n = replays * 1e6;
    std::printf("# self time per traced saturated replay (ms), wall %.3f\n",
                t.wall / n);
    std::printf("#   source.next_batch            %10.3f\n", t.pull / n);
    std::printf("#   source.push                  %10.3f\n", t.push / n);
    std::printf("#   source.backpressure_wait     %10.3f\n",
                t.backpressure / n);
    std::printf("#   stateful.execute             %10.3f\n", t.execute / n);
    std::printf("#   stateful.on_watermark+finish %10.3f\n", t.watermark / n);
    std::printf("#   stateful.emit                %10.3f\n", t.emit / n);
    std::printf("#   stateful.snapshot_state      %10.3f\n", t.snapshot / n);
    std::printf("#   stateful.outside_callbacks   %10.3f\n", t.outside / n);
    std::printf("#   stateful.busy (program)      %10.3f\n", t.busy / n);
    std::printf("#   trace.busy_coverage %.4f  trace.overhead_ratio %.4f\n",
                coverage, overhead);
  }

  /// Spans of the last traced saturated and paced replays, one JSON object
  /// per line (times relative to the replay's start), then one summary
  /// line with the run's per-layer metrics.
  void WriteSpans(const Replay& saturated,
                  const std::vector<Metric>& metrics) const {
    std::ofstream out(args_.span_file, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args_.span_file.c_str());
      return;
    }
    const auto write = [&out](const char* replay, const Replay& r) {
      const auto line = [&](const Span& s) {
        out << "{\"replay\": \"" << replay << "\", \"name\": \"" << s.name
            << "\", \"start_ns\": " << (s.start_ns - r.start_ns)
            << ", \"end_ns\": " << (s.end_ns - r.start_ns)
            << ", \"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"worker\": " << s.worker << "}\n";
      };
      for (const Span& s : r.source->record().spans) line(s);
      for (const auto& wr : r.workers->all()) {
        for (const Span& s : wr->spans) line(s);
      }
    };
    write("saturated", saturated);
    if (last_paced_.source != nullptr) write("paced", last_paced_);
    out << "{\"summary\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out << (i > 0 ? ", " : "") << Quote(metrics[i].name) << ": "
          << Num(metrics[i].value);
    }
    out << "}}\n";
  }

  const Args args_;
  Bench bench_;
  std::vector<double> setup_s_;
  /// Counts over every replay of the run.
  CheckResult check_;
  /// The replay with the highest accuracy-violation ratio.
  CheckResult worst_;
  bool correct_ = true;
  /// Process CPU per tuple over saturated replays (median): printed, not
  /// bounded; it moves with how the scheduler places the source and worker
  /// threads (one vCPU or two).
  double cpu_ns_per_tuple_ = 0.0;
  double expedited_ratio_ = 0.0;
  int saturated_replays_ = 0;
  int paced_replays_ = 0;
  int paced_overloaded_ = 0;
  Replay last_paced_;
};

}  // namespace
}  // namespace spear::perfbench

int main(int argc, char** argv) {
  const spear::perfbench::Args args = spear::perfbench::ParseArgs(argc, argv);
  spear::perfbench::Run run(args);
  return run.Main();
}
