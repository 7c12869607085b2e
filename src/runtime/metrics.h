#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"

/// \file metrics.h
/// Runtime telemetry, modeled on Storm's metrics API (which the paper uses
/// to measure per-window processing time). Each worker thread owns a
/// WorkerMetrics, the one place its runtime facts are counted; the
/// registry sums them after execution, and an exported scrape reads the
/// same counters during it.

namespace spear {

/// \brief Percentile/mean summary of a sample of int64 measurements.
struct MetricSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  std::int64_t min = 0;
  std::int64_t p50 = 0;
  std::int64_t p95 = 0;
  std::int64_t p99 = 0;
  std::int64_t max = 0;

  static MetricSummary FromSamples(std::vector<std::int64_t> samples);
};

/// \brief Fault-handling counters of one run (or one worker), aggregated
/// into RunReport::faults by the executor.
struct FaultStats {
  /// Faults fired by the run's FaultInjector (0 without one).
  std::uint64_t injected = 0;
  /// Retry attempts performed (storage-level + tuple-level).
  std::uint64_t retries = 0;
  /// Operations that succeeded on a retry after a transient failure.
  std::uint64_t recovered = 0;
  /// Tuples quarantined to the dead-letter channel.
  std::uint64_t quarantined = 0;
  /// Windows emitted with degraded accuracy (SpearBolt's AF-Stream trade).
  std::uint64_t degraded_windows = 0;
  /// Workers restarted from a checkpoint after a crash (supervisor loop).
  std::uint64_t worker_restarts = 0;
  /// Checkpoint snapshots taken at watermark boundaries.
  std::uint64_t snapshots = 0;
  /// Spill attempts that exhausted their storage retries (the window is
  /// later emitted degraded or exact-from-partial-state).
  std::uint64_t spill_failures = 0;

  void Accumulate(const FaultStats& other) {
    injected += other.injected;
    retries += other.retries;
    recovered += other.recovered;
    quarantined += other.quarantined;
    degraded_windows += other.degraded_windows;
    worker_restarts += other.worker_restarts;
    snapshots += other.snapshots;
    spill_failures += other.spill_failures;
  }
};

/// \brief Overload-control counters of one run (or one worker),
/// aggregated into RunReport::overload by the executor.
struct OverloadStats {
  /// Tuples dropped at stage admission by accuracy-aware load shedding.
  std::uint64_t tuples_shed = 0;
  /// Windows emitted whose ε̂_w includes shed-loss inflation.
  std::uint64_t windows_shed_loss = 0;
  /// Exact fallbacks aborted at their deadline (window emitted degraded).
  std::uint64_t deadline_aborts = 0;
  /// Watermark-watchdog interventions (stalled source closed/advanced).
  std::uint64_t watchdog_advances = 0;
  /// Time producers spent blocked on full inter-stage queues.
  std::int64_t backpressure_wait_ns = 0;

  void Accumulate(const OverloadStats& other) {
    tuples_shed += other.tuples_shed;
    windows_shed_loss += other.windows_shed_loss;
    deadline_aborts += other.deadline_aborts;
    watchdog_advances += other.watchdog_advances;
    backpressure_wait_ns += other.backpressure_wait_ns;
  }
};

/// \brief One worker's counters, gauges and samples.
///
/// Counters and gauges are relaxed-atomic instruments of the worker's
/// obs::MetricsShard, resolved once at construction: the RunReport totals
/// and an exported scrape read the same memory. Each instrument has one
/// writer, the worker's thread, so an add is a relaxed load and store,
/// never an atomic read-modify-write; any thread may read. The window-time
/// and memory samples are plain vectors, read after the worker joined.
class WorkerMetrics {
 public:
  /// Every counted fact of a worker, one counter each (exported names in
  /// metrics.cc).
  enum Count : std::uint8_t {
    kTuplesIn, kBatchesPopped, kTuplesOut, kBusyNs, kBackpressureNs,
    kRetries, kRecovered, kQuarantined, kRestores, kSnapshots,
    kSnapshotBytes, kSpillTuples, kSpillFailures,
    // SPEAr's per-window facts, published from its snapshotted
    // DecisionStats (see Publish).
    kWindowsExpedited, kWindowsExact, kWindowsDegraded, kWindowsRecovered,
    kWindowsShedLoss, kDeadlineAborts, kTuplesSeen, kLateTuples,
    kTuplesShed, kNumCounts
  };
  /// Point-in-time levels, exported as gauges.
  enum Level : std::uint8_t {
    kQueueDepth, kQueueCapacity, kShedProbability, kWatermarkMs,
    kBufferedTuples, kBudgetStateBytes, kNumLevels
  };

  /// A worker outside any run (a bolt driven by hand): owns a private
  /// shard.
  WorkerMetrics(std::string stage, int task_id);
  /// A worker of a run: its instruments live in `shard`, which no other
  /// WorkerMetrics may write.
  explicit WorkerMetrics(obs::MetricsShard* shard);

  void RecordWindowNs(std::int64_t ns) {
    if (samples_paused_) return;
    window_ns_.push_back(ns);
    window_ns_histogram_->Observe(ns);
  }
  void RecordMemoryBytes(std::size_t bytes) {
    if (samples_paused_) return;
    memory_bytes_.push_back(static_cast<std::int64_t>(bytes));
  }
  /// While paused, window-time and memory samples are dropped: a recovery
  /// catch-up re-closes windows already sampled before the crash.
  void PauseSamples(bool paused) { samples_paused_ = paused; }
  /// One popped batch of `n` tuples.
  void AddTuplesIn(std::uint64_t n) {
    Add(kTuplesIn, n);
    Add(kBatchesPopped, 1);
  }
  void AddTuplesOut(std::uint64_t n) { Add(kTuplesOut, n); }
  void AddBusyNs(std::int64_t ns) { Add(kBusyNs, Ns(ns)); }
  void AddBackpressureNs(std::int64_t ns) { Add(kBackpressureNs, Ns(ns)); }
  void AddRetries(std::uint64_t n) { Add(kRetries, n); }
  void AddRecovered(std::uint64_t n) { Add(kRecovered, n); }
  void AddQuarantined(std::uint64_t n) { Add(kQuarantined, n); }
  void AddWorkerRestarts(std::uint64_t n) { Add(kRestores, n); }
  void AddSnapshots(std::uint64_t n, std::uint64_t bytes = 0) {
    Add(kSnapshots, n);
    Add(kSnapshotBytes, bytes);
  }
  void AddSpillTuples(std::uint64_t n) { Add(kSpillTuples, n); }
  void AddSpillFailures(std::uint64_t n) { Add(kSpillFailures, n); }
  /// Publishes a running total counted elsewhere, monotonically (see
  /// obs::Counter::RaiseTo).
  void Publish(Count count, std::uint64_t total) {
    counts_[count]->RaiseTo(total);
  }
  void Set(Level level, double value) { levels_[level]->Set(value); }

  const std::string& stage() const { return shard_->stage(); }
  int task_id() const { return shard_->task(); }
  std::uint64_t tuples_in() const { return Get(kTuplesIn); }
  std::uint64_t tuples_out() const { return Get(kTuplesOut); }
  std::int64_t busy_ns() const {
    return static_cast<std::int64_t>(Get(kBusyNs));
  }
  FaultStats faults() const;
  OverloadStats overload() const;
  const std::vector<std::int64_t>& window_ns() const { return window_ns_; }

  MetricSummary WindowSummary() const {
    return MetricSummary::FromSamples(window_ns_);
  }
  MetricSummary MemorySummary() const {
    return MetricSummary::FromSamples(memory_bytes_);
  }

 private:
  WorkerMetrics(obs::MetricsShard* shard,
                std::unique_ptr<obs::MetricsShard> own_shard);

  void Add(Count count, std::uint64_t n) { counts_[count]->Add(n); }
  std::uint64_t Get(Count count) const { return counts_[count]->value(); }
  static std::uint64_t Ns(std::int64_t ns) {
    return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
  }

  std::unique_ptr<obs::MetricsShard> own_shard_;  // standalone workers only
  obs::MetricsShard* const shard_;
  std::array<obs::Counter*, kNumCounts> counts_;
  std::array<obs::Gauge*, kNumLevels> levels_;
  obs::Histogram* const window_ns_histogram_;
  std::vector<std::int64_t> window_ns_;
  std::vector<std::int64_t> memory_bytes_;
  bool samples_paused_ = false;
};

/// \brief Owns every worker's metrics for one topology run, and the one
/// obs::MetricsRegistry their instruments live in.
class MetricsRegistry {
 public:
  MetricsRegistry() : exported_(std::make_unique<obs::MetricsRegistry>()) {}

  /// Creates (and owns) metrics for one worker, on the (stage, task)
  /// shard; register each (stage, task) once, so the shard has one
  /// writer. Called at wiring time, before threads start.
  WorkerMetrics* Register(const std::string& stage, int task_id) {
    workers_.push_back(
        std::make_unique<WorkerMetrics>(exported_->GetShard(stage, task_id)));
    return workers_.back().get();
  }

  /// All workers of a stage.
  std::vector<const WorkerMetrics*> ForStage(const std::string& stage) const {
    std::vector<const WorkerMetrics*> out;
    for (const auto& w : workers_) {
      if (w->stage() == stage) out.push_back(w.get());
    }
    return out;
  }

  /// Pooled per-window processing times across a stage's workers.
  MetricSummary StageWindowSummary(const std::string& stage) const;

  /// Mean of per-worker *average* memory samples across a stage — the
  /// "mean memory usage per worker" of Fig. 7.
  double StageMeanMemoryPerWorker(const std::string& stage) const;

  /// Fault counters summed across every worker (injected stays 0 here;
  /// the executor fills it from the topology's FaultInjector).
  FaultStats FaultTotals() const {
    FaultStats total;
    for (const auto& w : workers_) total.Accumulate(w->faults());
    return total;
  }

  /// Overload-control counters summed across every worker
  /// (watchdog_advances stays 0 here; the executor adds its own).
  OverloadStats OverloadTotals() const {
    OverloadStats total;
    for (const auto& w : workers_) total.Accumulate(w->overload());
    return total;
  }

  /// The instruments of every registered worker (and of any other shard a
  /// run adds, such as its source): what a scrape exports.
  obs::MetricsRegistry& exported() { return *exported_; }

 private:
  std::unique_ptr<obs::MetricsRegistry> exported_;
  std::vector<std::unique_ptr<WorkerMetrics>> workers_;
};

}  // namespace spear
