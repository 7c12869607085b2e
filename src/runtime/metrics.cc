#include "runtime/metrics.h"

#include <algorithm>
#include <iterator>

namespace spear {

namespace {

std::int64_t PercentileOfSorted(const std::vector<std::int64_t>& sorted,
                                double p) {
  if (sorted.empty()) return 0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(pos + 0.5)];
}

}  // namespace

MetricSummary MetricSummary::FromSamples(std::vector<std::int64_t> samples) {
  MetricSummary out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.count = samples.size();
  double sum = 0.0;
  for (std::int64_t s : samples) sum += static_cast<double>(s);
  out.mean = sum / static_cast<double>(samples.size());
  out.min = samples.front();
  out.max = samples.back();
  out.p50 = PercentileOfSorted(samples, 0.50);
  out.p95 = PercentileOfSorted(samples, 0.95);
  out.p99 = PercentileOfSorted(samples, 0.99);
  return out;
}

namespace {

// Exported names, in Count / Level order.
constexpr const char* kCountNames[] = {
    "tuples_in", "batches_popped", "tuples_emitted", "busy_ns",
    "backpressure_wait_ns", "retries", "retries_recovered",
    "tuples_quarantined", "checkpoint_restores", "checkpoint_snapshots",
    "checkpoint_bytes", "spill_tuples", "spill_failures",
    "windows_expedited", "windows_exact", "windows_degraded",
    "windows_recovered", "windows_shed_loss", "deadline_aborts",
    "tuples_seen", "late_tuples", "tuples_shed"};
constexpr const char* kLevelNames[] = {
    "queue_depth", "queue_capacity", "shed_probability", "watermark_ms",
    "buffered_tuples", "budget_state_bytes"};
static_assert(std::size(kCountNames) == WorkerMetrics::kNumCounts);
static_assert(std::size(kLevelNames) == WorkerMetrics::kNumLevels);

}  // namespace

WorkerMetrics::WorkerMetrics(std::string stage, int task_id)
    : WorkerMetrics(nullptr, std::make_unique<obs::MetricsShard>(
                                 std::move(stage), task_id)) {}

WorkerMetrics::WorkerMetrics(obs::MetricsShard* shard)
    : WorkerMetrics(shard, nullptr) {}

WorkerMetrics::WorkerMetrics(obs::MetricsShard* shard,
                             std::unique_ptr<obs::MetricsShard> own_shard)
    : own_shard_(std::move(own_shard)),
      shard_(own_shard_ != nullptr ? own_shard_.get() : shard),
      window_ns_histogram_(shard_->GetHistogram(
          "window_processing_ns", obs::HistogramBuckets::LatencyNs())) {
  for (std::size_t c = 0; c < kNumCounts; ++c) {
    counts_[c] = shard_->GetCounter(kCountNames[c]);
  }
  for (std::size_t l = 0; l < kNumLevels; ++l) {
    levels_[l] = shard_->GetGauge(kLevelNames[l]);
  }
}

FaultStats WorkerMetrics::faults() const {
  return {.retries = Get(kRetries),
          .recovered = Get(kRecovered),
          .quarantined = Get(kQuarantined),
          .degraded_windows = Get(kWindowsDegraded),
          .worker_restarts = Get(kRestores),
          .snapshots = Get(kSnapshots),
          .spill_failures = Get(kSpillFailures)};
}

OverloadStats WorkerMetrics::overload() const {
  return {.tuples_shed = Get(kTuplesShed),
          .windows_shed_loss = Get(kWindowsShedLoss),
          .deadline_aborts = Get(kDeadlineAborts),
          .backpressure_wait_ns =
              static_cast<std::int64_t>(Get(kBackpressureNs))};
}

MetricSummary MetricsRegistry::StageWindowSummary(
    const std::string& stage) const {
  std::vector<std::int64_t> pooled;
  for (const auto& w : workers_) {
    if (w->stage() != stage) continue;
    pooled.insert(pooled.end(), w->window_ns().begin(), w->window_ns().end());
  }
  return MetricSummary::FromSamples(std::move(pooled));
}

double MetricsRegistry::StageMeanMemoryPerWorker(
    const std::string& stage) const {
  double sum = 0.0;
  int workers = 0;
  for (const auto& w : workers_) {
    if (w->stage() != stage) continue;
    const MetricSummary s = w->MemorySummary();
    if (s.count == 0) continue;
    sum += s.mean;
    ++workers;
  }
  return workers == 0 ? 0.0 : sum / workers;
}

}  // namespace spear
