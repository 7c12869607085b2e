#include "runtime/metrics.h"

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/retry_policy.h"
#include "core/spear_window_manager.h"
#include "storage/secondary_storage.h"

/// The metrics-merge invariant: every counter a worker records reaches the
/// run-level totals, which read the worker's exported counters.
/// Accumulate() must cover every field of its struct —
/// a field added to FaultStats/OverloadStats but not to Accumulate() is
/// silently dropped from RunReport (exactly how spill_failures went
/// missing before this suite). The sizeof static_asserts force whoever
/// adds a field to extend both Accumulate() and these tests.

namespace spear {
namespace {

static_assert(sizeof(FaultStats) == 8 * sizeof(std::uint64_t),
              "FaultStats gained a field: update Accumulate() and "
              "metrics_merge_test.cc");
static_assert(sizeof(OverloadStats) ==
                  4 * sizeof(std::uint64_t) + sizeof(std::int64_t),
              "OverloadStats gained a field: update Accumulate() and "
              "metrics_merge_test.cc");

TEST(MetricsMergeTest, FaultStatsAccumulateCoversEveryField) {
  FaultStats a;
  FaultStats b;
  b.injected = 1;
  b.retries = 2;
  b.recovered = 3;
  b.quarantined = 5;
  b.degraded_windows = 7;
  b.worker_restarts = 11;
  b.snapshots = 13;
  b.spill_failures = 17;
  a.Accumulate(b);
  a.Accumulate(b);
  EXPECT_EQ(a.injected, 2u);
  EXPECT_EQ(a.retries, 4u);
  EXPECT_EQ(a.recovered, 6u);
  EXPECT_EQ(a.quarantined, 10u);
  EXPECT_EQ(a.degraded_windows, 14u);
  EXPECT_EQ(a.worker_restarts, 22u);
  EXPECT_EQ(a.snapshots, 26u);
  EXPECT_EQ(a.spill_failures, 34u);
}

TEST(MetricsMergeTest, OverloadStatsAccumulateCoversEveryField) {
  OverloadStats a;
  OverloadStats b;
  b.tuples_shed = 1;
  b.windows_shed_loss = 2;
  b.deadline_aborts = 3;
  b.watchdog_advances = 5;
  b.backpressure_wait_ns = 7;
  a.Accumulate(b);
  a.Accumulate(b);
  EXPECT_EQ(a.tuples_shed, 2u);
  EXPECT_EQ(a.windows_shed_loss, 4u);
  EXPECT_EQ(a.deadline_aborts, 6u);
  EXPECT_EQ(a.watchdog_advances, 10u);
  EXPECT_EQ(a.backpressure_wait_ns, 14);
}

// The degraded-window, shed and deadline-abort facts have no adder: the
// manager counts them once, in its snapshotted DecisionStats, and
// publishes them into its worker's counters. Drive them through one.
TEST(MetricsMergeTest, EveryWorkerAdderReachesTheTotals) {
  MetricsRegistry registry;
  WorkerMetrics* w0 = registry.Register("stateful", 0);
  WorkerMetrics* w1 = registry.Register("stateful", 1);

  w0->AddRetries(1);
  w0->AddRecovered(2);
  w0->AddQuarantined(3);
  w0->AddWorkerRestarts(5);
  w0->AddSnapshots(6);
  w0->AddSpillFailures(7);
  w1->AddSpillFailures(10);
  w0->AddBackpressureNs(11);

  // Sampled mean with a 4-tuple budget at ε = 5%: every window fails the
  // expedite test. Window [0, 100) spills to a store whose 2 ms per call
  // outlasts the 1 ms exact deadline, so its fallback aborts and it is
  // emitted degraded; window [100, 200) loses tuples to shedding, so it
  // degrades without a fallback.
  SecondaryStorage slow(StorageLatencyModel{2'000'000, 0});
  SpearOperatorConfig config;
  config.window = WindowSpec::TumblingTime(100);
  config.aggregate = AggregateSpec::Mean();
  config.accuracy = AccuracySpec{0.05, 0.95};
  config.budget = Budget::Tuples(4);
  config.incremental_optimization = false;
  config.buffer_memory_capacity = 2;
  config.exact_deadline_ms = 1;
  SpearWindowManager manager(config, NumericField(0), nullptr, &slow,
                             "merge-test");
  manager.SetMetrics(w0);
  for (int i = 0; i < 6; ++i) {
    manager.OnTuple(10 * i, Tuple(10 * i, {Value(i * i * 10.0)}));
  }
  for (int i = 0; i < 6; ++i) {
    manager.OnTuple(100 + 10 * i, Tuple(100 + 10 * i, {Value(i * 7.0)}));
    manager.OnTupleShed(105 + 10 * i);
  }
  ASSERT_TRUE(manager.OnWatermark(200).ok());
  const DecisionStats& decisions = manager.decision_stats();
  ASSERT_EQ(decisions.windows_degraded, 2u);
  ASSERT_EQ(decisions.deadline_aborts, 1u);
  ASSERT_EQ(decisions.windows_shed, 1u);
  ASSERT_EQ(decisions.tuples_shed, 6u);

  const FaultStats faults = registry.FaultTotals();
  EXPECT_EQ(faults.retries, 1u);
  EXPECT_EQ(faults.recovered, 2u);
  EXPECT_EQ(faults.quarantined, 3u);
  EXPECT_EQ(faults.degraded_windows, decisions.windows_degraded);
  EXPECT_EQ(faults.worker_restarts, 5u);
  EXPECT_EQ(faults.snapshots, 6u);
  EXPECT_EQ(faults.spill_failures, 17u);  // summed across workers

  const OverloadStats overload = registry.OverloadTotals();
  EXPECT_EQ(overload.tuples_shed, decisions.tuples_shed);
  EXPECT_EQ(overload.windows_shed_loss, decisions.windows_shed);
  EXPECT_EQ(overload.deadline_aborts, decisions.deadline_aborts);
  EXPECT_EQ(overload.backpressure_wait_ns, 11);
}

// The field that used to be dropped: a SpearWindowManager spill failure
// (S unavailable past its retries) must reach WorkerMetrics and thus
// FaultTotals, not just the manager's private counter.
TEST(MetricsMergeTest, ManagerSpillFailuresReachWorkerMetrics) {
  SecondaryStorage storage;
  FaultPlan plan;
  FaultRule rule;
  rule.site = FaultSite::kStorageStore;
  rule.probability = 1.0;  // every spill attempt fails
  plan.Add(rule);
  FaultInjector injector(plan);
  storage.InjectFaults(&injector);

  SpearOperatorConfig config;
  config.window = WindowSpec::TumblingTime(1000);
  config.aggregate = AggregateSpec::Mean();
  config.accuracy = AccuracySpec{0.10, 0.95};
  config.budget = Budget::Tuples(16);
  config.buffer_memory_capacity = 8;  // force spilling almost immediately
  config.storage_retry = RetryPolicy::None();

  SpearWindowManager manager(config, NumericField(0), nullptr, &storage,
                             "merge-test");
  WorkerMetrics worker("stateful", 0);
  manager.SetMetrics(&worker);

  for (int i = 0; i < 64; ++i) {
    manager.OnTuple(i, Tuple(i, {Value(i * 1.0)}));
  }

  EXPECT_GT(worker.faults().spill_failures, 0u);
  MetricsRegistry registry;
  WorkerMetrics* registered = registry.Register("stateful", 0);
  registered->AddSpillFailures(worker.faults().spill_failures);
  EXPECT_EQ(registry.FaultTotals().spill_failures,
            worker.faults().spill_failures);
}

}  // namespace
}  // namespace spear
