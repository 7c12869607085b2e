#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "core/spear_topology_builder.h"
#include "runtime/executor.h"
#include "runtime/spouts.h"
#include "runtime/windowed_bolt.h"

/// \file recovery_test.cc
/// The PR's acceptance scenario: seeded crash-chaos. kWorkerCrash kills
/// stateful workers mid-run; with checkpointing enabled the run completes,
/// every window is answered exactly once, recovered windows either meet
/// ε or are flagged, and the recovery count matches the injected crashes.
/// With checkpointing disabled, the same plan fails the run — the
/// subsystem is load-bearing.
///
/// scripts/check_recovery.sh sweeps SPEAR_RECOVERY_SEED to vary the crash
/// points across runs.

namespace spear {
namespace {

std::uint64_t RecoverySeed() {
  const char* env = std::getenv("SPEAR_RECOVERY_SEED");
  if (env == nullptr) return 7;
  return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
}

std::vector<Tuple> RecoveryStream(int n) {
  std::vector<Tuple> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double v = static_cast<double>((i * 37) % 101);
    out.emplace_back(i, std::vector<Value>{Value(v)});
  }
  return out;
}

void ConfigureRecoveryQuery(SpearTopologyBuilder& builder, int n) {
  builder.Source(std::make_shared<VectorSpout>(RecoveryStream(n)),
                 /*watermark_interval=*/50)
      .TumblingWindowOf(100)
      .Mean(NumericField(0))
      .SetBudget(Budget::Tuples(32))
      .Error(0.20, 0.95)
      .Parallelism(2);
}

FaultPlan CrashPlan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  FaultRule crash;
  crash.site = FaultSite::kWorkerCrash;
  // Deterministic fire count at seed-dependent crash points, always well
  // past the first snapshot (first windows close around tuple ~150).
  crash.every_nth = 700 + seed % 211;
  crash.max_fires = 3;
  plan.Add(crash);
  return plan;
}

using WindowKey = std::pair<std::int64_t, std::int64_t>;

std::map<WindowKey, std::vector<double>> WindowValues(
    const std::vector<Tuple>& output) {
  std::map<WindowKey, std::vector<double>> by_window;
  for (const Tuple& t : output) {
    const WindowKey key{t.field(ResultTupleLayout::kStart).AsInt64(),
                        t.field(ResultTupleLayout::kEnd).AsInt64()};
    by_window[key].push_back(
        t.field(ResultTupleLayout::kScalarValue).AsDouble());
  }
  for (auto& [key, values] : by_window) std::sort(values.begin(), values.end());
  return by_window;
}

TEST(RecoveryTest, CrashChaosRunMatchesCleanRunWithExactlyOnceWindows) {
  const int n = 4000;
  const std::uint64_t seed = RecoverySeed();

  SpearTopologyBuilder clean;
  ConfigureRecoveryQuery(clean, n);
  auto clean_report = Executor(std::move(*clean.Build())).Run();
  ASSERT_TRUE(clean_report.ok()) << clean_report.status().ToString();
  ASSERT_FALSE(clean_report->output.empty());

  FaultPlan plan = CrashPlan(seed);
  ASSERT_TRUE(plan.Validate().ok());
  FaultInjector injector(plan);

  CheckpointConfig ckpt;
  ckpt.interval = 100;
  SpearTopologyBuilder chaos;
  ConfigureRecoveryQuery(chaos, n);
  chaos.InjectFaults(&injector).Checkpoint(ckpt);
  auto chaos_report = Executor(std::move(*chaos.Build())).Run();
  ASSERT_TRUE(chaos_report.ok()) << chaos_report.status().ToString();

  // Every injected crash was recovered, and ≥ 2 workers died mid-run.
  const std::uint64_t crashes = injector.fired(FaultSite::kWorkerCrash);
  EXPECT_GE(crashes, 2u);
  EXPECT_EQ(chaos_report->faults.worker_restarts, crashes);
  EXPECT_GT(chaos_report->faults.snapshots, 0u);

  // Exactly-once window delivery: each window appears once per stateful
  // worker (parallelism 2, shuffle round-robin feeds both), crash or not.
  const auto clean_windows = WindowValues(clean_report->output);
  const auto chaos_windows = WindowValues(chaos_report->output);
  ASSERT_EQ(chaos_windows.size(), clean_windows.size());
  for (const auto& [key, clean_values] : clean_windows) {
    ASSERT_EQ(clean_values.size(), 2u)
        << "window [" << key.first << "," << key.second << ")";
    auto it = chaos_windows.find(key);
    ASSERT_NE(it, chaos_windows.end())
        << "window [" << key.first << "," << key.second << ") missing";
    ASSERT_EQ(it->second.size(), 2u)
        << "window [" << key.first << "," << key.second
        << ") not answered exactly once per worker";
    // Full replay (no log overflow) rebuilds the incremental accumulators
    // tuple for tuple: recovered means still equal the clean run.
    for (std::size_t w = 0; w < 2; ++w) {
      EXPECT_DOUBLE_EQ(it->second[w], clean_values[w])
          << "window [" << key.first << "," << key.second << ")";
    }
  }

  // Accuracy accounting: every window either meets ε or is flagged.
  std::uint64_t recovered_flags = 0;
  for (const Tuple& t : chaos_report->output) {
    const double eps_hat =
        t.field(ResultTupleLayout::kScalarError).AsDouble();
    const bool degraded =
        t.field(ResultTupleLayout::kScalarDegraded).AsInt64() == 1;
    if (!degraded) {
      EXPECT_LE(eps_hat, 0.20 + 1e-9);
    }
    recovered_flags += static_cast<std::uint64_t>(
        t.field(ResultTupleLayout::kScalarRecovered).AsInt64());
  }
  // Crashes land long after the first snapshot, so at least one restored
  // window reaches the output carrying its recovered flag.
  EXPECT_GE(recovered_flags, 1u);
}

std::uint64_t ScrapedTotal(const RunReport& report, const std::string& name) {
  std::uint64_t total = 0;
  for (const obs::MetricSample& s : report.observability.metrics) {
    if (s.kind == obs::MetricSample::Kind::kCounter && s.name == name) {
      total += static_cast<std::uint64_t>(s.value);
    }
  }
  return total;
}

// A restore rolls a worker's state back to its snapshot and the replay
// re-closes windows the worker already delivered. The exported counters
// and the trace must count each delivered window (and each tuple) once,
// as the snapshotted DecisionStats and the deduplicated output do.
TEST(RecoveryTest, ExportedCountersCountDeliveredWindowsOnce) {
  const int n = 4000;
  FaultPlan plan = CrashPlan(RecoverySeed());
  FaultInjector injector(plan);
  DecisionStatsCollector decisions;

  CheckpointConfig ckpt;
  ckpt.interval = 500;
  SpearTopologyBuilder builder;
  ConfigureRecoveryQuery(builder, n);
  builder.InjectFaults(&injector)
      .Checkpoint(ckpt)
      .CollectDecisions(&decisions)
      .Metrics()
      .Trace();
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GE(report->faults.worker_restarts, 2u);

  const DecisionStats total = decisions.Total();
  EXPECT_EQ(total.windows_total, report->output.size());
  EXPECT_EQ(ScrapedTotal(*report, "windows_expedited") +
                ScrapedTotal(*report, "windows_exact") +
                ScrapedTotal(*report, "windows_degraded"),
            total.windows_total);
  EXPECT_EQ(total.tuples_seen, static_cast<std::uint64_t>(n));
  EXPECT_EQ(ScrapedTotal(*report, "tuples_seen"), total.tuples_seen);
  EXPECT_EQ(report->observability.spans.size(), report->output.size());
  EXPECT_EQ(report->metrics.StageWindowSummary("stateful").count,
            report->output.size());
}

// The load-bearing negative: the same crash plan without checkpointing
// must fail the run — recovery is doing real work above, not the fault
// being cosmetic.
TEST(RecoveryTest, SameCrashPlanWithoutCheckpointingFailsTheRun) {
  const int n = 4000;
  FaultPlan plan = CrashPlan(RecoverySeed());
  FaultInjector injector(plan);

  SpearTopologyBuilder builder;
  ConfigureRecoveryQuery(builder, n);
  builder.InjectFaults(&injector);  // no .Checkpoint(...)
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInternal());
  EXPECT_NE(report.status().message().find("worker crash"),
            std::string::npos);
}

// A worker whose recovery budget is exhausted stops recovering and fails
// the run with a diagnosable error.
TEST(RecoveryTest, RecoveryBudgetExhaustionCancelsTheRun) {
  const int n = 4000;
  FaultPlan plan;
  plan.seed = 1;
  FaultRule crash;
  crash.site = FaultSite::kWorkerCrash;
  crash.every_nth = 200;  // crashes keep coming
  plan.Add(crash);
  FaultInjector injector(plan);

  CheckpointConfig ckpt;
  ckpt.interval = 100;
  ckpt.max_recoveries_per_worker = 2;
  SpearTopologyBuilder builder;
  ConfigureRecoveryQuery(builder, n);
  builder.InjectFaults(&injector).Checkpoint(ckpt);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("recovery budget exhausted"),
            std::string::npos);
}

// A crushed replay log forces lossy recovery: the run still completes
// and the loss surfaces as flagged windows with inflated ε̂, not as
// silently wrong results. The snapshot interval is effectively infinite
// (one snapshot at the first watermark, never again), so wherever a
// crash lands — thread interleaving moves the exact tick a worker dies
// at — the gap back to the snapshot dwarfs the 4-tuple replay log and
// loss is guaranteed.
TEST(RecoveryTest, LossyRecoveryFlagsWindowsInsteadOfLyingAboutThem) {
  const int n = 4000;
  FaultPlan plan = CrashPlan(3);
  FaultInjector injector(plan);

  CheckpointConfig ckpt;
  ckpt.interval = 1'000'000'000;
  ckpt.max_replay_tuples = 4;  // nearly everything since the snapshot is lost
  SpearTopologyBuilder builder;
  ConfigureRecoveryQuery(builder, n);
  builder.InjectFaults(&injector).Checkpoint(ckpt);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->faults.worker_restarts, injector.fired(FaultSite::kWorkerCrash));

  std::uint64_t flagged = 0;
  for (const Tuple& t : report->output) {
    if (t.field(ResultTupleLayout::kScalarRecovered).AsInt64() == 1) {
      ++flagged;
      const bool degraded =
          t.field(ResultTupleLayout::kScalarDegraded).AsInt64() == 1;
      const double eps_hat =
          t.field(ResultTupleLayout::kScalarError).AsDouble();
      EXPECT_TRUE(degraded || eps_hat <= 0.20 + 1e-9);
    }
  }
  EXPECT_GE(flagged, 1u);
  EXPECT_GT(report->faults.degraded_windows, 0u);
}

// Checkpoint builder validation: count-based windows and non-replayable
// sources are rejected up front.
TEST(RecoveryTest, BuilderRejectsUncheckpointablePlans) {
  CheckpointConfig ckpt;
  SpearTopologyBuilder count_based;
  count_based.Source(std::make_shared<VectorSpout>(RecoveryStream(100)))
      .TumblingCountWindowOf(10)
      .Mean(NumericField(0))
      .Checkpoint(ckpt);
  EXPECT_FALSE(count_based.Build().ok());

  auto opaque = std::make_shared<GeneratorSpout>([](Tuple*) { return false; });
  SpearTopologyBuilder unreplayable;
  unreplayable.Source(opaque, 50)
      .TumblingWindowOf(100)
      .Mean(NumericField(0))
      .Checkpoint(ckpt);
  EXPECT_FALSE(unreplayable.Build().ok());
}

// Satellite: the dead-letter channel is bounded. A run with more poison
// tuples than the cap retains exactly `cap` of them, counts the overflow,
// and still quarantines (rather than fails) every one.
TEST(RecoveryTest, DeadLetterChannelIsBounded) {
  const int n = 2000;
  FaultPlan plan;
  plan.seed = 5;
  FaultRule poison;
  poison.site = FaultSite::kSpoutMalformed;
  poison.every_nth = 100;  // 20 poison tuples
  plan.Add(poison);
  FaultInjector injector(plan);

  SpearTopologyBuilder builder;
  ConfigureRecoveryQuery(builder, n);
  builder.ValidateTuples(RequireNumericFields({0}))
      .InjectFaults(&injector)
      .DeadLetterCap(4);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const std::uint64_t poisoned = injector.fired(FaultSite::kSpoutMalformed);
  ASSERT_GT(poisoned, 4u);
  EXPECT_EQ(report->dead_letters.size(), 4u);
  EXPECT_EQ(report->dead_letters_dropped, poisoned - 4);
  EXPECT_EQ(report->faults.quarantined, poisoned);
}

// Supervision must be free when nothing crashes: a checkpointed run with
// no faults produces byte-identical per-window values to the plain run.
TEST(RecoveryTest, CheckpointingAloneDoesNotChangeResults) {
  const int n = 2000;
  SpearTopologyBuilder plain;
  ConfigureRecoveryQuery(plain, n);
  auto plain_report = Executor(std::move(*plain.Build())).Run();
  ASSERT_TRUE(plain_report.ok());

  CheckpointConfig ckpt;
  ckpt.interval = 100;
  SpearTopologyBuilder checkpointed;
  ConfigureRecoveryQuery(checkpointed, n);
  checkpointed.Checkpoint(ckpt);
  auto ckpt_report = Executor(std::move(*checkpointed.Build())).Run();
  ASSERT_TRUE(ckpt_report.ok());

  EXPECT_EQ(ckpt_report->faults.worker_restarts, 0u);
  EXPECT_GT(ckpt_report->faults.snapshots, 0u);
  const auto plain_windows = WindowValues(plain_report->output);
  const auto ckpt_windows = WindowValues(ckpt_report->output);
  EXPECT_EQ(plain_windows, ckpt_windows);
}

// Snapshots can land in a file-backed store and drive recovery from disk.
TEST(RecoveryTest, FileBackedStoreSupportsRecovery) {
  const int n = 4000;
  const std::string dir = ::testing::TempDir() + "/recovery_file_store";
  FileCheckpointStore store(dir);

  FaultPlan plan = CrashPlan(9);
  FaultInjector injector(plan);
  CheckpointConfig ckpt;
  ckpt.interval = 100;
  ckpt.store = &store;

  SpearTopologyBuilder builder;
  ConfigureRecoveryQuery(builder, n);
  builder.InjectFaults(&injector).Checkpoint(ckpt);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->faults.worker_restarts, injector.fired(FaultSite::kWorkerCrash));
  EXPECT_GE(report->faults.worker_restarts, 2u);
  // The stateful workers' snapshot files exist on disk.
  Result<CheckpointSnapshot> latest = store.Latest("stateful", 0);
  EXPECT_TRUE(latest.ok()) << latest.status().ToString();
}

}  // namespace
}  // namespace spear
