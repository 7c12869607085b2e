#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "core/spear_topology_builder.h"
#include "runtime/executor.h"
#include "runtime/spouts.h"
#include "runtime/windowed_bolt.h"

/// \file overload_chaos_test.cc
/// Combined overload + crash chaos: a seeded FaultPlan crashes the
/// stateful worker while accuracy-aware shedding is active. The restored
/// worker must resume shed accounting from its snapshot — shed counts are
/// part of the checkpointed budget state — and every emitted window's
/// ε̂_w claim (shed loss and replay loss folded in) must still hold
/// against an exact offline recompute of the full stream.
///
/// scripts/check_overload.sh sweeps SPEAR_OVERLOAD_SEED to move the crash
/// points across runs.

namespace spear {
namespace {

std::uint64_t OverloadSeed() {
  const char* env = std::getenv("SPEAR_OVERLOAD_SEED");
  if (env == nullptr) return 7;
  return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
}

std::vector<Tuple> ChaosStream(int n) {
  std::vector<Tuple> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double v = 50.0 + static_cast<double>((i * 37) % 101);
    out.emplace_back(i, std::vector<Value>{Value(v)});
  }
  return out;
}

std::map<std::int64_t, double> ExactWindowMeans(int n, std::int64_t range) {
  std::map<std::int64_t, std::pair<double, std::int64_t>> acc;
  for (int i = 0; i < n; ++i) {
    const double v = 50.0 + static_cast<double>((i * 37) % 101);
    auto& [sum, count] = acc[(i / range) * range];
    sum += v;
    ++count;
  }
  std::map<std::int64_t, double> means;
  for (const auto& [start, sc] : acc) {
    means[start] = sc.first / static_cast<double>(sc.second);
  }
  return means;
}

TEST(OverloadChaosTest, CrashWhileSheddingResumesAccountingAndHoldsClaims) {
  const int n = 20000;
  const std::int64_t range = 1000;
  const std::uint64_t seed = OverloadSeed();

  FaultPlan plan;
  plan.seed = seed;
  FaultRule crash;
  crash.site = FaultSite::kWorkerCrash;
  // Seed-dependent crash points, always past the first snapshot.
  crash.every_nth = 900 + seed % 211;
  crash.max_fires = 2;
  plan.Add(crash);
  ASSERT_TRUE(plan.Validate().ok());
  FaultInjector injector(plan);

  CheckpointConfig ckpt;
  ckpt.interval = 100;

  ShedPolicy always_shed;
  always_shed.queue_high_watermark = 0.0;  // tripped on every observation
  always_shed.shed_step = 0.1;
  always_shed.max_shed_probability = 0.1;

  SpearTopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(ChaosStream(n)),
                 /*watermark_interval=*/50)
      .TumblingWindowOf(range)
      .Mean(NumericField(0))
      .SetBudget(Budget::Tuples(256))
      .Error(0.25, 0.95)
      .Parallelism(1)
      .LatencySlo(50)
      .Shed(always_shed)
      .InjectFaults(&injector)
      .Checkpoint(ckpt);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Every crash recovered, and shedding stayed active across the restore.
  const std::uint64_t crashes = injector.fired(FaultSite::kWorkerCrash);
  EXPECT_GE(crashes, 1u);
  EXPECT_EQ(report->faults.worker_restarts, crashes);
  EXPECT_GT(report->faults.snapshots, 0u);
  EXPECT_GT(report->overload.tuples_shed, 0u);

  // Exactly-once window delivery despite crash + shed.
  std::map<std::int64_t, std::size_t> per_window;
  for (const Tuple& t : report->output) {
    ++per_window[t.field(ResultTupleLayout::kStart).AsInt64()];
  }
  ASSERT_EQ(per_window.size(), static_cast<std::size_t>(n / range));
  for (const auto& [start, copies] : per_window) {
    EXPECT_EQ(copies, 1u) << "window " << start;
  }

  // The load-bearing claim: with shed loss and any replay-gap loss folded
  // into ε̂_w, every window the engine does NOT flag as degraded verifies
  // against the exact offline recompute of the full stream. The 0.05
  // slack absorbs the estimator's confidence level.
  const auto exact = ExactWindowMeans(n, range);
  for (const Tuple& t : report->output) {
    const bool degraded =
        t.field(ResultTupleLayout::kScalarDegraded).AsInt64() == 1;
    if (degraded) continue;
    const std::int64_t start = t.field(ResultTupleLayout::kStart).AsInt64();
    const double est = t.field(ResultTupleLayout::kScalarValue).AsDouble();
    const double eps_hat =
        t.field(ResultTupleLayout::kScalarError).AsDouble();
    EXPECT_LE(eps_hat, 0.25 + 1e-9);
    const double truth = exact.at(start);
    EXPECT_LE(std::abs(est - truth) / std::abs(truth), eps_hat + 0.05)
        << "window " << start;
  }
}

// Snapshot round-trip of shed state in isolation from thread timing: the
// deterministic always-shed run with checkpointing enabled but no crash
// must account for every tuple exactly once, same as without snapshots.
TEST(OverloadChaosTest, CheckpointingDoesNotDoubleCountShedTuples) {
  const int n = 8000;
  DecisionStatsCollector collector;

  ShedPolicy always_shed;
  always_shed.queue_high_watermark = 0.0;
  always_shed.shed_step = 0.1;
  always_shed.max_shed_probability = 0.1;

  CheckpointConfig ckpt;
  ckpt.interval = 100;

  SpearTopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(ChaosStream(n)),
                 /*watermark_interval=*/50)
      .TumblingWindowOf(1000)
      .Mean(NumericField(0))
      .SetBudget(Budget::Tuples(256))
      .Error(0.25, 0.95)
      .Parallelism(1)
      .LatencySlo(50)
      .Shed(always_shed)
      .Checkpoint(ckpt)
      .CollectDecisions(&collector);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->faults.snapshots, 0u);

  const DecisionStats total = collector.Total();
  EXPECT_EQ(total.tuples_seen + total.tuples_shed,
            static_cast<std::uint64_t>(n));
  EXPECT_GT(total.tuples_shed, 0u);
  EXPECT_EQ(report->overload.tuples_shed, total.tuples_shed);
}

}  // namespace
}  // namespace spear
