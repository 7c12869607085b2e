#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "core/spear_topology_builder.h"
#include "data/datasets.h"
#include "runtime/executor.h"
#include "runtime/spouts.h"
#include "common/rng.h"
#include "stats/error_metrics.h"

namespace spear {
namespace {

/// Decodes scalar result tuples into window-end -> (value, approx).
std::map<std::int64_t, std::pair<double, bool>> DecodeScalar(
    const std::vector<Tuple>& output) {
  std::map<std::int64_t, std::pair<double, bool>> out;
  for (const Tuple& t : output) {
    out[t.field(ResultTupleLayout::kEnd).AsInt64()] = {
        t.field(ResultTupleLayout::kScalarValue).AsDouble(),
        t.field(ResultTupleLayout::kScalarApprox).AsInt64() == 1};
  }
  return out;
}

/// Decodes grouped result tuples into (window end, key) -> value.
std::map<std::pair<std::int64_t, std::string>, double> DecodeGrouped(
    const std::vector<Tuple>& output) {
  std::map<std::pair<std::int64_t, std::string>, double> out;
  for (const Tuple& t : output) {
    out[{t.field(ResultTupleLayout::kEnd).AsInt64(),
         t.field(ResultTupleLayout::kGroupKey).AsString()}] =
        t.field(ResultTupleLayout::kGroupValue).AsDouble();
  }
  return out;
}

std::shared_ptr<VectorSpout> DecSpout(DurationMs duration = Minutes(3)) {
  DecGenerator::Config config;
  config.duration = duration;
  return std::make_shared<VectorSpout>(DecGenerator::Generate(config));
}

RunReport MustRun(SpearTopologyBuilder& builder) {
  auto topology = builder.Build();
  EXPECT_TRUE(topology.ok()) << topology.status().ToString();
  auto report = Executor(std::move(*topology)).Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(*report);
}

TEST(EndToEndTest, DecMedianSpearVsStormWithinAccuracy) {
  // The paper's DEC median CQ: 45s/15s sliding window, b=150, eps=10%.
  SpearTopologyBuilder storm;
  storm.Source(DecSpout(), Seconds(15))
      .SlidingWindowOf(Seconds(45), Seconds(15))
      .Median(NumericField(DecGenerator::kSizeField))
      .Engine(ExecutionEngine::kExact);
  const auto exact = DecodeScalar(MustRun(storm).output);

  SpearTopologyBuilder spear;
  spear.Source(DecSpout(), Seconds(15))
      .SlidingWindowOf(Seconds(45), Seconds(15))
      .Median(NumericField(DecGenerator::kSizeField))
      .SetBudget(Budget::Tuples(150))
      .Error(0.10, 0.95);
  const auto approx = DecodeScalar(MustRun(spear).output);

  ASSERT_FALSE(exact.empty());
  ASSERT_EQ(exact.size(), approx.size());
  int expedited = 0;
  for (const auto& [end, value_approx] : approx) {
    ASSERT_TRUE(exact.count(end)) << "window " << end;
    if (value_approx.second) ++expedited;
    // Median rank error <= 10%: on the bimodal DEC distribution the value
    // can sit on either mode; compare by rank tolerance via value bands.
    // Here we simply require the approximate median to be a plausible
    // packet size near the exact one's mode.
    const double exact_value = exact.at(end).first;
    const double diff = std::fabs(value_approx.first - exact_value);
    EXPECT_LT(diff, 700.0) << "window " << end;
  }
  EXPECT_GT(expedited, 0);
}

TEST(EndToEndTest, DecMeanAllEnginesAgree) {
  auto build = [&](ExecutionEngine engine) {
    SpearTopologyBuilder b;
    b.Source(DecSpout(), Seconds(15))
        .SlidingWindowOf(Seconds(45), Seconds(15))
        .Mean(NumericField(DecGenerator::kSizeField))
        .SetBudget(Budget::Tuples(1000))
        .Error(0.10, 0.95)
        .Engine(engine);
    return DecodeScalar(MustRun(b).output);
  };
  const auto exact = build(ExecutionEngine::kExact);
  const auto incremental = build(ExecutionEngine::kIncremental);
  const auto spear = build(ExecutionEngine::kSpear);

  ASSERT_FALSE(exact.empty());
  ASSERT_EQ(exact.size(), incremental.size());
  ASSERT_EQ(exact.size(), spear.size());
  for (const auto& [end, value_approx] : exact) {
    // Inc-Storm is exactly equal; SPEAr (incremental scalar path) too.
    EXPECT_NEAR(incremental.at(end).first, value_approx.first, 1e-6);
    EXPECT_NEAR(spear.at(end).first, value_approx.first, 1e-6);
  }
}

TEST(EndToEndTest, DecMeanSampledPathWithinEpsilon) {
  SpearTopologyBuilder storm;
  storm.Source(DecSpout(), Seconds(15))
      .SlidingWindowOf(Seconds(45), Seconds(15))
      .Mean(NumericField(DecGenerator::kSizeField))
      .Engine(ExecutionEngine::kExact);
  const auto exact = DecodeScalar(MustRun(storm).output);

  SpearTopologyBuilder spear;
  spear.Source(DecSpout(), Seconds(15))
      .SlidingWindowOf(Seconds(45), Seconds(15))
      .Mean(NumericField(DecGenerator::kSizeField))
      .SetBudget(Budget::Tuples(1000))
      .Error(0.10, 0.95)
      .DisableIncrementalOptimization();
  const auto approx = DecodeScalar(MustRun(spear).output);

  ASSERT_EQ(exact.size(), approx.size());
  std::size_t violations = 0;
  for (const auto& [end, value_approx] : approx) {
    if (RelativeError(value_approx.first, exact.at(end).first) > 0.10) {
      ++violations;
    }
  }
  // 95% of windows must be within 10%.
  EXPECT_LE(violations, std::max<std::size_t>(approx.size() / 10, 1));
}

TEST(EndToEndTest, GcmGroupedKnownGroups) {
  GcmGenerator::Config config;
  config.duration = Minutes(6);
  const auto tuples = GcmGenerator::Generate(config);

  SpearTopologyBuilder storm;
  storm.Source(std::make_shared<VectorSpout>(tuples), Minutes(1))
      .SlidingWindowOf(Minutes(2), Minutes(1))
      .Mean(NumericField(GcmGenerator::kCpuField))
      .GroupBy(KeyField(GcmGenerator::kClassField))
      .Engine(ExecutionEngine::kExact);
  const auto exact = DecodeGrouped(MustRun(storm).output);

  SpearTopologyBuilder spear;
  spear.Source(std::make_shared<VectorSpout>(tuples), Minutes(1))
      .SlidingWindowOf(Minutes(2), Minutes(1))
      .Mean(NumericField(GcmGenerator::kCpuField))
      .GroupBy(KeyField(GcmGenerator::kClassField))
      .SetBudget(Budget::Tuples(4000))
      .Error(0.10, 0.95)
      .KnownGroups(8);
  const auto approx = DecodeGrouped(MustRun(spear).output);

  ASSERT_FALSE(exact.empty());
  // R2: same groups in both results.
  ASSERT_EQ(exact.size(), approx.size());
  std::size_t violations = 0;
  for (const auto& [key, value] : approx) {
    ASSERT_TRUE(exact.count(key)) << key.second;
    if (RelativeError(value, exact.at(key)) > 0.10) ++violations;
  }
  EXPECT_LE(violations, std::max<std::size_t>(approx.size() / 10, 2));
}

TEST(EndToEndTest, DebsGroupedSparseRoutes) {
  DebsGenerator::Config config;
  config.duration = Minutes(90);
  const auto tuples = DebsGenerator::Generate(config);

  SpearTopologyBuilder storm;
  storm.Source(std::make_shared<VectorSpout>(tuples), Minutes(15))
      .SlidingWindowOf(Minutes(30), Minutes(15))
      .Mean(NumericField(DebsGenerator::kFareField))
      .GroupBy(KeyField(DebsGenerator::kRouteField))
      .Engine(ExecutionEngine::kExact);
  const auto exact = DecodeGrouped(MustRun(storm).output);

  SpearTopologyBuilder spear;
  spear.Source(std::make_shared<VectorSpout>(tuples), Minutes(15))
      .SlidingWindowOf(Minutes(30), Minutes(15))
      .Mean(NumericField(DebsGenerator::kFareField))
      .GroupBy(KeyField(DebsGenerator::kRouteField))
      .SetBudget(Budget::Tuples(8000))  // ~sparse: most groups fully sampled
      .Error(0.10, 0.95);
  const auto approx = DecodeGrouped(MustRun(spear).output);

  ASSERT_FALSE(exact.empty());
  ASSERT_EQ(exact.size(), approx.size()) << "every distinct route required";
}

TEST(EndToEndTest, CountBasedWindowsAcrossEngines) {
  auto build = [&](ExecutionEngine engine) {
    SpearTopologyBuilder b;
    b.Source(DecSpout(Minutes(1)))
        .TumblingCountWindowOf(2500)
        .Median(NumericField(DecGenerator::kSizeField))
        .SetBudget(Budget::Tuples(150))
        .Error(0.10, 0.95)
        .Engine(engine);
    return MustRun(b).output;
  };
  const auto exact = build(ExecutionEngine::kExact);
  const auto spear = build(ExecutionEngine::kSpear);
  ASSERT_FALSE(exact.empty());
  EXPECT_EQ(exact.size(), spear.size());
}

TEST(EndToEndTest, CountMinEngineProducesAllGroups) {
  GcmGenerator::Config config;
  config.duration = Minutes(3);
  auto spout =
      std::make_shared<VectorSpout>(GcmGenerator::Generate(config));
  SpearTopologyBuilder b;
  b.Source(spout, Minutes(1))
      .TumblingWindowOf(Minutes(1))
      .Mean(NumericField(GcmGenerator::kCpuField))
      .GroupBy(KeyField(GcmGenerator::kClassField))
      .Error(0.10, 0.95)
      .Engine(ExecutionEngine::kCountMin);
  const auto grouped = DecodeGrouped(MustRun(b).output);
  EXPECT_GE(grouped.size(), 8u);
}

TEST(EndToEndTest, ParallelStatefulStage) {
  SpearTopologyBuilder b;
  b.Source(DecSpout(Minutes(2)), Seconds(15))
      .SlidingWindowOf(Seconds(45), Seconds(15))
      .Median(NumericField(DecGenerator::kSizeField))
      .SetBudget(Budget::Tuples(150))
      .Error(0.10, 0.95)
      .Parallelism(4);
  const RunReport report = MustRun(b);
  EXPECT_FALSE(report.output.empty());
  EXPECT_EQ(report.metrics
                .ForStage(SpearTopologyBuilder::StatefulStageName())
                .size(),
            4u);
}

TEST(EndToEndTest, TimeStageAnnotatesEventTime) {
  // Tuples arrive with event_time 0 but carry the time in field 0; the
  // Time stage must recover windowing.
  DecGenerator::Config config;
  config.duration = Minutes(2);
  auto tuples = DecGenerator::Generate(config);
  for (Tuple& t : tuples) t.set_event_time(0);
  SpearTopologyBuilder b;
  b.Source(std::make_shared<VectorSpout>(std::move(tuples)), Seconds(15))
      .Time(DecGenerator::kTimeField)
      .SlidingWindowOf(Seconds(45), Seconds(15))
      .Mean(NumericField(DecGenerator::kSizeField))
      .SetBudget(Budget::Tuples(500))
      .Error(0.10, 0.95);
  const RunReport report = MustRun(b);
  EXPECT_GT(report.output.size(), 3u);
}

TEST(EndToEndTest, BuilderValidation) {
  SpearTopologyBuilder no_source;
  no_source.TumblingWindowOf(10).Mean(NumericField(0));
  EXPECT_TRUE(no_source.Build().status().IsInvalid());

  SpearTopologyBuilder no_window;
  no_window.Source(DecSpout(Seconds(1))).Mean(NumericField(0));
  EXPECT_TRUE(no_window.Build().status().IsInvalid());

  SpearTopologyBuilder no_agg;
  no_agg.Source(DecSpout(Seconds(1))).TumblingWindowOf(10);
  EXPECT_TRUE(no_agg.Build().status().IsInvalid());

  SpearTopologyBuilder holistic_inc;
  holistic_inc.Source(DecSpout(Seconds(1)))
      .TumblingWindowOf(10)
      .Median(NumericField(1))
      .Engine(ExecutionEngine::kIncremental);
  EXPECT_TRUE(holistic_inc.Build().status().IsInvalid());

  SpearTopologyBuilder scalar_countmin;
  scalar_countmin.Source(DecSpout(Seconds(1)))
      .TumblingWindowOf(10)
      .Mean(NumericField(1))
      .Engine(ExecutionEngine::kCountMin);
  EXPECT_TRUE(scalar_countmin.Build().status().IsInvalid());
}

TEST(EndToEndTest, OutOfOrderStreamWithLatenessAllowance) {
  // Swap adjacent tuples (bounded out-of-orderness < 2 s) and declare
  // that lateness to the source: windows must match the in-order run.
  DecGenerator::Config config;
  config.duration = Minutes(2);
  auto ordered = DecGenerator::Generate(config);
  std::vector<Tuple> jittered = ordered;
  for (std::size_t i = 0; i + 1 < jittered.size(); i += 2) {
    if (jittered[i + 1].event_time() - jittered[i].event_time() <
        Seconds(2)) {
      std::swap(jittered[i], jittered[i + 1]);
    }
  }

  auto run = [&](std::vector<Tuple> tuples) {
    SpearTopologyBuilder b;
    b.Source(std::make_shared<VectorSpout>(std::move(tuples)), Seconds(15),
             /*max_lateness=*/Seconds(2))
        .SlidingWindowOf(Seconds(45), Seconds(15))
        .Mean(NumericField(DecGenerator::kSizeField))
        .SetBudget(Budget::Tuples(1000))
        .Error(0.10, 0.95);
    return DecodeScalar(MustRun(b).output);
  };
  const auto in_order = run(ordered);
  const auto out_of_order = run(jittered);
  ASSERT_FALSE(in_order.empty());
  ASSERT_EQ(in_order.size(), out_of_order.size());
  for (const auto& [end, value_approx] : in_order) {
    ASSERT_TRUE(out_of_order.count(end));
    EXPECT_NEAR(out_of_order.at(end).first, value_approx.first, 1e-9)
        << "window " << end;
  }
}

TEST(EndToEndTest, GroupedPercentilePerRoute) {
  // The grouped variant of the paper's Fig. 1 CQ: p95 fare per route.
  DebsGenerator::Config config;
  config.duration = Minutes(90);
  config.active_routes = 40;  // dense routes so sampling has depth
  config.tuples_per_second = 30.0;
  const auto tuples = DebsGenerator::Generate(config);

  SpearTopologyBuilder storm;
  storm.Source(std::make_shared<VectorSpout>(tuples), Minutes(15))
      .SlidingWindowOf(Minutes(30), Minutes(15))
      .Percentile(NumericField(DebsGenerator::kFareField), 0.95)
      .GroupBy(KeyField(DebsGenerator::kRouteField))
      .Engine(ExecutionEngine::kExact);
  const auto exact = DecodeGrouped(MustRun(storm).output);

  SpearTopologyBuilder spear;
  spear.Source(std::make_shared<VectorSpout>(tuples), Minutes(15))
      .SlidingWindowOf(Minutes(30), Minutes(15))
      .Percentile(NumericField(DebsGenerator::kFareField), 0.95)
      .GroupBy(KeyField(DebsGenerator::kRouteField))
      .SetBudget(Budget::Tuples(20000))
      .Error(0.10, 0.95);
  const auto approx = DecodeGrouped(MustRun(spear).output);

  ASSERT_FALSE(exact.empty());
  ASSERT_EQ(exact.size(), approx.size());
  // Route-determined fares: the p95 per route is tight, so even sampled
  // estimates must land near the exact value.
  std::size_t far_off = 0;
  for (const auto& [key, value] : approx) {
    if (RelativeError(value, exact.at(key)) > 0.15) ++far_off;
  }
  EXPECT_LE(far_off, exact.size() / 10);
}

TEST(EndToEndTest, ByteDenominatedBudgetWorksEndToEnd) {
  SpearTopologyBuilder b;
  b.Source(DecSpout(Minutes(2)), Seconds(15))
      .SlidingWindowOf(Seconds(45), Seconds(15))
      .Median(NumericField(DecGenerator::kSizeField))
      .SetBudget(Budget::Bytes(8 * 1024))  // 1022 sample elements
      .Error(0.10, 0.95);
  const RunReport report = MustRun(b);
  EXPECT_GT(report.output.size(), 3u);
  // Every window expedited: 1022 elements clear the ~96-element bound.
  for (const Tuple& t : report.output) {
    EXPECT_EQ(t.field(ResultTupleLayout::kScalarApprox).AsInt64(), 1);
  }
}

TEST(EndToEndTest, KitchenSinkStress) {
  // Everything at once: grouped CQ, 8 parallel workers, spill-constrained
  // buffers, bounded out-of-orderness, adaptive budget. The run must
  // complete, produce every group, and keep results near the exact run.
  GcmGenerator::Config config;
  config.duration = Minutes(10);
  auto tuples = GcmGenerator::Generate(config);
  // Bounded shuffle: swap adjacent pairs.
  for (std::size_t i = 0; i + 1 < tuples.size(); i += 2) {
    std::swap(tuples[i], tuples[i + 1]);
  }

  SecondaryStorage storage;
  SpearTopologyBuilder storm;
  storm
      .Source(std::make_shared<VectorSpout>(tuples), Minutes(1),
              /*max_lateness=*/Seconds(5))
      .SlidingWindowOf(Minutes(2), Minutes(1))
      .Mean(NumericField(GcmGenerator::kCpuField))
      .GroupBy(KeyField(GcmGenerator::kClassField))
      .Parallelism(8)
      .Engine(ExecutionEngine::kExact);
  const auto exact = DecodeGrouped(MustRun(storm).output);

  SpearTopologyBuilder spear;
  spear
      .Source(std::make_shared<VectorSpout>(tuples), Minutes(1),
              /*max_lateness=*/Seconds(5))
      .SlidingWindowOf(Minutes(2), Minutes(1))
      .Mean(NumericField(GcmGenerator::kCpuField))
      .GroupBy(KeyField(GcmGenerator::kClassField))
      .SetBudget(Budget::Tuples(2000))
      .Error(0.10, 0.95)
      .KnownGroups(8)
      .AdaptiveBudget()
      .Parallelism(8)
      .SpillOver(/*memory_capacity=*/4000, &storage);
  const auto approx = DecodeGrouped(MustRun(spear).output);

  ASSERT_FALSE(exact.empty());
  ASSERT_EQ(exact.size(), approx.size());
  std::size_t violations = 0;
  for (const auto& [key, value] : approx) {
    ASSERT_TRUE(exact.count(key)) << key.second;
    if (RelativeError(value, exact.at(key)) > 0.10) ++violations;
  }
  EXPECT_LE(violations, exact.size() / 5);
  // Everything expired by end of stream: no leaked spill runs.
  EXPECT_EQ(storage.TotalTuples(), 0u);
}

TEST(EndToEndTest, SlidingCountWindowsAcrossEngines) {
  auto build = [&](ExecutionEngine engine) {
    SpearTopologyBuilder b;
    b.Source(DecSpout(Minutes(1)))
        .SlidingCountWindowOf(5000, 2500)
        .Median(NumericField(DecGenerator::kSizeField))
        .SetBudget(Budget::Tuples(150))
        .Error(0.10, 0.95)
        .Engine(engine);
    return MustRun(b).output;
  };
  const auto exact = build(ExecutionEngine::kExact);
  const auto spear = build(ExecutionEngine::kSpear);
  ASSERT_FALSE(exact.empty());
  EXPECT_EQ(exact.size(), spear.size());
}

// The Mean sibling: every engine that can run a Mean (Inc-Storm cannot run
// a Median) assigns the same count windows, and the exact ones agree.
TEST(EndToEndTest, SlidingCountWindowMeansAcrossEngines) {
  auto build = [&](ExecutionEngine engine) {
    SpearTopologyBuilder b;
    b.Source(DecSpout(Minutes(1)))
        .SlidingCountWindowOf(5000, 2500)
        .Mean(NumericField(DecGenerator::kSizeField))
        .SetBudget(Budget::Tuples(150))
        .Error(0.10, 0.95)
        .Engine(engine);
    std::vector<std::pair<std::pair<std::int64_t, std::int64_t>, double>>
        windows;
    for (const Tuple& t : MustRun(b).output) {
      windows.push_back({{t.field(ResultTupleLayout::kStart).AsInt64(),
                          t.field(ResultTupleLayout::kEnd).AsInt64()},
                         t.field(ResultTupleLayout::kScalarValue).AsDouble()});
    }
    std::sort(windows.begin(), windows.end());
    return windows;
  };
  const auto exact = build(ExecutionEngine::kExact);
  ASSERT_FALSE(exact.empty());
  for (const ExecutionEngine engine :
       {ExecutionEngine::kExactMulti, ExecutionEngine::kIncremental,
        ExecutionEngine::kSpear}) {
    const auto other = build(engine);
    ASSERT_EQ(other.size(), exact.size()) << ExecutionEngineName(engine);
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(other[i].first, exact[i].first)
          << ExecutionEngineName(engine) << " window " << i;
      if (engine != ExecutionEngine::kSpear) {
        EXPECT_DOUBLE_EQ(other[i].second, exact[i].second)
            << ExecutionEngineName(engine) << " window " << i;
      }
    }
  }
}

TEST(EndToEndTest, GkEngineValidation) {
  SpearTopologyBuilder grouped_gk;
  grouped_gk.Source(DecSpout(Seconds(1)))
      .TumblingWindowOf(10)
      .Median(NumericField(1))
      .GroupBy(KeyField(0))
      .Engine(ExecutionEngine::kGkQuantile);
  EXPECT_TRUE(grouped_gk.Build().status().IsInvalid());

  SpearTopologyBuilder mean_gk;
  mean_gk.Source(DecSpout(Seconds(1)))
      .TumblingWindowOf(10)
      .Mean(NumericField(1))
      .Engine(ExecutionEngine::kGkQuantile);
  EXPECT_TRUE(mean_gk.Build().status().IsInvalid());
}

TEST(EndToEndTest, GkEngineMatchesRankSpec) {
  SpearTopologyBuilder b;
  b.Source(DecSpout(Minutes(2)), Seconds(15))
      .SlidingWindowOf(Seconds(45), Seconds(15))
      .Median(NumericField(DecGenerator::kSizeField))
      .Error(0.10, 0.95)
      .Engine(ExecutionEngine::kGkQuantile);
  const auto gk = DecodeScalar(MustRun(b).output);
  ASSERT_FALSE(gk.empty());
  for (const auto& [end, value_approx] : gk) {
    EXPECT_TRUE(value_approx.second);  // always approximate
    // DEC medians sit in the mid/MTU band; sanity-bound the values.
    EXPECT_GE(value_approx.first, 40.0);
    EXPECT_LE(value_approx.first, 1520.0);
  }
}

TEST(EndToEndTest, EngineNames) {
  EXPECT_STREQ(ExecutionEngineName(ExecutionEngine::kSpear), "SPEAr");
  EXPECT_STREQ(ExecutionEngineName(ExecutionEngine::kExact), "Storm");
  EXPECT_STREQ(ExecutionEngineName(ExecutionEngine::kIncremental),
               "Inc-Storm");
  EXPECT_STREQ(ExecutionEngineName(ExecutionEngine::kCountMin), "CountMin");
}

}  // namespace
}  // namespace spear
