#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/spear_window_manager.h"
#include "storage/secondary_storage.h"
#include "tuple/field_extractor.h"

namespace spear {
namespace {

Tuple NumTuple(std::int64_t t, double v) {
  return Tuple(t, std::vector<Value>{Value(v)});
}

SpearOperatorConfig MeanConfig() {
  SpearOperatorConfig config;
  config.window = WindowSpec::TumblingTime(100);
  config.aggregate = AggregateSpec::Mean();
  config.budget = Budget::Tuples(32);
  config.accuracy = AccuracySpec{0.20, 0.95};
  return config;
}

// Snapshot mid-window, restore into a fresh manager, feed both the same
// remaining tuples: the recovered manager must produce the same value
// (incremental accumulators survive the round trip exactly) and flag the
// window as recovered.
TEST(SpearSnapshotTest, RoundTripContinuesExactlyForIncrementalMean) {
  const SpearOperatorConfig config = MeanConfig();
  SpearWindowManager primary(config, NumericField(0));
  for (int i = 0; i < 50; ++i) {
    primary.OnTuple(i, NumTuple(i, static_cast<double>((i * 37) % 101)));
  }
  Result<std::string> payload = primary.SnapshotState();
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();

  SpearWindowManager restored(config, NumericField(0));
  ASSERT_TRUE(restored.RestoreState(*payload).ok());

  for (int i = 50; i < 100; ++i) {
    const Tuple t = NumTuple(i, static_cast<double>((i * 37) % 101));
    primary.OnTuple(i, t);
    restored.OnTuple(i, t);
  }
  auto primary_results = primary.OnWatermark(200);
  auto restored_results = restored.OnWatermark(200);
  ASSERT_TRUE(primary_results.ok());
  ASSERT_TRUE(restored_results.ok());
  ASSERT_EQ(primary_results->size(), 1u);
  ASSERT_EQ(restored_results->size(), 1u);

  const WindowResult& clean = (*primary_results)[0];
  const WindowResult& recovered = (*restored_results)[0];
  EXPECT_FALSE(clean.recovered);
  EXPECT_TRUE(recovered.recovered);
  // No replay gap: full state, exact same mean.
  EXPECT_DOUBLE_EQ(recovered.scalar, clean.scalar);
  EXPECT_EQ(recovered.window_size, clean.window_size);
  EXPECT_EQ(restored.decision_stats().windows_recovered, 1u);
  EXPECT_EQ(primary.decision_stats().windows_recovered, 0u);
}

// Grouped state survives the round trip: the restored manager still knows
// every group and answers each one. A recovered grouped window cannot be
// exact (the raw buffer did not survive), so it is a flagged estimate from
// the restored stratified reservoirs — group *membership* is preserved
// bit for bit, group *values* are sample estimates in the data's range.
TEST(SpearSnapshotTest, RoundTripPreservesGroupedState) {
  SpearOperatorConfig config = MeanConfig();
  config.known_num_groups = 4;
  auto key = [](const Tuple& t) {
    return std::to_string(t.event_time() % 4);
  };

  SpearWindowManager primary(config, NumericField(0), key);
  for (int i = 0; i < 80; ++i) {
    primary.OnTuple(i, NumTuple(i, static_cast<double>(i % 13)));
  }
  Result<std::string> payload = primary.SnapshotState();
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();

  SpearWindowManager restored(config, NumericField(0), key);
  ASSERT_TRUE(restored.RestoreState(*payload).ok());
  for (int i = 80; i < 100; ++i) {
    const Tuple t = NumTuple(i, static_cast<double>(i % 13));
    primary.OnTuple(i, t);
    restored.OnTuple(i, t);
  }
  auto primary_results = primary.OnWatermark(200);
  auto restored_results = restored.OnWatermark(200);
  ASSERT_TRUE(primary_results.ok());
  ASSERT_TRUE(restored_results.ok()) << restored_results.status().ToString();
  ASSERT_EQ(restored_results->size(), 1u);
  const WindowResult& clean = (*primary_results)[0];
  const WindowResult& recovered = (*restored_results)[0];
  ASSERT_TRUE(recovered.is_grouped);
  ASSERT_EQ(recovered.groups.size(), clean.groups.size());
  for (std::size_t g = 0; g < clean.groups.size(); ++g) {
    EXPECT_EQ(recovered.groups[g].first, clean.groups[g].first);
    // Values 0..12: any estimate from restored per-group reservoirs lands
    // in-range; a lost or zeroed sampler would not.
    EXPECT_GE(recovered.groups[g].second, 0.0);
    EXPECT_LE(recovered.groups[g].second, 12.0);
  }
  EXPECT_TRUE(recovered.recovered);
  EXPECT_TRUE(recovered.approximate);
  EXPECT_FALSE(clean.recovered);
  EXPECT_EQ(restored.decision_stats().windows_recovered, 1u);
}

// The snapshot is O(b) in the budget, not O(|S_w|) in the window: feeding
// 50x more tuples must not grow the payload materially.
TEST(SpearSnapshotTest, SnapshotSizeIsBudgetBoundNotWindowBound) {
  SpearOperatorConfig config = MeanConfig();
  config.window = WindowSpec::TumblingTime(100000);
  config.aggregate = AggregateSpec::Median();  // holistic: keeps a sample

  SpearWindowManager small(config, NumericField(0));
  for (int i = 0; i < 200; ++i) small.OnTuple(i, NumTuple(i, i));
  SpearWindowManager large(config, NumericField(0));
  for (int i = 0; i < 10000; ++i) large.OnTuple(i, NumTuple(i, i));

  Result<std::string> small_payload = small.SnapshotState();
  Result<std::string> large_payload = large.SnapshotState();
  ASSERT_TRUE(small_payload.ok());
  ASSERT_TRUE(large_payload.ok());
  // Identical open-window structure and a full reservoir on both sides:
  // the serialized states are the same size despite the 50x window.
  EXPECT_EQ(large_payload->size(), small_payload->size());
}

// Replay-gap loss inflates ε̂_w AF-Stream style: the recovered window is
// flagged and its error estimate charges lost/(count+lost).
TEST(SpearSnapshotTest, NoteRecoveryLossInflatesErrorEstimate) {
  const SpearOperatorConfig config = MeanConfig();
  SpearWindowManager manager(config, NumericField(0));
  for (int i = 0; i < 60; ++i) {
    manager.OnTuple(i, NumTuple(i, static_cast<double>(i % 7)));
  }
  manager.NoteRecoveryLoss(40);
  auto results = manager.OnWatermark(200);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  const WindowResult& result = (*results)[0];
  EXPECT_TRUE(result.recovered);
  EXPECT_TRUE(result.approximate);  // a lossy window can never be exact
  EXPECT_EQ(result.window_size, 100u);  // 60 seen + 40 lost
  // ε̂ includes the loss ratio 40/100; with ε = 0.20 the window cannot
  // meet the spec, so it is emitted degraded.
  EXPECT_GE(result.estimated_error, 0.40);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(manager.decision_stats().windows_recovered, 1u);
}

// A loss reported while no window is open is charged to the next window
// (the tuples belonged to the stream, not to nothing).
TEST(SpearSnapshotTest, PendingLossChargesNextWindow) {
  const SpearOperatorConfig config = MeanConfig();
  SpearWindowManager manager(config, NumericField(0));
  manager.NoteRecoveryLoss(10);
  for (int i = 0; i < 90; ++i) {
    manager.OnTuple(i, NumTuple(i, 1.0));
  }
  auto results = manager.OnWatermark(200);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_TRUE((*results)[0].recovered);
  EXPECT_EQ((*results)[0].window_size, 100u);
}

// Small losses keep the accuracy guarantee: ε̂ + ρ <= ε still expedites,
// with the inflation visible in the reported estimate.
TEST(SpearSnapshotTest, SmallLossStillMeetsAccuracySpec) {
  SpearOperatorConfig config = MeanConfig();
  config.accuracy = AccuracySpec{0.50, 0.95};
  SpearWindowManager manager(config, NumericField(0));
  for (int i = 0; i < 99; ++i) {
    manager.OnTuple(i, NumTuple(i, static_cast<double>(i % 5) + 10.0));
  }
  manager.NoteRecoveryLoss(1);  // ρ = 0.01
  auto results = manager.OnWatermark(200);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  const WindowResult& result = (*results)[0];
  EXPECT_TRUE(result.recovered);
  EXPECT_FALSE(result.degraded);
  EXPECT_GE(result.estimated_error, 0.01);
  EXPECT_LE(result.estimated_error, 0.50);
}

std::string ToHex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 0xf];
  }
  return hex;
}

constexpr char kLossFieldsPayloadHex[] =
    "0400000000000000008000000000000000000102000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000002c0000000000000000000000000000000000000000"
    "0000000300000000000000000000000000000000000000000000000200000000"
    "0000000000000000000000200000000000000028000000000000000200000000"
    "0000000300000000000000010028000000000000003433333333f32540999999"
    "9999f93a40cb7a14ae4761f03f298716d94e003b400000000000707b40000000"
    "0000002440000000000000284001200000000000000028000000000000000300"
    "0000000000002000000000000000000000000000244000000000000028400000"
    "0000000028400000000000002440000000000000264000000000000028400000"
    "0000000024400000000000002640000000000000284000000000000024400000"
    "0000000026400000000000002440000000000000244000000000000026400000"
    "0000000028400000000000002640000000000000264000000000000028400000"
    "0000000024400000000000002640000000000000284000000000000024400000"
    "0000000028400000000000002840000000000000244000000000000026400000"
    "0000000028400000000000002440000000000000264000000000000028400000"
    "0000000024400000000000002640000000000000000000640000000000000020"
    "0000000000000004000000000000000200000000000000000000000000000001"
    "010400000000000000000000000000f83f000000000000144000000000000000"
    "0000000000008024400000000000001840000000000000000000000000000008"
    "4001200000000000000004000000000000000000000000000000040000000000"
    "00000000000000000000000000000000f03f0000000000000040000000000000"
    "0840000000000000000000";

// Every per-window loss field survives SnapshotState/RestoreState: window
// [0,100) carries recovery loss and admission shedding, window [100,200)
// was truncated by an abnormal stream close (and, being open at the time,
// also carries the recovery loss). The payload bytes pin the v4 layout —
// per window: lost, shed, anomalous, truncated.
TEST(SpearSnapshotTest, RoundTripKeepsEveryLossField) {
  const SpearOperatorConfig config = MeanConfig();
  SpearWindowManager primary(config, NumericField(0));
  for (int i = 100; i < 104; ++i) {
    primary.OnTuple(i, NumTuple(i, static_cast<double>(i % 5)));
  }
  primary.NoteStreamTruncation();
  for (int i = 0; i < 40; ++i) {
    primary.OnTuple(i, NumTuple(i, static_cast<double>(10 + i % 3)));
  }
  primary.NoteRecoveryLoss(2);
  for (int i = 40; i < 43; ++i) primary.OnTupleShed(i);

  Result<std::string> payload = primary.SnapshotState();
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(ToHex(*payload), kLossFieldsPayloadHex);

  SpearWindowManager restored(config, NumericField(0));
  ASSERT_TRUE(restored.RestoreState(*payload).ok());
  auto results = restored.OnWatermark(300);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 2u);

  const WindowResult& lossy = (*results)[0];
  EXPECT_EQ(lossy.window_size, 45u);  // 40 admitted + 2 lost + 3 shed
  // The budget sample still meets ε = 0.20 with the (2+3)/45 inflation.
  EXPECT_FALSE(lossy.degraded);
  EXPECT_TRUE(lossy.recovered);
  EXPECT_DOUBLE_EQ(lossy.estimated_error, 0.12419368700595353);

  const WindowResult& truncated = (*results)[1];
  EXPECT_EQ(truncated.window_size, 6u);  // 4 admitted + 2 lost
  EXPECT_TRUE(truncated.degraded);
  EXPECT_TRUE(truncated.recovered);
  // A full sample (ε̂ = 0) plus the 2/6 loss inflation.
  EXPECT_DOUBLE_EQ(truncated.estimated_error, 2.0 / 6.0);
}

TEST(SpearSnapshotTest, RestoreRejectsGarbageAndWrongMode) {
  const SpearOperatorConfig config = MeanConfig();
  SpearWindowManager manager(config, NumericField(0));
  EXPECT_FALSE(manager.RestoreState("").ok());
  EXPECT_FALSE(manager.RestoreState("not a snapshot payload").ok());

  // A scalar manager must refuse a grouped manager's payload.
  SpearOperatorConfig grouped_config = MeanConfig();
  SpearWindowManager grouped(grouped_config, NumericField(0),
                             [](const Tuple&) { return std::string("g"); });
  grouped.OnTuple(0, NumTuple(0, 1.0));
  Result<std::string> grouped_payload = grouped.SnapshotState();
  ASSERT_TRUE(grouped_payload.ok());
  EXPECT_FALSE(manager.RestoreState(*grouped_payload).ok());
}

// Restore re-adopts the spill manifest: pre-crash spilled runs are not
// duplicated when replayed tuples spill again under the same key.
TEST(SpearSnapshotTest, RestoreReadoptsSpillManifestWithoutDuplication) {
  SecondaryStorage storage;
  SpearOperatorConfig config = MeanConfig();
  config.aggregate = AggregateSpec::Median();  // holistic: buffer matters
  config.accuracy = AccuracySpec{0.0001, 0.95};  // wants the exact path
  config.buffer_memory_capacity = 16;

  SpearWindowManager primary(config, NumericField(0), nullptr, &storage,
                             "snap-test");
  for (int i = 0; i < 64; ++i) primary.OnTuple(i, NumTuple(i, i));
  const std::size_t spilled_before = storage.TotalTuples();
  ASSERT_GT(spilled_before, 0u);

  Result<std::string> payload = primary.SnapshotState();
  ASSERT_TRUE(payload.ok());
  SpearWindowManager restored(config, NumericField(0), nullptr, &storage,
                              "snap-test");
  ASSERT_TRUE(restored.RestoreState(*payload).ok());
  // Replay the same tuples: restore erased the worker's spill run, so the
  // ones that spill again rebuild it instead of appending to it.
  for (int i = 0; i < 64; ++i) restored.OnTuple(i, NumTuple(i, i));
  EXPECT_EQ(storage.TotalTuples(), spilled_before);

  auto results = restored.OnWatermark(200);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  // The recovered window cannot prove the exact fallback is complete, so
  // it is emitted as a flagged approximation.
  EXPECT_TRUE((*results)[0].recovered);
  EXPECT_TRUE((*results)[0].approximate);
}

// A worker crashes after a window closed (unspilling the run) past the
// last snapshot, with fresh spills in S. The restored worker must not
// adopt what its predecessor left in the run: the replayed window, which
// opened after the snapshot and so is processed exactly, must match a
// clean run tuple for tuple.
TEST(SpearSnapshotTest, RestoreAfterUnspillDoesNotDoubleCountSpills) {
  SpearOperatorConfig config = MeanConfig();
  config.aggregate = AggregateSpec::Median();
  config.accuracy = AccuracySpec{0.0001, 0.95};  // every window exact
  config.buffer_memory_capacity = 16;
  const auto feed = [](SpearWindowManager* mgr, int from, int to) {
    for (int i = from; i < to; ++i) {
      mgr->OnTuple(i, NumTuple(i, static_cast<double>(i % 100)));
    }
  };

  SecondaryStorage clean_storage;
  SpearWindowManager clean(config, NumericField(0), nullptr, &clean_storage,
                           "w");
  feed(&clean, 0, 200);
  ASSERT_TRUE(clean.OnWatermark(200).ok());
  feed(&clean, 200, 300);
  auto want = clean.OnWatermark(300);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want->size(), 1u);

  SecondaryStorage storage;
  SpearWindowManager crashed(config, NumericField(0), nullptr, &storage, "w");
  feed(&crashed, 0, 100);
  ASSERT_TRUE(crashed.OnWatermark(100).ok());
  Result<std::string> payload = crashed.SnapshotState();
  ASSERT_TRUE(payload.ok());
  feed(&crashed, 100, 200);
  ASSERT_TRUE(crashed.OnWatermark(200).ok());  // unspills the run
  feed(&crashed, 200, 250);                    // spills again, then crash
  ASSERT_GT(storage.TotalTuples(), 0u);

  SpearWindowManager restored(config, NumericField(0), nullptr, &storage,
                              "w");
  ASSERT_TRUE(restored.RestoreState(*payload).ok());
  feed(&restored, 100, 200);  // the executor replays from the snapshot
  ASSERT_TRUE(restored.OnWatermark(200).ok());
  feed(&restored, 200, 300);
  auto got = restored.OnWatermark(300);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), 1u);

  const WindowResult& w = (*got)[0];
  const WindowResult& c = (*want)[0];
  EXPECT_EQ(w.bounds, c.bounds);
  EXPECT_FALSE(w.approximate);
  EXPECT_FALSE(w.recovered);
  EXPECT_EQ(w.window_size, 100u);
  EXPECT_EQ(w.tuples_processed, c.tuples_processed);
  EXPECT_DOUBLE_EQ(w.scalar, c.scalar);
}

}  // namespace
}  // namespace spear
