#include "workloads.h"

#include "core/spear_topology_builder.h"
#include "data/datasets.h"
#include "tuple/field_extractor.h"

namespace spear::perfbench {

namespace {

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  // Fig. 8a: every window expedites through the incremental path, so
  // Alg. 1's per-tuple budget update and the channel set the pace.
  Workload sliding;
  sliding.name = "dec_mean_sliding";
  sliding.dataset = Dataset::kDec;
  sliding.default_seed = DecGenerator::Config{}.seed;
  sliding.duration = Minutes(30);
  sliding.range = Seconds(45);
  sliding.slide = Seconds(15);
  sliding.watermark_interval = Seconds(15);
  sliding.value_field = DecGenerator::kSizeField;
  sliding.incremental_path = true;
  sliding.budget_tuples = 1000;
  sliding.paced_rate_tps = 300'000;
  all.push_back(sliding);

  // Every window fails Alg. 2's test (b=100 gives an error estimate near
  // 0.17 against eps=0.10) and takes the exact fallback, which reads the
  // spilled two thirds of the window back from S; checkpointing on. A
  // budget near the test's threshold would make the fallback share, and
  // with it every metric, depend on the seed. 15 s windows give the paced
  // replay 120 windows from the same 1.88 M tuples.
  Workload fallback;
  fallback.name = "dec_mean_fallback_spill";
  fallback.dataset = Dataset::kDec;
  fallback.default_seed = DecGenerator::Config{}.seed;
  fallback.duration = Minutes(30);
  fallback.range = Seconds(15);
  fallback.slide = Seconds(15);
  fallback.watermark_interval = Seconds(15);
  fallback.value_field = DecGenerator::kSizeField;
  fallback.budget_tuples = 100;
  fallback.spill_capacity = 5'000;
  fallback.checkpoint = true;
  fallback.paced_rate_tps = 200'000;
  all.push_back(fallback);

  // Hash fan-out over sparse string keys, the grouped-unknown scan path,
  // heavy result emission, observability on.
  Workload debs;
  debs.name = "debs_routes_p2";
  debs.dataset = Dataset::kDebs;
  debs.default_seed = DebsGenerator::Config{}.seed;
  debs.duration = Hours(30);
  debs.range = Minutes(30);
  debs.slide = Minutes(15);
  debs.watermark_interval = Minutes(15);
  debs.value_field = DebsGenerator::kFareField;
  debs.key_field = DebsGenerator::kRouteField;
  debs.grouped = true;
  debs.budget_tuples = 3000;
  debs.parallelism = 2;
  debs.observability = true;
  debs.paced_rate_tps = 80'000;
  all.push_back(debs);

  return all;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  static const std::vector<Workload> workloads = MakeWorkloads();
  for (const Workload& w : workloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<Tuple> GenerateStream(const Workload& workload,
                                  std::uint64_t seed) {
  if (workload.dataset == Dataset::kDec) {
    DecGenerator::Config config;
    config.seed = seed;
    config.duration = workload.duration;
    return DecGenerator::Generate(config);
  }
  DebsGenerator::Config config;
  config.seed = seed;
  config.duration = workload.duration;
  return DebsGenerator::Generate(config);
}

Result<Topology> BuildTopology(const Workload& workload,
                               std::shared_ptr<Spout> spout,
                               SecondaryStorage* storage,
                               DecisionStatsCollector* decisions) {
  SpearTopologyBuilder b;
  b.Source(std::move(spout), workload.watermark_interval);
  if (workload.slide == workload.range) {
    b.TumblingWindowOf(workload.range);
  } else {
    b.SlidingWindowOf(workload.range, workload.slide);
  }
  b.Mean(NumericField(workload.value_field))
      .SetBudget(Budget::Tuples(workload.budget_tuples))
      .Error(workload.epsilon, workload.confidence)
      .Parallelism(workload.parallelism)
      .CollectDecisions(decisions);
  if (workload.grouped) b.GroupBy(KeyField(workload.key_field));
  if (!workload.incremental_path && !workload.grouped) {
    b.DisableIncrementalOptimization();
  }
  if (workload.spill_capacity > 0) {
    b.SpillOver(workload.spill_capacity, storage);
  }
  if (workload.checkpoint) b.Checkpoint(CheckpointConfig{});
  if (workload.observability) b.Metrics().Trace();
  return b.Build();
}

}  // namespace spear::perfbench
