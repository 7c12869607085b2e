/// \file recovery_demo.cpp
/// Crash recovery with accuracy accounting: the quickstart stream run
/// with worker crashes injected mid-stream. Checkpointing snapshots each
/// stateful worker's O(b) budget state at watermark boundaries; when a
/// worker dies it is restarted from its latest snapshot, the gap is
/// replayed from the log, and any tuples the bounded log could not hold
/// are charged to the recovered windows' error estimates instead of
/// silently dropped. The run completes, every window is answered exactly
/// once, and the report says how many restarts it took.
///
/// For contrast, the same plan is run once more with checkpointing off:
/// the first crash kills the run.

#include <cstdio>
#include <memory>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "core/spear_topology_builder.h"
#include "data/datasets.h"
#include "runtime/executor.h"
#include "runtime/spouts.h"

using namespace spear;  // NOLINT

namespace {

/// The shared CQ: mean fare over tumbling 5-minute windows, two workers.
void ConfigureQuery(SpearTopologyBuilder& cq,
                    const std::shared_ptr<VectorSpout>& rides) {
  cq.Source(rides, /*watermark_interval=*/Minutes(1))
      .Time(DebsGenerator::kTimeField)
      .TumblingWindowOf(Minutes(5))
      .Mean(NumericField(DebsGenerator::kFareField))
      .SetBudget(Budget::Tuples(1000))
      .Error(0.10, 0.95)
      .Parallelism(2);
}

FaultInjector MakeCrashInjector() {
  FaultPlan plan;
  plan.seed = 2026;
  FaultRule crash;
  crash.site = FaultSite::kWorkerCrash;
  crash.every_nth = 40000;  // a few crashes across the stream
  crash.max_fires = 4;
  plan.Add(crash);
  return FaultInjector(plan);
}

}  // namespace

int main() {
  DebsGenerator::Config data;
  data.duration = Hours(1);
  data.tuples_per_second = 50.0;
  const std::vector<Tuple> ride_data = DebsGenerator::Generate(data);
  std::printf("replaying %zu rides with worker crashes injected...\n",
              ride_data.size());

  // --- with checkpointing: crashes are survivable -----------------------
  auto rides = std::make_shared<VectorSpout>(ride_data);
  FaultInjector injector = MakeCrashInjector();
  CheckpointConfig ckpt;
  ckpt.interval = Minutes(5);  // snapshot every 5 min of watermark progress

  SpearTopologyBuilder cq;
  ConfigureQuery(cq, rides);
  cq.InjectFaults(&injector).Checkpoint(ckpt);
  auto topology = cq.Build();
  if (!topology.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 topology.status().ToString().c_str());
    return 1;
  }
  auto report = Executor(std::move(*topology)).Run();
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("\nrun completed: %zu window results\n", report->output.size());
  std::printf("  crashes injected:  %llu\n",
              static_cast<unsigned long long>(
                  injector.fired(FaultSite::kWorkerCrash)));
  std::printf("  worker restarts:   %llu\n",
              static_cast<unsigned long long>(report->faults.worker_restarts));
  std::printf("  snapshots taken:   %llu\n",
              static_cast<unsigned long long>(report->faults.snapshots));

  int recovered = 0;
  for (const Tuple& t : report->output) {
    if (t.field(ResultTupleLayout::kScalarRecovered).AsInt64() != 1) continue;
    ++recovered;
    std::printf(
        "  recovered window [%lld, %lld): mean ≈ $%.2f (eps-hat %.3f%s)\n",
        static_cast<long long>(
            t.field(ResultTupleLayout::kStart).AsInt64() / 60000),
        static_cast<long long>(
            t.field(ResultTupleLayout::kEnd).AsInt64() / 60000),
        t.field(ResultTupleLayout::kScalarValue).AsDouble(),
        t.field(ResultTupleLayout::kScalarError).AsDouble(),
        t.field(ResultTupleLayout::kScalarDegraded).AsInt64() == 1
            ? ", degraded"
            : "");
  }
  if (recovered == 0) {
    std::printf("  (no recovered window reached the output)\n");
  }

  // --- without checkpointing: the first crash is fatal ------------------
  auto fresh_rides = std::make_shared<VectorSpout>(ride_data);
  FaultInjector fatal_injector = MakeCrashInjector();
  SpearTopologyBuilder unprotected;
  ConfigureQuery(unprotected, fresh_rides);
  unprotected.InjectFaults(&fatal_injector);
  auto unprotected_topology = unprotected.Build();
  if (!unprotected_topology.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 unprotected_topology.status().ToString().c_str());
    return 1;
  }
  auto unprotected_report = Executor(std::move(*unprotected_topology)).Run();
  if (unprotected_report.ok()) {
    std::fprintf(stderr,
                 "unexpected: crash run without checkpointing succeeded\n");
    return 1;
  }
  std::printf("\nsame plan without checkpointing: %s\n",
              unprotected_report.status().ToString().c_str());
  return 0;
}
