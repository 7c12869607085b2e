#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "core/spear_config.h"
#include "runtime/topology.h"
#include "storage/secondary_storage.h"
#include "tuple/tuple.h"

/// \file workloads.h
/// The benchmark's workloads: which seeded stream each one generates, the
/// continuous query it compiles through SpearTopologyBuilder, and the
/// offered rate of its paced replay. README.md says why each one exists.

namespace spear::perfbench {

enum class Dataset { kDec, kDebs };

struct Workload {
  std::string name;
  Dataset dataset = Dataset::kDec;
  /// The generator's own default seed (used when no --seed is given).
  std::uint64_t default_seed = 0;
  DurationMs duration = 0;
  DurationMs range = 0;
  /// Equal to `range` for tumbling windows.
  DurationMs slide = 0;
  DurationMs watermark_interval = 0;
  /// Field positions of the aggregated value and of the group key.
  std::size_t value_field = 0;
  std::size_t key_field = 0;
  bool grouped = false;
  /// Scalar non-holistic query with the incremental path on: its exact
  /// (approximate=0) results are answered from the budget state, so they
  /// count as expedited.
  bool incremental_path = false;
  std::uint64_t budget_tuples = 0;
  double epsilon = 0.10;
  double confidence = 0.95;
  int parallelism = 1;
  /// Raw-buffer capacity in tuples before spilling to S (0 = no spill).
  std::size_t spill_capacity = 0;
  bool checkpoint = false;
  /// `.Metrics()` + `.Trace()` on.
  bool observability = false;
  /// Offered rate of the paced replay, tuples per wall-clock second.
  double paced_rate_tps = 0.0;
};

/// Null when `name` names no workload.
const Workload* FindWorkload(const std::string& name);

/// Materializes the workload's input stream (time-ordered).
std::vector<Tuple> GenerateStream(const Workload& workload,
                                  std::uint64_t seed);

/// Compiles the workload's query over `spout`. `storage` receives spills
/// when the workload spills; `decisions` collects per-worker DecisionStats.
Result<Topology> BuildTopology(const Workload& workload,
                               std::shared_ptr<Spout> spout,
                               SecondaryStorage* storage,
                               DecisionStatsCollector* decisions);

}  // namespace spear::perfbench
