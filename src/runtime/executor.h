#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/blocking_queue.h"
#include "common/result.h"
#include "obs/observability.h"
#include "runtime/metrics.h"
#include "runtime/topology.h"

/// \file executor.h
/// Multi-threaded topology execution, in four units that share one run
/// state (the channels, the failure state, dead-letter admission and the
/// source's signals):
///
///   - the *source driver* (one thread) drains the spout into stage 0,
///     broadcasts source watermarks, and closes the stream at its end;
///   - a *stage worker* per (stage, task) owns one bolt instance: it starts
///     the bolt, delivers popped batches, aligns watermarks as the minimum
///     across its input channels, snapshots at watermark boundaries, and
///     recovers from a crash;
///   - the *watchdog* (with Topology::runtime.overload.watchdog_idle)
///     closes the stream abnormally in a stalled source's place;
///   - the *supervisor*, Executor::Run, wires the units, joins them and
///     assembles the RunReport.
///
/// Channels are bounded blocking queues (back-pressure), micro-batched per
/// target (RuntimeOptions::batch_max_tuples); control elements (watermark,
/// flush, anomaly) force a flush, so ordering, watermark and back-pressure
/// semantics match batch size 1. End-of-stream is a flush marker that
/// propagates once every input channel has flushed; tuples on one channel
/// stay in order (the paper's experiments enable Storm's in-order delivery).
///
/// Workers are *supervised* (see common/retry_policy.h): bolt exceptions
/// become Statuses, transient Execute failures are retried under the
/// stage's RetryPolicy, data errors quarantine the tuple to the run's
/// dead-letter channel, and only fatal or retry-exhausted errors cancel the
/// run. With checkpointing on they are also *recoverable*: a crashed worker
/// is rebuilt in place from its latest snapshot, its bounded replay log is
/// re-fed, and window results are deduplicated by (window, group) key so
/// downstream sees each at most once; tuples that fell off the log are
/// charged to the recovered windows' ε̂_w (Checkpointable::NoteRecoveryLoss).

namespace spear {

/// \brief A tuple that failed non-transiently and was removed from the
/// stream instead of cancelling the run.
struct DeadLetter {
  std::string stage;
  int task = 0;
  /// Execute attempts spent on the tuple (1 = failed on first delivery).
  int attempts = 1;
  Status error;
  Tuple tuple;
};

/// \brief Everything a finished run reports back.
struct RunReport {
  /// Tuples emitted by the final stage, in collection order.
  std::vector<Tuple> output;
  /// Per-worker telemetry, and the registry its counters live in (what
  /// `.Metrics()` exports).
  MetricsRegistry metrics;
  /// Quarantined tuples, merged across workers in stage/task order.
  /// Capped at RuntimeOptions::max_dead_letters entries; the overflow is
  /// counted in dead_letters_dropped.
  std::vector<DeadLetter> dead_letters;
  /// Aggregated fault counters (injection, retries, degradation).
  FaultStats faults;
  /// Errors recorded after the first one on a failed run (deduplicated);
  /// empty on success. The returned Status carries the first error.
  /// Capped at RuntimeOptions::max_dead_letters entries.
  std::vector<Status> suppressed_errors;
  /// Quarantined tuples not retained in dead_letters because the cap was
  /// reached (they still count in faults.quarantined).
  std::uint64_t dead_letters_dropped = 0;
  /// Aggregated overload-control counters (shedding, deadline aborts,
  /// watchdog interventions, back-pressure stall time).
  OverloadStats overload;
  /// Final observability scrape: exported metric samples and per-window
  /// trace spans. Empty (enabled flags false) unless the topology was
  /// built with `.Metrics()` / `.Trace()`.
  obs::ObservabilityReport observability;
};

/// \brief Runs one topology to completion. Single-use.
class Executor {
 public:
  explicit Executor(Topology topology) : topology_(std::move(topology)) {}

  /// Blocking: returns after the stream is exhausted and every worker has
  /// flushed, or after the first worker error (which cancels the run).
  Result<RunReport> Run();

 private:
  Topology topology_;
};

}  // namespace spear
