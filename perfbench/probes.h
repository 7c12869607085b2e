#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "checkpoint/checkpointable.h"
#include "runtime/operator.h"
#include "runtime/topology.h"
#include "storage/secondary_storage.h"

/// \file probes.h
/// Decorators the benchmark installs around the program's public
/// interfaces: a source probe around Spout::NextBatch (pacing and timing)
/// and a bolt probe around the stateful stage's Bolt callbacks, its
/// Emitter and Checkpointable::SnapshotState. Each probe writes only its
/// own record, from the one thread that calls it; records are read after
/// Executor::Run returns. Spans stay in memory until the run ends.

namespace spear::perfbench {

/// \brief One traced interval. `worker` is -1 for the source thread.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  /// 0 for a root span.
  std::uint64_t parent = 0;
  int worker = 0;
};

/// \brief Source-thread record.
struct SourceRecord {
  /// Wall clock of the first NextBatch call: the paced schedule's origin.
  std::int64_t t0_ns = 0;
  std::int64_t pull_ns = 0;
  /// Source-thread time between NextBatch calls (push + backpressure).
  std::int64_t between_ns = 0;
  std::uint64_t tuples = 0;
  std::uint64_t calls = 0;
  /// Paced replays: how late each NextBatch call ran against the
  /// schedule, with the index of the tuple that was due.
  std::vector<std::pair<std::size_t, std::int64_t>> lag_ns;
  std::vector<Span> spans;
};

/// \brief Paces and/or times Spout::NextBatch of `inner`.
///
/// `rate_tps` > 0 makes the replay open-loop: tuple i is due at
/// t0 + i / rate, and a call returns only tuples already due (waiting for
/// the first one when none is). A late generator never shifts the
/// schedule. `trace` records NextBatch spans and time totals.
class SourceProbe : public Spout {
 public:
  SourceProbe(std::shared_ptr<Spout> inner, double rate_tps, bool trace);

  bool Next(Tuple* out) override { return inner_->Next(out); }
  bool NextBatch(std::vector<Tuple>* out, std::size_t max) override;
  ReplayableSpout* replayable() override { return inner_->replayable(); }

  /// Due time of tuple `index` (paced replays).
  std::int64_t DueNs(std::size_t index) const;
  const SourceRecord& record() const { return record_; }

 private:
  void WaitUntil(std::int64_t due_ns);

  std::shared_ptr<Spout> inner_;
  const double period_ns_;
  const bool trace_;
  std::size_t next_index_ = 0;
  std::int64_t last_end_ns_ = 0;
  bool slack_set_ = false;
  SourceRecord record_;
};

/// \brief Stateful-worker record.
struct WorkerRecord {
  int task = 0;
  /// Prepare entry and Finish exit: the worker's active wall span.
  std::int64_t prepare_ns = 0;
  std::int64_t end_ns = 0;
  /// Callback totals, each including the Emit calls made inside it.
  std::int64_t watermark_ns = 0;
  std::int64_t finish_ns = 0;
  std::int64_t snapshot_ns = 0;
  /// Execute is timed on a sample of its calls; ExecuteNs() scales up.
  std::uint64_t executes = 0;
  std::uint64_t execute_samples = 0;
  std::int64_t sampled_execute_ns = 0;
  /// Emit time inside the sampled Execute calls.
  std::int64_t sampled_execute_emit_ns = 0;
  std::int64_t emit_ns = 0;
  std::uint64_t emits = 0;

  /// \brief One OnWatermark call, classified by the results it emitted.
  struct WatermarkCall {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    Timestamp watermark = 0;
    std::uint32_t expedited = 0;
    std::uint32_t exact = 0;
    std::uint32_t degraded = 0;
  };
  std::vector<WatermarkCall> watermarks;
  std::vector<std::int64_t> snapshot_call_ns;
  std::vector<std::size_t> snapshot_bytes;
  /// S occupancy sampled before each OnWatermark call.
  std::size_t spilled_peak = 0;
  /// Sum of the samples taken before calls that closed a window.
  std::uint64_t spilled_at_close = 0;
  /// (window end, wall time of the window's last result emission).
  std::vector<std::pair<std::int64_t, std::int64_t>> result_emits;
  std::vector<Span> spans;

  /// Estimated Execute totals over every call, with and without the Emit
  /// calls inside.
  double ExecuteNs() const { return Scaled(sampled_execute_ns); }
  double ExecuteSelfNs() const {
    return Scaled(sampled_execute_ns - sampled_execute_emit_ns);
  }
  /// Every callback, Execute estimated.
  double CallbackNs() const {
    return ExecuteNs() +
           static_cast<double>(watermark_ns + finish_ns + snapshot_ns);
  }

 private:
  double Scaled(std::int64_t sampled) const {
    return execute_samples == 0
               ? 0.0
               : static_cast<double>(sampled) *
                     static_cast<double>(executes) /
                     static_cast<double>(execute_samples);
  }
};

/// \brief Owns the records of one replay's stateful workers. The factory
/// runs on worker threads, hence the mutex.
class WorkerRecords {
 public:
  WorkerRecord* Add(int task);
  /// Valid once the run has ended.
  const std::vector<std::unique_ptr<WorkerRecord>>& all() const {
    return records_;
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<WorkerRecord>> records_;
};

struct BoltProbeOptions {
  /// Time every callback and Emit (traced runs). Otherwise only the
  /// result emissions are time-stamped (paced replays' latency).
  bool trace = false;
  bool grouped = false;
  /// Approximate=0 results come from the budget (incremental path).
  bool incremental_path = false;
  /// Sampled for occupancy before each OnWatermark (traced runs).
  SecondaryStorage* storage = nullptr;
};

/// Wraps the bolt factory of the topology's stage `stage` so every bolt it
/// makes is decorated with a probe recording into `records`.
void InstallBoltProbe(Topology* topology, const std::string& stage,
                      BoltProbeOptions options, WorkerRecords* records);

}  // namespace spear::perfbench
