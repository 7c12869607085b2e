#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/fault.h"
#include "common/result.h"
#include "common/retry_policy.h"
#include "common/time.h"
#include "obs/observability.h"
#include "runtime/operator.h"
#include "runtime/overload.h"
#include "runtime/partitioner.h"

/// \file topology.h
/// CQ -> distributed execution plan (paper Sec. 2): a topologically-sorted
/// chain of stages, each with its own parallelism and input partitioning,
/// plus the engine's RuntimeOptions. Built with TopologyBuilder (or
/// SpearTopologyBuilder, which compiles a CQ into one), executed by
/// Executor.

namespace spear {

class SecondaryStorage;

/// \brief One processing stage of the DAG.
struct StageSpec {
  std::string name;
  int parallelism = 1;
  /// How the *upstream* stage routes tuples to this stage.
  Partitioner input_partitioner = Partitioner::Shuffle();
  BoltFactory bolt_factory;
  /// Retry policy for transient Execute failures (supervision). Default:
  /// no retries — a transient failure is treated like any other error.
  RetryPolicy retry = RetryPolicy::None();
};

/// \brief Source configuration: the spout plus its watermarking policy.
struct SourceSpec {
  std::shared_ptr<Spout> spout;
  /// Emit a watermark every this much observed event time. <= 0 disables
  /// source watermarks (only the final end-of-stream watermark fires);
  /// count-based CQs typically disable them.
  DurationMs watermark_interval = 0;
  /// Bounded out-of-orderness allowance.
  DurationMs max_lateness = 0;
};

/// \brief The engine-level settings of a run: one engine runs every CQ, so
/// both builders declare these once (RuntimeKnobs) and hand them over
/// whole.
struct RuntimeOptions {
  /// Capacity of each inter-stage queue (back-pressure bound).
  std::size_t queue_capacity = 1024;
  /// Micro-batch bound for every inter-stage channel: each emitting worker
  /// buffers up to this many tuples per target before handing them to the
  /// queue as one batch (one lock acquisition + one notify). 1 disables
  /// batching. Buffers are flushed unconditionally before any watermark or
  /// flush broadcast and before a worker blocks on an empty input queue,
  /// so per-channel ordering, watermark alignment, and end-of-stream
  /// semantics are identical at any batch size.
  std::size_t batch_max_tuples = 64;
  /// Chaos testing: the plan's injector, consulted by instrumented sites
  /// (storage, FaultInjectingBolt/Spout wrappers). Not owned; null in
  /// production. The executor reads its fire counters into the RunReport.
  FaultInjector* fault_injector = nullptr;
  /// Checkpoint/recovery policy (disabled by default). When enabled the
  /// executor snapshots every checkpointable worker at watermark
  /// boundaries and restarts crashed workers from their latest snapshot.
  CheckpointConfig checkpoint;
  /// Cap on RunReport::dead_letters and suppressed_errors entries kept in
  /// memory; tuples quarantined past the cap are counted in
  /// RunReport::dead_letters_dropped instead of retained.
  std::size_t max_dead_letters = 1024;
  /// Overload control: latency SLO + shed policy + watermark watchdog
  /// (all disabled by default; see runtime/overload.h).
  OverloadConfig overload;
  /// Observability: metrics export + per-window trace spans (both off
  /// by default; see obs/observability.h).
  obs::ObsConfig obs;

  /// Checks every setting on its own (the checkpoint's replayable-source
  /// requirement is the plan's, checked by TopologyBuilder::Build).
  Status Validate() const {
    if (queue_capacity == 0) {
      return Status::Invalid("queue capacity must be > 0");
    }
    if (batch_max_tuples == 0) {
      return Status::Invalid("batch_max_tuples must be > 0");
    }
    SPEAR_RETURN_NOT_OK(overload.Validate());
    SPEAR_RETURN_NOT_OK(obs.Validate());
    if (checkpoint.enabled && checkpoint.interval < 1) {
      return Status::Invalid("checkpoint interval must be >= 1 ms");
    }
    return Status::OK();
  }
};

/// \brief An executable plan. Immutable once built.
struct Topology {
  SourceSpec source;
  std::vector<StageSpec> stages;
  /// Secondary storages used by this topology's bolts (not owned). Lets
  /// the executor re-arm their simulated latency at run start and cancel
  /// it when the run is cancelled, so failing workers don't spin out
  /// simulated waits.
  std::vector<SecondaryStorage*> storages;
  /// Invoked (each at most once, any thread) when the executor abandons a
  /// run or the watchdog closes a stalled source — unsticks operators
  /// blocked outside the executor's control (e.g. a stalled spout).
  std::vector<std::function<void()>> cancel_hooks;
  /// Engine-level settings (queues, faults, checkpoints, shedding, obs).
  RuntimeOptions runtime;
};

/// \brief The runtime knobs of both builders, declared once. Each sets a
/// field of RuntimeOptions and returns the calling builder (`Derived`), so
/// a chain keeps its builder's type.
template <typename Derived>
class RuntimeKnobs {
 public:
  Derived& QueueCapacity(std::size_t capacity) {
    runtime_.queue_capacity = capacity;
    return Self();
  }

  /// Chaos testing: attaches a fault injector. SpearTopologyBuilder also
  /// wraps its spout and stateful bolts in the fault-injecting decorators
  /// for the sites the plan arms (give a SpillOver storage the same one).
  Derived& InjectFaults(FaultInjector* injector) {
    runtime_.fault_injector = injector;
    return Self();
  }

  /// Enables checkpoint/restore and crash recovery (`config.enabled` is
  /// forced true): stateful workers snapshot their O(b) state every
  /// `config.interval` ms of watermark progress and restart from it on a
  /// crash, with replay-gap loss folded into ε̂_w. Requires a replayable
  /// spout and, for a CQ, a time-based window.
  Derived& Checkpoint(CheckpointConfig config) {
    config.enabled = true;
    runtime_.checkpoint = std::move(config);
    return Self();
  }

  /// Caps retained dead-letter/suppressed-error entries (default 1024).
  Derived& DeadLetterCap(std::size_t cap) {
    runtime_.max_dead_letters = cap;
    return Self();
  }

  /// Arms accuracy-aware load shedding against a per-window latency SLO
  /// (ms): every stage gets an OverloadDetector, and bolts that honor
  /// BoltContext::overload (the SPEAr bolts) shed admissions while it is
  /// tripped, folding the shed ratio into ε̂_w like recovery loss.
  Derived& LatencySlo(DurationMs slo_ms) {
    runtime_.overload.latency_slo = slo_ms;
    return Self();
  }

  /// Replaces the shed policy (thresholds/ramp; see ShedPolicy). Only
  /// effective together with LatencySlo.
  Derived& Shed(ShedPolicy policy) {
    runtime_.overload.shed = policy;
    return Self();
  }

  /// Arms the watermark watchdog: a source idle for `idle_ms` with empty
  /// stage-0 queues is declared stalled and the stream is closed
  /// abnormally (bolts get OnDeliveryAnomaly, then the final watermark).
  Derived& WatermarkWatchdog(DurationMs idle_ms) {
    runtime_.overload.watchdog_idle = idle_ms;
    return Self();
  }

  /// Exports the run's counters and gauges (always kept, see
  /// runtime/metrics.h): a final scrape in RunReport::observability, and
  /// with `options` a periodic sampler (scrape_period_ms + sink).
  Derived& Metrics(obs::MetricsOptions options = {}) {
    runtime_.obs.metrics_enabled = true;
    runtime_.obs.metrics = std::move(options);
    return Self();
  }

  /// Enables per-window TraceSpan recording (decision lineage: arrivals,
  /// budget, ε̂_w terms, verdict; see obs/trace.h). `options` controls
  /// sampling and the per-worker cap.
  Derived& Trace(obs::TraceOptions options = {}) {
    runtime_.obs.trace_enabled = true;
    runtime_.obs.trace = options;
    return Self();
  }

 protected:
  RuntimeKnobs() = default;
  explicit RuntimeKnobs(RuntimeOptions runtime)
      : runtime_(std::move(runtime)) {}

  RuntimeOptions runtime_;

 private:
  Derived& Self() { return static_cast<Derived&>(*this); }
};

/// \brief Fluent builder mirroring the structure of the paper's Fig. 2
/// DAG: source -> stateless stage(s) -> windowed stateful stage -> sink.
class TopologyBuilder : public RuntimeKnobs<TopologyBuilder> {
 public:
  TopologyBuilder() = default;
  /// Starts from runtime options set on another builder.
  explicit TopologyBuilder(RuntimeOptions runtime)
      : RuntimeKnobs(std::move(runtime)) {}

  /// Sets the data source. `watermark_interval <= 0` disables periodic
  /// watermarks (the final watermark still fires at end of stream).
  TopologyBuilder& Source(std::shared_ptr<Spout> spout,
                          DurationMs watermark_interval = 0,
                          DurationMs max_lateness = 0) {
    topology_.source = SourceSpec{std::move(spout), watermark_interval,
                                  max_lateness};
    return *this;
  }

  /// Appends a stage fed by the previous one (or the source).
  TopologyBuilder& Stage(std::string name, int parallelism,
                         Partitioner input_partitioner, BoltFactory factory) {
    topology_.stages.push_back(StageSpec{std::move(name), parallelism,
                                         std::move(input_partitioner),
                                         std::move(factory)});
    return *this;
  }

  /// Sets the retry policy of the most recently added stage.
  TopologyBuilder& StageRetry(RetryPolicy retry) {
    if (!topology_.stages.empty()) topology_.stages.back().retry = retry;
    return *this;
  }

  /// Registers a storage used by this topology's bolts (see
  /// Topology::storages). Idempotent per pointer.
  TopologyBuilder& RegisterStorage(SecondaryStorage* storage) {
    std::vector<SecondaryStorage*>& known = topology_.storages;
    if (storage != nullptr &&
        std::find(known.begin(), known.end(), storage) == known.end()) {
      known.push_back(storage);
    }
    return *this;
  }

  /// Per-channel micro-batch bound (1 = unbatched; see RuntimeOptions).
  TopologyBuilder& BatchMaxTuples(std::size_t batch_max) {
    runtime_.batch_max_tuples = batch_max;
    return *this;
  }

  /// Registers a cancel hook (see Topology::cancel_hooks).
  TopologyBuilder& AddCancelHook(std::function<void()> hook) {
    if (hook) topology_.cancel_hooks.push_back(std::move(hook));
    return *this;
  }

  /// Validates and returns the plan.
  Result<Topology> Build() {
    if (!topology_.source.spout) return Status::Invalid("topology has no source");
    if (topology_.stages.empty()) return Status::Invalid("topology has no stages");
    for (const StageSpec& s : topology_.stages) {
      // Each (stage, task) owns one metrics shard; "source" is the
      // source's.
      if (s.name == "source" ||
          std::count_if(topology_.stages.begin(), topology_.stages.end(),
                        [&](const StageSpec& o) { return o.name == s.name; }) >
              1) {
        return Status::Invalid("stage name '" + s.name +
                               "' is reserved or not unique");
      }
      if (s.parallelism < 1) {
        return Status::Invalid("stage '" + s.name + "' parallelism must be >= 1");
      }
      if (!s.bolt_factory) {
        return Status::Invalid("stage '" + s.name + "' has no bolt factory");
      }
      if (Status rs = s.retry.Validate(); !rs.ok()) {
        return Status::Invalid("stage '" + s.name + "': " + rs.message());
      }
    }
    SPEAR_RETURN_NOT_OK(runtime_.Validate());
    if (runtime_.checkpoint.enabled &&
        topology_.source.spout->replayable() == nullptr) {
      return Status::Invalid(
          "checkpointing requires a replayable source spout");
    }
    Topology topology = topology_;
    topology.runtime = runtime_;
    return topology;
  }

 private:
  Topology topology_;
};

}  // namespace spear
