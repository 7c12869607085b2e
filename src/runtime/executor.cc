#include "runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <iterator>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include "checkpoint/checkpoint.h"
#include "checkpoint/checkpointable.h"
#include "common/logging.h"
#include "common/retry_policy.h"
#include "common/time.h"
#include "runtime/overload.h"
#include "storage/secondary_storage.h"
#include "window/watermark.h"

namespace spear {
namespace {

/// One item on an inter-stage channel.
struct Element {
  enum class Kind : std::uint8_t { kTuple, kWatermark, kFlush, kAnomaly };

  Kind kind = Kind::kTuple;
  int from_channel = 0;
  Timestamp watermark = kMinTimestamp;
  Tuple tuple;

  /// A control element from channel `from`: a watermark, the flush that
  /// ends the channel, or a delivery anomaly (the stream was closed
  /// abnormally upstream, e.g. a stalled source given up on by the
  /// watchdog; an unknown suffix of the input may never arrive).
  static Element Control(Kind kind, int from, Timestamp wm = kMinTimestamp) {
    Element e;
    e.kind = kind;
    e.from_channel = from;
    e.watermark = wm;
    return e;
  }
};

using Kind = Element::Kind;
using ElementQueue = BlockingQueue<Element>;

/// Converts whatever a bolt callback throws into a Status of `code`.
/// Bolts are supposed to be exception-free (the Status idiom), but a
/// supervised runtime must not let one escaping exception tear the
/// process down via std::terminate on the worker thread.
template <typename Fn>
Status GuardedBoltCall(StatusCode code, const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& ex) {
    return Status(code, std::string(what) + " threw: " + ex.what());
  } catch (...) {
    return Status(code, std::string(what) + " threw a non-std exception");
  }
}

/// Window-result deduplication around a crash/restore cycle.
///
/// Wraps a checkpointable worker's emitter and keys every emitted window
/// result by (window start, window end[, group key]) — the leading fields
/// of the WindowResultToTuples layout. Keys are recorded always; emissions
/// are *suppressed* only while armed, i.e. during recovery catch-up, when
/// the restored manager re-closes windows that were already delivered
/// before the crash. The seen set is cleared after every successful
/// snapshot: windows emitted before a snapshot are no longer part of any
/// restorable state, so they can never re-emit. The worker's tracer, if
/// any, applies the same first-wins rule to its spans, and the worker's
/// window-time and memory samples pause while armed.
class WindowDedupEmitter : public Emitter {
 public:
  WindowDedupEmitter(Emitter* inner, obs::WindowTracer* tracer,
                     WorkerMetrics* metrics)
      : inner_(inner), tracer_(tracer), metrics_(metrics) {}

  void Emit(Tuple tuple) override {
    std::string key;
    if (ResultKey(tuple, &key)) {
      const bool fresh = seen_.insert(std::move(key)).second;
      if (!fresh && armed_) return;  // already delivered before the crash
    }
    inner_->Emit(std::move(tuple));
  }

  /// Brackets a recovery catch-up: suppress re-emitted windows.
  void SetArmed(bool armed) {
    armed_ = armed;
    if (tracer_ != nullptr) tracer_->SetReplaying(armed);
    metrics_->PauseSamples(armed);
  }

  void ClearSeen() {
    seen_.clear();
    if (tracer_ != nullptr) tracer_->ForgetWindows();
  }

 private:
  static bool ResultKey(const Tuple& tuple, std::string* key) {
    if (tuple.num_fields() < 2 || !tuple.field(0).is_int64() ||
        !tuple.field(1).is_int64()) {
      return false;
    }
    *key = std::to_string(tuple.field(0).AsInt64()) + "|" +
           std::to_string(tuple.field(1).AsInt64());
    if (tuple.num_fields() > 2 && tuple.field(2).is_string()) {
      // Grouped layout: one result tuple per (window, group).
      *key += "|" + tuple.field(2).AsString();
    }
    return true;
  }

  Emitter* inner_;
  obs::WindowTracer* tracer_;
  WorkerMetrics* metrics_;
  bool armed_ = false;
  std::unordered_set<std::string> seen_;
};

/// Routes a worker's emissions to the next stage (or the output sink).
///
/// Tuple emissions are micro-batched per target queue: up to
/// `batch_max_tuples` tuples accumulate in a per-target buffer and move
/// downstream under one lock acquisition (BlockingQueue::PushAll). Buffers
/// flush unconditionally before any Broadcast (watermark/flush) and before
/// the owning worker blocks on an empty input queue, so tuples are never
/// reordered across a control element on their channel and never held back
/// while the pipeline idles. Per-channel FIFO order is preserved exactly:
/// batching only changes how many queue operations carry it.
class StageEmitter : public Emitter {
 public:
  StageEmitter(int my_task, const Partitioner* next_partitioner,
               std::vector<ElementQueue*> next_queues, std::size_t batch_max,
               WorkerMetrics* metrics, std::vector<Tuple>* local_output)
      : my_task_(my_task),
        next_partitioner_(next_partitioner),
        next_queues_(std::move(next_queues)),
        batch_max_(std::max<std::size_t>(batch_max, 1)),
        metrics_(metrics),
        local_output_(local_output) {
    buffers_.resize(next_queues_.size());
    for (auto& buffer : buffers_) buffer.reserve(batch_max_);
  }

  void Emit(Tuple tuple) override {
    ++emitted_;
    if (next_queues_.empty()) {
      // Sink stage: collect into the worker's private vector (merged once
      // after join) instead of contending on a shared output lock.
      local_output_->push_back(std::move(tuple));
      return;
    }
    const auto target = static_cast<std::size_t>(next_partitioner_->TargetTask(
        tuple, static_cast<int>(next_queues_.size()), &rr_state_));
    std::vector<Element>& buffer = buffers_[target];
    // Build the element in place (a temporary would cost an extra move of
    // the whole Element on this per-tuple path).
    Element& element = buffer.emplace_back();
    element.from_channel = my_task_;
    element.tuple = std::move(tuple);
    if (buffer.size() >= batch_max_) Flush(target);
  }

  /// Pushes every buffered tuple downstream immediately.
  void FlushAll() {
    for (std::size_t t = 0; t < buffers_.size(); ++t) Flush(t);
  }

  /// Sends a control element to every downstream queue, after flushing all
  /// buffered tuples so nothing is reordered across it. Control elements
  /// use the queue's reserved headroom (PushControl): a watermark or flush
  /// must never sit blocked behind a saturated data queue, or back-pressure
  /// would delay the very window closings that drain it.
  void Broadcast(Element element) {
    FlushAll();
    const std::size_t n = next_queues_.size();
    if (n == 0) return;
    for (std::size_t q = 0; q + 1 < n; ++q) {
      next_queues_[q]->PushControl(element);  // copy for all but the last...
    }
    next_queues_[n - 1]->PushControl(std::move(element));  // ...which moves
  }

  /// Adds the tuples emitted since the last call to the worker's
  /// tuples_out: once per popped batch or source pull, not per tuple.
  void PublishEmitted() {
    if (metrics_ != nullptr && emitted_ > 0) metrics_->AddTuplesOut(emitted_);
    emitted_ = 0;
  }

 private:
  void Flush(std::size_t target) {
    std::vector<Element>& buffer = buffers_[target];
    if (buffer.empty()) return;
    std::int64_t blocked_ns = 0;
    next_queues_[target]->PushAll(std::move(buffer), &blocked_ns);
    if (blocked_ns > 0 && metrics_ != nullptr) {
      metrics_->AddBackpressureNs(blocked_ns);
    }
    // The vector's storage was handed to the queue as a whole batch node;
    // start a fresh allocation for the next batch.
    buffer.reserve(batch_max_);
  }

  const int my_task_;
  const Partitioner* next_partitioner_;
  std::vector<ElementQueue*> next_queues_;
  const std::size_t batch_max_;
  WorkerMetrics* metrics_;
  std::vector<Tuple>* local_output_;
  std::vector<std::vector<Element>> buffers_;
  std::uint64_t rr_state_ = 0;
  std::uint64_t emitted_ = 0;
};

/// What the units of one run share: the channels, the failure state, the
/// dead-letter admission and the source's signals. Built single-threaded
/// by Executor::Run before any unit starts.
struct RunState {
  explicit RunState(const Topology& plan)
      : topology(plan),
        options(plan.runtime),
        batch_max(std::max<std::size_t>(plan.runtime.batch_max_tuples, 1)),
        queues(plan.stages.size()),
        detectors(plan.stages.size()),
        checkpoint_store(plan.runtime.checkpoint.store) {
    for (std::size_t i = 0; i < plan.stages.size(); ++i) {
      for (int t = 0; t < plan.stages[i].parallelism; ++t) {
        queues[i].push_back(
            std::make_unique<ElementQueue>(options.queue_capacity));
      }
      // One detector per stage when a latency SLO is armed; bolts honoring
      // BoltContext::overload (SpearBolt) shed admissions while it is
      // tripped.
      if (options.overload.ShedEnabled()) {
        detectors[i] = std::make_unique<OverloadDetector>(plan.stages[i].name,
                                                          options.overload);
      }
    }
    // A run-private in-memory store is enough for in-process worker
    // restarts; an external store (file-backed) only matters when the
    // caller wants snapshots to outlive the process.
    if (options.checkpoint.enabled && checkpoint_store == nullptr) {
      private_store = std::make_unique<InMemoryCheckpointStore>();
      checkpoint_store = private_store.get();
    }
  }
  RunState(const RunState&) = delete;
  RunState& operator=(const RunState&) = delete;

  /// An emitter of `task` into stage `next`'s queues, or past the last
  /// stage into `sink`.
  StageEmitter EmitterTo(std::size_t next, int task, WorkerMetrics* metrics,
                         std::vector<Tuple>* sink = nullptr) const {
    if (next == queues.size()) {
      return StageEmitter(task, nullptr, {}, batch_max, metrics, sink);
    }
    std::vector<ElementQueue*> next_queues;
    for (const auto& q : queues[next]) next_queues.push_back(q.get());
    return StageEmitter(task, &topology.stages[next].input_partitioner,
                        std::move(next_queues), batch_max, metrics, sink);
  }

  /// Keeps the *first* error deterministically; later distinct errors are
  /// appended to the suppressed list (duplicates dropped) so multi-worker
  /// failures stay debuggable instead of silently losing all but one.
  /// Then cancels the run.
  void Fail(const Status& status) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      bool expected = false;
      if (failed.compare_exchange_strong(expected, true)) {
        first_error = status;
      } else if (suppressed_errors.size() < options.max_dead_letters &&
                 !(status == first_error) &&
                 std::find(suppressed_errors.begin(), suppressed_errors.end(),
                           status) == suppressed_errors.end()) {
        suppressed_errors.push_back(status);
      }
    }
    // Unblock everyone: closing the queues makes pending Push/Pop return,
    // cancelling simulated storage latency makes workers unwinding through
    // a storage call stop busy-waiting, and the cancel hooks unstick
    // operators blocked outside the executor's control (stalled spouts).
    for (auto& stage_queues : queues) {
      for (auto& q : stage_queues) q->Close();
    }
    for (SecondaryStorage* s : topology.storages) s->CancelSimulatedLatency();
    RunCancelHooks();
  }

  /// Runs the topology's cancel hooks, once per run.
  void RunCancelHooks() {
    if (hooks_run.exchange(true)) return;
    for (const auto& hook : topology.cancel_hooks) hook();
  }

  /// The first error; the report (and its suppressed list) is dropped on
  /// failure, so the returned Status carries the evidence itself.
  Status FailureStatus() {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (suppressed_errors.empty()) return first_error;
    std::string message = first_error.message() + " [+" +
                          std::to_string(suppressed_errors.size()) +
                          " suppressed:";
    for (const Status& s : suppressed_errors) {
      message += " {" + s.ToString() + "}";
    }
    return Status(first_error.code(), message + "]");
  }

  /// Dead-letter retention cap, shared across workers: true while a
  /// quarantined tuple may still be retained; the overflow is counted.
  bool AdmitDeadLetter() {
    const bool admit =
        dead_letters_admitted.fetch_add(1, std::memory_order_relaxed) <
        options.max_dead_letters;
    if (!admit) dead_letters_dropped.fetch_add(1, std::memory_order_relaxed);
    return admit;
  }

  /// Ends the stream on stage 0's channels: the final watermark releases
  /// every buffered window, then the flush. Whoever CASes source_closed
  /// first owns the close — the source at end of input, or the watchdog
  /// when it declares the source stalled (`abnormal`: the cancel hooks
  /// unstick the spout, and an anomaly element tells the bolts the input
  /// was cut short). Returns false when the stream was already closed.
  bool CloseStream(StageEmitter* emitter, bool abnormal) {
    bool expected = false;
    if (!source_closed.compare_exchange_strong(expected, true)) return false;
    if (abnormal) {
      RunCancelHooks();
      emitter->Broadcast(Element::Control(Kind::kAnomaly, 0));
    }
    const Timestamp final_wm = WatermarkGenerator::FinalWatermark();
    source_wm.store(final_wm, std::memory_order_relaxed);
    emitter->Broadcast(Element::Control(Kind::kWatermark, 0, final_wm));
    emitter->Broadcast(Element::Control(Kind::kFlush, 0));
    return true;
  }

  const Topology& topology;
  const RuntimeOptions& options;
  const std::size_t batch_max;
  /// queues[i][t]: input queue of stage i, task t.
  std::vector<std::vector<std::unique_ptr<ElementQueue>>> queues;
  std::vector<std::unique_ptr<OverloadDetector>> detectors;
  std::unique_ptr<InMemoryCheckpointStore> private_store;
  CheckpointStore* checkpoint_store;

  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  Status first_error = Status::OK();
  std::vector<Status> suppressed_errors;
  std::atomic<bool> hooks_run{false};

  std::atomic<std::uint64_t> dead_letters_admitted{0};
  std::atomic<std::uint64_t> dead_letters_dropped{0};

  // Source signals: its watermark (read by workers for watermark lag), its
  // pull count (read by the watchdog for stall detection), its replay
  // offset at the last completed NextBatch (recorded into snapshot
  // headers; advisory: in-process recovery replays from the per-worker
  // log, the offset lets an external driver re-seek a re-created source
  // after a full-process restart), and who closed the stream.
  std::atomic<Timestamp> source_wm{kMinTimestamp};
  std::atomic<std::uint64_t> source_progress{0};
  std::atomic<std::uint64_t> source_offset{0};
  std::atomic<bool> source_closed{false};
  std::atomic<std::uint64_t> watchdog_advances{0};
};

/// One (stage, task) worker: starts its bolt, delivers popped batches,
/// aligns watermarks across its input channels, snapshots at watermark
/// boundaries, and rebuilds the bolt in place after a crash. Owns the
/// bolt, the emitter, the replay log and the dedup, and its share of the
/// run's results (sink output, dead letters, spans), merged after join.
class StageWorker {
 public:
  StageWorker(RunState& run, std::size_t stage, int task,
              WorkerMetrics* metrics)
      : run_(run),
        ckpt_(run.options.checkpoint),
        injector_(run.options.fault_injector),
        stage_(run.topology.stages[stage]),
        task_(task),
        metrics_(metrics),
        tracer_(run.options.obs.trace_enabled
                    ? std::make_unique<obs::WindowTracer>(
                          run.options.obs.trace, ckpt_.enabled)
                    : nullptr),
        in_queue_(run.queues[stage][static_cast<std::size_t>(task)].get()),
        detector_(run.detectors[stage].get()),
        emitter_(run.EmitterTo(stage + 1, task, metrics, &output_)),
        dedup_(&emitter_, tracer_.get(), metrics),
        retry_seed_((static_cast<std::uint64_t>(stage) << 32) ^
                    static_cast<std::uint64_t>(task) ^ 0x5EA45EA4ULL),
        ctx_{task, stage_.parallelism, metrics, detector_, tracer_.get()},
        channel_wm_(static_cast<std::size_t>(
                        stage == 0 ? 1 : run.topology.stages[stage - 1]
                                             .parallelism),
                    kMinTimestamp),
        channel_flushed_(channel_wm_.size(), false) {}
  StageWorker(const StageWorker&) = delete;
  StageWorker& operator=(const StageWorker&) = delete;

  /// The worker thread: runs until every input channel flushed, the run
  /// failed, or this worker's error failed it.
  void Run() {
    metrics_->Set(WorkerMetrics::kQueueCapacity, in_queue_->capacity());
    if (Status s = StartBolt(false); !s.ok()) {
      run_.Fail(s);
      return;
    }
    // Checkpoint/recovery state is inert when checkpointing is off or the
    // bolt keeps no state: no logging, no snapshots, no dedup hashing.
    log_replay_ = cp_ != nullptr;
    out_ = log_replay_ ? static_cast<Emitter*>(&dedup_) : &emitter_;

    const std::size_t batch_max = run_.batch_max;
    std::vector<Element> batch;
    batch.reserve(batch_max);
    std::uint32_t gauge_tick = 0;
    while (!run_.failed.load(std::memory_order_relaxed)) {
      batch.clear();
      if (in_queue_->TryPopAll(&batch, batch_max) == 0) {
        // About to sleep: hand any buffered output downstream first so a
        // starved consumer is never waiting on tuples we hold.
        emitter_.FlushAll();
        if (in_queue_->PopAll(&batch, batch_max) == 0) {
          break;  // closed (cancelled run)
        }
      }
      if (detector_ != nullptr) {
        // Occupancy at pop time (the popped batch counts): observed before
        // the batch is processed, so admission already sees the ramped
        // shed probability for these very tuples.
        detector_->ObserveQueue(in_queue_->size() + batch.size(),
                                in_queue_->capacity());
      }
      // Decimated 64x: a gauge is a point-in-time sample scraped at
      // ms-scale, while in_queue_->size() takes the queue mutex — a
      // per-batch update would double lock traffic at batch size 1.
      if ((gauge_tick++ & 63u) == 0) {
        metrics_->Set(WorkerMetrics::kQueueDepth,
                      in_queue_->size() + batch.size());
        if (detector_ != nullptr) {
          metrics_->Set(WorkerMetrics::kShedProbability,
                        detector_->shed_probability());
        }
      }

      // Drain the popped batch locally; metrics updates are batched — one
      // timer read pair and one tuples in/out and busy-time add per popped
      // batch instead of per tuple.
      std::uint64_t batch_tuples = 0;
      std::int64_t batch_busy = 0;
      Status status = Status::OK();
      bool finished = false;
      {
        ScopedTimerNs timer(&batch_busy);
        for (Element& element : batch) {
          status = Deliver(element, &batch_tuples, &finished);
          if (!status.ok() || finished) break;
        }
      }
      metrics_->AddTuplesIn(batch_tuples);
      metrics_->AddBusyNs(batch_busy);
      emitter_.PublishEmitted();
      if (!status.ok()) {
        run_.Fail(status);
        return;
      }
      if (finished) return;
    }
  }

  /// Moves this worker's sink output, dead letters and spans into `report`.
  void CollectInto(RunReport* report) {
    std::move(output_.begin(), output_.end(),
              std::back_inserter(report->output));
    std::move(dead_letters_.begin(), dead_letters_.end(),
              std::back_inserter(report->dead_letters));
    if (tracer_ == nullptr) return;
    std::vector<obs::TraceSpan> spans = tracer_->Snapshot();
    std::move(spans.begin(), spans.end(),
              std::back_inserter(report->observability.spans));
    report->observability.spans_sampled_out += tracer_->sampled_out();
    report->observability.spans_dropped += tracer_->dropped();
  }

 private:
  /// Builds and prepares a fresh bolt: at worker start, and again at every
  /// recovery.
  Status StartBolt(bool recovery) {
    bolt_ = stage_.bolt_factory(task_);
    if (bolt_ == nullptr) {
      return Status::Internal("stage '" + stage_.name +
                              "' factory returned null bolt" +
                              (recovery ? " during recovery" : ""));
    }
    SPEAR_RETURN_NOT_OK(GuardedBoltCall(
        StatusCode::kInternal,
        recovery ? "bolt prepare (recovery)" : "bolt prepare",
        [&] { return bolt_->Prepare(ctx_); }));
    cp_ = ckpt_.enabled ? bolt_->checkpointable() : nullptr;
    return Status::OK();
  }

  Status Execute(const Tuple& tuple, const char* what) {
    return GuardedBoltCall(StatusCode::kInvalidArgument, what,
                           [&] { return bolt_->Execute(tuple, out_); });
  }

  /// Runs a bolt lifecycle call, then forwards `control` downstream.
  template <typename Fn>
  Status CallAndForward(const char* what, Fn&& call, Element control) {
    SPEAR_RETURN_NOT_OK(GuardedBoltCall(StatusCode::kInternal, what, call));
    emitter_.Broadcast(std::move(control));
    return Status::OK();
  }

  /// Closes the windows the worker's aligned watermark completes and
  /// forwards the watermark.
  Status CloseWindows(const char* what) {
    return CallAndForward(
        what, [&] { return bolt_->OnWatermark(local_wm_, out_); },
        Element::Control(Kind::kWatermark, task_, local_wm_));
  }

  Status DeliverTuple(Tuple& tuple) {
    // Crash site: consulted in every worker whenever an injector arms it,
    // so a fired crash with checkpointing disabled fails the run — the
    // recovery subsystem is load-bearing, not decorative.
    if (injector_ != nullptr && injector_->armed(FaultSite::kWorkerCrash) &&
        injector_->Tick(FaultSite::kWorkerCrash).fire) {
      // On success the crash hit before this tuple was consumed, so it
      // now processes normally.
      SPEAR_RETURN_NOT_OK(Recover(Status::Internal(
          "injected fault: worker crash at stage '" + stage_.name +
          "' task " + std::to_string(task_))));
    }
    if (log_replay_) {
      if (replay_log_.size() >= ckpt_.max_replay_tuples) {
        replay_log_.pop_front();  // oldest tuple becomes loss
      }
      replay_log_.push_back(tuple);
      ++consumed_since_snapshot_;
    }
    Status status = Execute(tuple, "bolt execute");
    if (status.ok()) return status;
    return Supervise(tuple, std::move(status));
  }

  /// Supervised delivery of a tuple whose first Execute failed: a thrown
  /// exception is a data error (confined to this tuple); transient
  /// failures are retried under the stage policy; what still fails
  /// non-transiently is quarantined, not fatal. Kept off the per-tuple
  /// path.
  Status Supervise(Tuple& tuple, Status status) {
    int attempts = 1;
    if (stage_.retry.enabled()) {
      Backoff backoff(stage_.retry, retry_seed_);
      std::int64_t delay_ns = 0;
      while (!status.ok() &&
             ClassifyFailure(status) == FailureClass::kTransient &&
             !run_.failed.load(std::memory_order_relaxed) &&
             backoff.NextDelay(&delay_ns)) {
        BackoffSleep(delay_ns, &run_.failed);
        metrics_->AddRetries(1);
        ++attempts;
        status = Execute(tuple, "bolt execute");
        if (status.ok()) metrics_->AddRecovered(1);
      }
    }
    if (status.ok()) return status;
    if (ClassifyFailure(status) == FailureClass::kData) {
      if (run_.AdmitDeadLetter()) {
        dead_letters_.push_back(DeadLetter{stage_.name, task_, attempts,
                                           status, std::move(tuple)});
      }
      metrics_->AddQuarantined(1);
      return Status::OK();  // the run goes on
    }
    // Fatal or retry-exhausted: last resort is a restart from the
    // checkpoint (the failing tuple is in the replay log; a deterministic
    // failure exhausts the recovery budget and then cancels the run).
    return Recover(status);
  }

  Status Deliver(Element& element, std::uint64_t* tuples, bool* finished) {
    switch (element.kind) {
      case Kind::kTuple:
        ++*tuples;
        return DeliverTuple(element.tuple);
      case Kind::kWatermark:
        return AdvanceWatermark(element.from_channel, element.watermark);
      case Kind::kAnomaly:
        // Deliver once per worker (each upstream task forwards its own
        // copy), then propagate so every downstream stage learns the
        // stream was cut short before its final watermark arrives.
        if (anomaly_seen_) return Status::OK();
        anomaly_seen_ = true;
        return CallAndForward(
            "bolt delivery anomaly",
            [&] { return bolt_->OnDeliveryAnomaly(out_); },
            Element::Control(Kind::kAnomaly, task_));
      case Kind::kFlush:
        channel_flushed_[static_cast<std::size_t>(element.from_channel)] = true;
        if (std::find(channel_flushed_.begin(), channel_flushed_.end(),
                      false) != channel_flushed_.end()) {
          return Status::OK();
        }
        *finished = true;  // every upstream channel is done
        return CallAndForward(
            "bolt finish", [&] { return bolt_->Finish(out_); },
            Element::Control(Kind::kFlush, task_));
    }
    return Status::OK();
  }

  /// Aligns the worker's watermark as the minimum across its input
  /// channels; when it advances, closes windows and maybe snapshots.
  Status AdvanceWatermark(int channel, Timestamp watermark) {
    Timestamp& ch = channel_wm_[static_cast<std::size_t>(channel)];
    ch = std::max(ch, watermark);
    const Timestamp aligned =
        *std::min_element(channel_wm_.begin(), channel_wm_.end());
    if (aligned <= local_wm_) return Status::OK();
    local_wm_ = aligned;
    if (detector_ != nullptr &&
        local_wm_ != WatermarkGenerator::FinalWatermark()) {
      // How far this stage's aligned watermark trails the source's: a
      // healthy (zero-lag) observation decays the shed probability, a
      // laggy one ratchets it.
      const Timestamp src = run_.source_wm.load(std::memory_order_relaxed);
      if (src != kMinTimestamp && src != WatermarkGenerator::FinalWatermark()) {
        detector_->ObserveWatermarkLag(src > local_wm_ ? src - local_wm_ : 0);
      }
    }
    // Watermark work is not idempotent (window state advances), so it is
    // guarded but never retried; an escaped exception here is recovered
    // from the checkpoint when enabled (recovery re-runs the catch-up
    // watermark and broadcasts it itself), fatal otherwise.
    if (Status s = CloseWindows("bolt watermark"); !s.ok()) return Recover(s);
    if (log_replay_ && cp_ != nullptr &&
        local_wm_ != WatermarkGenerator::FinalWatermark() &&
        (last_snapshot_wm_ == kMinTimestamp ||
         local_wm_ - last_snapshot_wm_ >=
             static_cast<Timestamp>(ckpt_.interval))) {
      Snapshot();
    }
    return Status::OK();
  }

  /// Snapshot right after emission: just-closed windows are out of the
  /// state, so the payload is O(b) in the open windows' budgets. A failed
  /// snapshot or Put leaves the previous snapshot (and the longer replay
  /// log) in charge — the run itself is unaffected.
  void Snapshot() {
    Result<std::string> payload = cp_->SnapshotState();
    if (!payload.ok()) return;
    CheckpointSnapshot snapshot;
    snapshot.stage = stage_.name;
    snapshot.task = task_;
    snapshot.sequence = snapshot_seq_++;
    snapshot.watermark = local_wm_;
    snapshot.source_offset =
        run_.source_offset.load(std::memory_order_relaxed);
    snapshot.payload = std::move(*payload);
    if (!run_.checkpoint_store->Put(snapshot).ok()) return;
    last_snapshot_wm_ = local_wm_;
    replay_log_.clear();
    consumed_since_snapshot_ = 0;
    // Windows emitted up to here are in no restorable state anymore, so
    // they can never re-emit: forget their keys.
    dedup_.ClearSeen();
    metrics_->AddSnapshots(1, snapshot.payload.size());
  }

  /// Tears a failed bolt down and rebuilds it in place: fresh instance,
  /// state restored from the latest valid snapshot, replay log re-fed,
  /// windows re-closed up to the worker's watermark with duplicate results
  /// suppressed. Returns OK when the worker may keep consuming; otherwise
  /// the error that cancels the run.
  Status Recover(const Status& cause) {
    if (!ckpt_.enabled || run_.failed.load(std::memory_order_relaxed)) {
      return cause;
    }
    if (restarts_ >= ckpt_.max_recoveries_per_worker) {
      return Status(cause.code(), "worker recovery budget exhausted after " +
                                      std::to_string(restarts_) +
                                      " restarts: " + cause.message());
    }
    ++restarts_;
    metrics_->AddWorkerRestarts(1);
    SPEAR_RETURN_NOT_OK(StartBolt(true));
    if (cp_ == nullptr) return Status::OK();  // stateless: fresh bolt

    // kNotFound = crash before the first snapshot: start from fresh state,
    // the whole replay log re-feeds it.
    Result<CheckpointSnapshot> snap =
        run_.checkpoint_store->Latest(stage_.name, task_);
    if (snap.ok()) {
      SPEAR_RETURN_NOT_OK(cp_->RestoreState(snap->payload));
    } else if (!snap.status().IsNotFound()) {
      return snap.status();
    }
    // Catch back up. The dedup emitter is armed so windows that were
    // already delivered before the crash are suppressed — downstream sees
    // every window result at most once.
    dedup_.SetArmed(true);
    Status catch_up = Status::OK();
    for (const Tuple& logged : replay_log_) {
      Status es = Execute(logged, "bolt execute (replay)");
      if (!es.ok() && ClassifyFailure(es) == FailureClass::kFatal) {
        catch_up = es;
        break;
      }
      // Transient/data replay failures: the tuple was already retried or
      // quarantined on first delivery; skip it here.
    }
    // Downstream alignment is max-based per channel, so re-announcing the
    // same watermark is idempotent.
    if (catch_up.ok() && local_wm_ != kMinTimestamp) {
      catch_up = CloseWindows("bolt watermark (recovery)");
    }
    dedup_.SetArmed(false);
    // Tuples consumed since the snapshot that fell off the bounded log are
    // unrecoverable; fold them into the affected windows' error estimates
    // instead of silently ignoring them. This must happen AFTER the
    // catch-up: during replay the "next window that opens" is an
    // already-delivered one whose re-emission the dedup suppresses, so
    // loss noted before replay could vanish from the output. Noted here,
    // it lands on the windows still active across the crash (or the next
    // genuinely new window).
    if (catch_up.ok() && consumed_since_snapshot_ > replay_log_.size()) {
      cp_->NoteRecoveryLoss(consumed_since_snapshot_ - replay_log_.size());
    }
    return catch_up;
  }

  RunState& run_;
  const CheckpointConfig& ckpt_;
  FaultInjector* const injector_;
  const StageSpec& stage_;
  const int task_;
  WorkerMetrics* const metrics_;
  const std::unique_ptr<obs::WindowTracer> tracer_;
  ElementQueue* const in_queue_;
  OverloadDetector* const detector_;
  std::vector<Tuple> output_;  // sink stage only
  std::vector<DeadLetter> dead_letters_;
  StageEmitter emitter_;
  WindowDedupEmitter dedup_;
  /// Deterministic per-worker jitter stream for retry backoff.
  const std::uint64_t retry_seed_;
  BoltContext ctx_;
  std::unique_ptr<Bolt> bolt_;
  Checkpointable* cp_ = nullptr;
  bool log_replay_ = false;
  Emitter* out_ = nullptr;  // what the bolt emits into

  std::deque<Tuple> replay_log_;
  std::uint64_t consumed_since_snapshot_ = 0;
  Timestamp last_snapshot_wm_ = kMinTimestamp;
  std::uint64_t snapshot_seq_ = 0;
  int restarts_ = 0;

  std::vector<Timestamp> channel_wm_;
  std::vector<bool> channel_flushed_;
  Timestamp local_wm_ = kMinTimestamp;
  bool anomaly_seen_ = false;
};

/// The source thread: drains the spout into stage 0, broadcasting the
/// generator's watermarks and publishing its progress and replay offset,
/// then closes the stream (unless the watchdog already did).
void DriveSource(RunState& run, WorkerMetrics* metrics) {
  const SourceSpec& source = run.topology.source;
  StageEmitter emitter = run.EmitterTo(0, 0, metrics);
  ReplayableSpout* const replay_source = source.spout->replayable();
  // With interval <= 0 the generator is never consulted: only the final
  // end-of-stream watermark fires.
  WatermarkGenerator generator(
      std::max<DurationMs>(source.watermark_interval, 1), source.max_lateness);

  std::vector<Tuple> pulled;
  pulled.reserve(run.batch_max);
  bool more = true;
  while (more && !run.failed.load(std::memory_order_relaxed) &&
         !run.source_closed.load(std::memory_order_acquire)) {
    pulled.clear();
    more = source.spout->NextBatch(&pulled, run.batch_max);
    run.source_progress.fetch_add(1, std::memory_order_relaxed);
    if (replay_source != nullptr) {
      run.source_offset.store(replay_source->ReplayOffset(),
                              std::memory_order_relaxed);
    }
    for (Tuple& tuple : pulled) {
      // Re-check per tuple: once the watchdog closed the stream, every
      // further emission would land behind its flush marker and be
      // ignored — stop feeding the queues instead. Bounds the racing
      // overshoot to the one batch already pulled.
      if (run.source_closed.load(std::memory_order_acquire)) break;
      const Timestamp t = tuple.event_time();
      emitter.Emit(std::move(tuple));
      if (source.watermark_interval > 0 && generator.Observe(t)) {
        const Timestamp wm = generator.current();
        run.source_wm.store(wm, std::memory_order_relaxed);
        metrics->Set(WorkerMetrics::kWatermarkMs, wm);
        emitter.Broadcast(Element::Control(Kind::kWatermark, 0, wm));
      }
    }
    emitter.PublishEmitted();
  }
  run.CloseStream(&emitter, /*abnormal=*/false);
}

/// The watermark watchdog: a source that makes no progress for
/// `watchdog_idle` while the stage-0 queues sit *empty* is stalled, not
/// back-pressured (a blocked-on-full source would leave its queues
/// non-empty), and the watchdog closes the stream abnormally in its
/// place. All of its pushes are control elements (reserved headroom), so
/// the watchdog itself can never block on a queue.
void WatchSource(RunState& run, const std::atomic<bool>& stop) {
  const DurationMs idle_ms = run.options.overload.watchdog_idle;
  const std::int64_t idle_ns = idle_ms * 1'000'000;
  const DurationMs poll_ms = std::max<DurationMs>(idle_ms / 4, 1);
  std::uint64_t last_progress =
      run.source_progress.load(std::memory_order_relaxed);
  std::int64_t last_change_ns = NowNs();
  while (!stop.load(std::memory_order_acquire) &&
         !run.failed.load(std::memory_order_relaxed) &&
         !run.source_closed.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    const std::uint64_t progress =
        run.source_progress.load(std::memory_order_relaxed);
    const bool starved = std::all_of(
        run.queues[0].begin(), run.queues[0].end(),
        [](const std::unique_ptr<ElementQueue>& q) { return q->size() == 0; });
    // Progress, or an idle source with data still in flight
    // (back-pressure territory), restarts the idle clock.
    if (progress != last_progress || !starved) {
      last_progress = progress;
      last_change_ns = NowNs();
      continue;
    }
    if (NowNs() - last_change_ns < idle_ns) continue;
    StageEmitter closer = run.EmitterTo(0, 0, nullptr);
    if (run.CloseStream(&closer, /*abnormal=*/true)) {
      run.watchdog_advances.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
}

}  // namespace

/// The supervisor: wires the units, joins them, and assembles the report.
Result<RunReport> Executor::Run() {
  const RuntimeOptions& options = topology_.runtime;
  RunReport report;

  // Re-arm the storages' simulated latency (a previous cancelled run may
  // have tripped their stop flag).
  for (SecondaryStorage* s : topology_.storages) s->ResetSimulatedLatency();

  RunState run(topology_);
  // Every worker counts into its shard of report.metrics, always;
  // `.Metrics()` only adds the sampler and the final scrape into
  // report.observability. Registration happens here, single-threaded, so
  // workers never contend on it; the source counts like a worker, under
  // stage "source".
  obs::PeriodicSampler sampler(
      options.obs.metrics_enabled ? &report.metrics.exported() : nullptr,
      options.obs.metrics);
  WorkerMetrics* const source_metrics = report.metrics.Register("source", 0);
  std::vector<std::unique_ptr<StageWorker>> workers;
  for (std::size_t i = 0; i < topology_.stages.size(); ++i) {
    const StageSpec& stage = topology_.stages[i];
    for (int task = 0; task < stage.parallelism; ++task) {
      workers.push_back(std::make_unique<StageWorker>(
          run, i, task, report.metrics.Register(stage.name, task)));
    }
  }

  std::vector<std::thread> threads;
  for (auto& worker : workers) {
    threads.emplace_back([w = worker.get()] { w->Run(); });
  }
  threads.emplace_back([&] { DriveSource(run, source_metrics); });
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog;
  if (options.overload.WatchdogEnabled()) {
    watchdog = std::thread([&] { WatchSource(run, watchdog_stop); });
  }
  sampler.Start();

  for (std::thread& t : threads) t.join();
  watchdog_stop.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();
  sampler.Stop();  // performs the final periodic scrape, if armed

  if (run.failed.load()) return run.FailureStatus();

  // Merge the workers' sink outputs, dead letters and spans in (stage,
  // task) order, and settle the fault counters: worker metrics cover
  // retries/recoveries/quarantines/degradations, the injector knows what
  // it fired.
  for (auto& worker : workers) worker->CollectInto(&report);
  report.faults = report.metrics.FaultTotals();
  if (options.fault_injector != nullptr) {
    report.faults.injected = options.fault_injector->total_fired();
  }
  report.dead_letters_dropped =
      run.dead_letters_dropped.load(std::memory_order_relaxed);
  report.overload = report.metrics.OverloadTotals();
  report.overload.watchdog_advances +=
      run.watchdog_advances.load(std::memory_order_relaxed);
  // Final observability scrape into the report: every metric series and
  // every retained trace span, merged across worker shards.
  report.observability.metrics_enabled = options.obs.metrics_enabled;
  report.observability.trace_enabled = options.obs.trace_enabled;
  if (options.obs.metrics_enabled) {
    report.observability.metrics = report.metrics.exported().Collect();
    report.observability.scrapes = sampler.scrapes();
  }
  return report;
}

}  // namespace spear
