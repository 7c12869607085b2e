#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/spear_config.h"
#include "obs/trace.h"
#include "ops/exact_operator.h"
#include "ops/window_result.h"
#include "runtime/metrics.h"
#include "stats/group_stats.h"
#include "stats/reservoir_sampler.h"
#include "storage/secondary_storage.h"
#include "tuple/field_extractor.h"
#include "window/tuple_custody.h"

/// \file spear_window_manager.h
/// SPEAr's extension of the single-buffer window manager — the paper's
/// Algorithms 1 and 2 fused into Storm's tuple/watermark workflow
/// (Sec. 4.1-4.2).
///
/// Tuple arrival (Alg. 1): the raw tuple enters the arrival-ordered buffer
/// (spilling to S past the worker budget), and the *operation budget* b is
/// updated in O(1): per-window reservoir sample + running moments (scalar),
/// or per-group frequency/variance (grouped), or per-group reservoirs
/// (grouped with a known group count).
///
/// Watermark arrival (Alg. 2): for every complete window, an accuracy
/// estimate ε̂_w and approximate result R̂_w are produced from b alone. If
/// ε̂_w <= ε, R̂_w is emitted — O(b) work, no access to the raw window; the
/// single eviction scan the buffer design already pays doubles as the
/// stratified-sample construction scan for grouped operations. Otherwise
/// the whole window is materialized (possibly from S) and processed
/// exactly, matching a normal SPE's cost.

namespace spear {

/// \brief SPEAr execution modes, derived from the operator configuration.
enum class SpearMode {
  /// Non-holistic scalar with incremental optimization: exact R_w from a
  /// running accumulator; the budget sample is kept for anomaly recovery.
  kScalarIncremental,
  /// Scalar estimated from the reservoir sample (generic model path; also
  /// used when a custom estimator is installed).
  kScalarSampled,
  /// Holistic scalar (percentile): sample-size budget test.
  kScalarQuantile,
  /// Grouped, group count unknown: frequencies/variances tracked in b;
  /// stratified sample built during the eviction scan on accept.
  kGroupedUnknown,
  /// Grouped, group count declared at submission: per-group reservoirs
  /// maintained at tuple arrival; no scan needed on accept.
  kGroupedKnown,
};

const char* SpearModeName(SpearMode mode);

/// \brief One SPEAr worker's stateful-operation manager.
///
/// Single-threaded; each runtime worker owns one instance.
class SpearWindowManager {
 public:
  /// \param config         operation configuration (validated here)
  /// \param value_extractor pulls the aggregated value out of a tuple
  /// \param key_extractor  group key; null => scalar operation
  /// \param storage        spill target; required when
  ///                       config.buffer_memory_capacity > 0
  /// \param spill_key      S key of this worker's spill run
  SpearWindowManager(SpearOperatorConfig config,
                     ValueExtractor value_extractor,
                     KeyExtractor key_extractor = nullptr,
                     SecondaryStorage* storage = nullptr,
                     std::string spill_key = "spear");

  /// Alg. 1. `coord` is the tuple's window coordinate (event time or
  /// sequence number).
  void OnTuple(std::int64_t coord, Tuple tuple);

  /// Accounts one tuple dropped at admission by load shedding before any
  /// ingest work (no buffer entry, no spill, no sampler offer). The shed
  /// count is exact per window: ε̂_w gains the shed ratio
  /// (lost+shed)/(count+lost+shed) — the same AF-Stream accounting as
  /// recovery loss — count/sum estimates are rescaled to the full
  /// population count+shed, and the exact fallback is off the table for
  /// the affected windows (their raw buffer is incomplete by design).
  void OnTupleShed(std::int64_t coord);

  /// Marks every active window truncated: the stream was closed abnormally
  /// (watermark watchdog gave up on a stalled source) and an unknown
  /// suffix of each window's input may be missing, so their results are
  /// emitted via the degraded path — the error bound is unverifiable.
  void NoteStreamTruncation();

  /// Alg. 2. Emits one WindowResult per complete non-empty window, in
  /// ascending window order.
  Result<std::vector<WindowResult>> OnWatermark(std::int64_t watermark);

  /// Reports an external delivery anomaly (e.g. an upstream failure or
  /// replay): every active window's incremental result is demoted to the
  /// sample-estimate path. Late tuples trigger this automatically for the
  /// active windows that should have contained them.
  void NotifyDeliveryAnomaly();

  /// Serializes the manager's O(b) state for checkpointing: budget state
  /// of every active window (running moments, reservoir contents, group
  /// trackers), watermark/window bookkeeping, and the decision
  /// statistics. Raw-tuple custody (memory buffer and spill run alike) is
  /// deliberately NOT serialized — that is the whole point of approximate
  /// fault tolerance (AF-Stream): the snapshot stays O(b), and what custody
  /// held is either replayed by the executor or accounted as loss.
  Result<std::string> SnapshotState() const;

  /// Replaces this manager's state with a snapshot produced by
  /// SnapshotState() on an identically configured manager. Every restored
  /// window is flagged `recovered`: its raw buffer is incomplete, so the
  /// exact fallback and the grouped stratified scan are off the table —
  /// those windows answer from the budget state (possibly degraded).
  /// Empties custody and erases this worker's spill run, whatever a
  /// crashed predecessor left in it: the executor's replay re-spills what
  /// it re-feeds, so no spilled tuple is counted twice.
  Status RestoreState(const std::string& payload);

  /// Accounts `lost_tuples` consumed-but-unreplayable tuples (they fell
  /// off the executor's bounded replay log): every active window's ε̂_w
  /// gains the loss ratio lost/(count+lost) and the window is flagged
  /// anomalous + recovered. With no active window the loss is attached to
  /// the next window that opens.
  void NoteRecoveryLoss(std::uint64_t lost_tuples);

  SpearMode mode() const { return mode_; }
  const SpearOperatorConfig& config() const { return config_; }
  const DecisionStats& decision_stats() const { return decision_stats_; }

  /// Wires the owning worker's metrics: storage retries and spills as
  /// they happen, and decision_stats() as published by PublishMetrics().
  /// Optional; null disables reporting.
  void SetMetrics(WorkerMetrics* metrics) { metrics_ = metrics; }

  /// Publishes decision_stats() into the worker's counters (monotone, so
  /// a restore that rolled the stats back leaves them in place until
  /// replay passes them) and sets the occupancy gauges. Runs whenever
  /// OnWatermark closes a window; the owner calls it once more at end of
  /// stream. Never per tuple.
  void PublishMetrics();

  /// Wires the per-window trace sink (null: no spans); `stage`/`task`
  /// label the spans.
  void SetTracer(obs::WindowTracer* tracer, std::string stage, int task);

  /// Test hook for the accuracy-audit guard: drops the loss accounting —
  /// shed/lost tuples stop inflating ε̂_w and stop rescaling count/sum
  /// estimates to the full population. Estimates then systematically
  /// overshoot their accuracy claim under shedding, which the statistical
  /// audit must detect (proving the audit would catch a real regression
  /// in the ε̂_w arithmetic).
  void IgnoreLossAccountingForTesting() { ignore_loss_accounting_ = true; }

  /// Test hook: wipes the budget state (samplers/trackers) of every
  /// active window, simulating corruption. Subsequent decisions detect it
  /// and fall back to exact processing.
  void CorruptBudgetForTesting();

  /// Tuples currently buffered (memory + spill).
  std::size_t BufferedTuples() const { return custody_.size(); }

  /// Bytes of budget state (samples + statistics) across active windows —
  /// the "memory used for producing the result" of Fig. 7.
  std::size_t BudgetMemoryBytes() const;

  /// Bytes of raw buffered tuples resident in memory.
  std::size_t BufferMemoryBytes() const { return custody_.MemoryBytes(); }

  /// The per-window sample capacity derived from the budget (the value
  /// new windows open with right now, when adaptive).
  std::size_t budget_elements() const;

  /// The adaptive controller, or null when the budget is fixed.
  const BudgetController* budget_controller() const {
    return budget_controller_ ? &*budget_controller_ : nullptr;
  }

 private:
  /// One window's loss accounting: the only code that knows what lost,
  /// shed and late tuples do to the window's arrivals, its ε̂_w and its raw
  /// buffer. `count` is the window's admitted tuples; `ignored` is the
  /// IgnoreLossAccountingForTesting hook.
  struct WindowLoss {
    std::uint64_t lost = 0;  ///< consumed tuples lost in recovery
    std::uint64_t shed = 0;  ///< tuples shed at admission (exact count)
    /// Delivery anomaly (late, lost or shed tuples): incremental results
    /// are no longer exact, so SPEAr answers from the sample + accuracy
    /// estimate (paper Sec. 4.1: "SPEAr uses b's contents only when an
    /// anomaly is detected in tuple delivery").
    bool anomalous = false;
    bool recovered = false;  ///< lived through a crash/restore cycle
    /// The stream closed abnormally under the window (watchdog): an
    /// unknown suffix is missing, so the window must emit degraded.
    bool truncated = false;

    void NoteLost(std::uint64_t tuples) {
      lost += tuples;
      anomalous = recovered = true;
    }
    std::uint64_t Arrivals(std::uint64_t count) const {
      return count + lost + shed;
    }
    /// The population the sample stands for: sheds are counted exactly.
    std::uint64_t Population(std::uint64_t count, bool ignored) const {
      return ignored ? count : count + shed;
    }
    /// AF-Stream-style ε̂_w inflation: the fraction of arrivals that never
    /// reached the budget state bounds how far an estimate can be off.
    double Inflation(std::uint64_t count, bool ignored) const {
      if (ignored || lost + shed == 0) return 0.0;
      return static_cast<double>(lost + shed) /
             static_cast<double>(Arrivals(count));
    }
    /// The raw buffer misses tuples: a restore emptied custody, or shed
    /// tuples never entered it.
    bool RawWindowIncomplete() const { return recovered || shed > 0; }
  };

  /// Budget state of one active window.
  struct WindowState {
    /// Sample budget this window was opened with (fixed-budget managers
    /// use the configured value; adaptive managers snapshot the
    /// controller at window creation).
    std::size_t budget = 0;
    std::uint64_t count = 0;               ///< |S_w| so far (exact)
    WindowLoss loss;
    RunningStats stats;                    ///< full-window moments (scalar)
    std::unique_ptr<ReservoirSampler<double>> sample;  ///< scalar modes
    std::unique_ptr<GroupStatsTracker> groups;         ///< grouped modes
    /// Per-group reservoirs (kGroupedKnown only).
    std::unordered_map<std::string, ReservoirSampler<double>> group_samples;
  };

  static SpearMode DeriveMode(const SpearOperatorConfig& config,
                              bool is_grouped);

  WindowState& StateFor(std::int64_t window_start);
  void UpdateWindowState(WindowState* state, const Tuple& tuple);

  /// Counts a tuple behind the watermark and flags the delivery anomaly on
  /// the still-active windows that should have contained it (Sec. 4.1).
  void NoteLateTuple(std::int64_t coord);

  /// Lowers the first window start still needed to cover `coord`.
  void NoteWindowStart(std::int64_t coord);

  /// Decides + produces the result for one complete window. Sets
  /// `needs_tuples` when the exact fallback (or the grouped stratified
  /// scan) requires the raw window.
  Result<WindowResult> DecideWindow(const WindowBounds& bounds,
                                    WindowState* state, bool* needs_scan,
                                    bool* needs_exact);

  /// Scalar estimation dispatch (built-in or custom estimator).
  Result<ScalarEstimate> EstimateScalarForState(const WindowState& state);

  /// Builds the stratified sample for an accepted grouped-unknown window
  /// by scanning the buffer once, then evaluates every group.
  Status PopulateGroupedResultFromScan(
      const WindowBounds& bounds, const std::vector<GroupAllocation>& allocs,
      WindowResult* result);

  /// Evaluates one group: a quantile from its uniform `sample`, Count as
  /// its exact `frequency`, Sum as the mean scaled by it, the rest from
  /// its moments (`moments`, or the sample's own when null).
  Result<double> EvaluateGroup(const std::vector<double>& sample,
                               const RunningStats* moments,
                               std::uint64_t frequency) const;

  /// Evaluates groups from per-group reservoirs (kGroupedKnown accept).
  Status PopulateGroupedResultFromReservoirs(const WindowState& state,
                                             WindowResult* result);

  /// Materializes a window's tuples for exact processing. A non-zero
  /// `deadline_ns` (absolute, NowNs clock) makes the copy loop check the
  /// clock periodically and abort with Status::Cancelled once past it —
  /// the cooperative half of the deadline-bounded exact fallback.
  Result<CompleteWindow> MaterializeWindow(const WindowBounds& bounds,
                                           std::int64_t deadline_ns = 0);

  /// True when the window's budget state is internally inconsistent (null
  /// sampler/tracker, or a sample larger than the window): the estimate
  /// cannot be trusted, so the decision falls back to exact.
  bool BudgetStateCorrupted(const WindowState& state) const;

  /// Emits the window from the budget sample even though the decision
  /// demanded exact processing (spilled state unavailable after retries):
  /// the AF-Stream trade of accuracy for availability. Holistic grouped
  /// windows cannot degrade (their result needs the raw window) and
  /// propagate the storage error instead.
  Result<WindowResult> MakeDegradedResult(const WindowBounds& bounds,
                                          WindowState* state);

  /// Forwards the storage retries of one custody call to the worker
  /// metrics.
  void ReportRetries(const TupleCustody::Retries& retries);

  void EvictExpired();

  const SpearOperatorConfig config_;
  const SpearMode mode_;
  const ValueExtractor value_extractor_;
  const KeyExtractor key_extractor_;

  const std::size_t budget_elements_;
  const std::size_t max_groups_;
  const ExactWindowOperator exact_operator_;
  std::optional<BudgetController> budget_controller_;

  TupleCustody custody_;

  std::map<std::int64_t, WindowState> window_states_;
  std::int64_t next_window_start_ = 0;
  bool saw_any_tuple_ = false;
  std::int64_t last_watermark_;
  std::uint64_t sampler_seq_ = 0;
  /// Recovery loss reported while no window was active; charged to the
  /// next window that opens (see NoteRecoveryLoss).
  std::uint64_t pending_lost_ = 0;

  WorkerMetrics* metrics_ = nullptr;
  bool ignore_loss_accounting_ = false;

  obs::WindowTracer* tracer_ = nullptr;  // null unless tracing
  std::string span_stage_;
  int span_task_ = 0;

  DecisionStats decision_stats_;
};

}  // namespace spear
