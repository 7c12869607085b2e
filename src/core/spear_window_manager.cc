#include "core/spear_window_manager.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "checkpoint/wire.h"
#include "common/time.h"
#include "stats/quantile.h"
#include "window/window_assigner.h"

namespace spear {

namespace {

/// Version byte of the manager's checkpoint payload.
/// v2: per-window shed/truncated flags, reservoir skipped counts, tracker
/// shed counts, shed/deadline decision counters (overload control).
/// v3: no raw-tuple custody state (spill manifest, run sequence, spill
/// failure count); the payload is budget state and bookkeeping only.
/// v4: no per-window recovered flag (every restored window is recovered).
constexpr std::uint8_t kManagerPayloadVersion = 4;

void AppendRunningStats(std::string* out, const RunningStats& stats) {
  const RunningStats::State s = stats.state();
  wire::AppendU64(out, s.count);
  wire::AppendF64(out, s.mean);
  wire::AppendF64(out, s.m2);
  wire::AppendF64(out, s.m3);
  wire::AppendF64(out, s.m4);
  wire::AppendF64(out, s.sum);
  wire::AppendF64(out, s.min);
  wire::AppendF64(out, s.max);
}

Result<RunningStats> ReadRunningStats(wire::Reader* reader) {
  RunningStats::State s;
  SPEAR_ASSIGN_OR_RETURN(s.count, reader->ReadU64());
  SPEAR_ASSIGN_OR_RETURN(s.mean, reader->ReadF64());
  SPEAR_ASSIGN_OR_RETURN(s.m2, reader->ReadF64());
  SPEAR_ASSIGN_OR_RETURN(s.m3, reader->ReadF64());
  SPEAR_ASSIGN_OR_RETURN(s.m4, reader->ReadF64());
  SPEAR_ASSIGN_OR_RETURN(s.sum, reader->ReadF64());
  SPEAR_ASSIGN_OR_RETURN(s.min, reader->ReadF64());
  SPEAR_ASSIGN_OR_RETURN(s.max, reader->ReadF64());
  return RunningStats::FromState(s);
}

void AppendReservoir(std::string* out,
                     const ReservoirSampler<double>& sampler) {
  wire::AppendU64(out, sampler.capacity());
  wire::AppendU64(out, sampler.seen());
  wire::AppendU64(out, sampler.skipped());
  wire::AppendU64(out, sampler.sample().size());
  for (const double v : sampler.sample()) wire::AppendF64(out, v);
}

Result<ReservoirSampler<double>> ReadReservoir(wire::Reader* reader,
                                               std::uint64_t seed) {
  SPEAR_ASSIGN_OR_RETURN(const std::uint64_t capacity, reader->ReadU64());
  SPEAR_ASSIGN_OR_RETURN(const std::uint64_t seen, reader->ReadU64());
  SPEAR_ASSIGN_OR_RETURN(const std::uint64_t skipped, reader->ReadU64());
  SPEAR_ASSIGN_OR_RETURN(const std::uint64_t n, reader->ReadU64());
  std::vector<double> values;
  values.reserve(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    SPEAR_ASSIGN_OR_RETURN(const double v, reader->ReadF64());
    values.push_back(v);
  }
  if (capacity == 0) {
    return Status::Invalid("spear snapshot: reservoir capacity 0");
  }
  ReservoirSampler<double> sampler(capacity, seed);
  SPEAR_RETURN_NOT_OK(sampler.Restore(std::move(values), seen, skipped));
  return sampler;
}

}  // namespace

const char* SpearModeName(SpearMode mode) {
  switch (mode) {
    case SpearMode::kScalarIncremental:
      return "scalar-incremental";
    case SpearMode::kScalarSampled:
      return "scalar-sampled";
    case SpearMode::kScalarQuantile:
      return "scalar-quantile";
    case SpearMode::kGroupedUnknown:
      return "grouped-unknown";
    case SpearMode::kGroupedKnown:
      return "grouped-known";
  }
  return "?";
}

SpearMode SpearWindowManager::DeriveMode(const SpearOperatorConfig& config,
                                         bool is_grouped) {
  if (is_grouped) {
    return config.known_num_groups > 0 ? SpearMode::kGroupedKnown
                                       : SpearMode::kGroupedUnknown;
  }
  if (config.aggregate.IsHolistic()) return SpearMode::kScalarQuantile;
  if (config.custom_estimator) return SpearMode::kScalarSampled;
  return config.incremental_optimization ? SpearMode::kScalarIncremental
                                         : SpearMode::kScalarSampled;
}

SpearWindowManager::SpearWindowManager(SpearOperatorConfig config,
                                       ValueExtractor value_extractor,
                                       KeyExtractor key_extractor,
                                       SecondaryStorage* storage,
                                       std::string spill_key)
    : config_(std::move(config)),
      mode_(DeriveMode(config_, static_cast<bool>(key_extractor))),
      value_extractor_(std::move(value_extractor)),
      key_extractor_(std::move(key_extractor)),
      budget_elements_(config_.budget.ElementsFor(sizeof(double))),
      // Per the paper, b holds floor(b / (r + 4 + f)) groups' metadata;
      // for tuple-denominated budgets the capacity is one group per slot.
      max_groups_(config_.budget.IsByteDenominated()
                      ? config_.budget.ElementsFor(8 + 4 + sizeof(double))
                      : budget_elements_),
      exact_operator_(config_.aggregate, value_extractor_, key_extractor_),
      custody_(config_.buffer_memory_capacity, storage, std::move(spill_key),
               config_.storage_retry, config_.seed),
      last_watermark_(kMinTimestamp) {
  SPEAR_CHECK(config_.Validate().ok());
  SPEAR_CHECK(budget_elements_ > 0);
  if (config_.adaptive_budget) {
    BudgetController::Options options = config_.adaptive_options;
    options.initial_budget = budget_elements_;
    options.min_budget = std::min(options.min_budget, budget_elements_);
    options.max_budget = std::max(options.max_budget, budget_elements_);
    auto controller = BudgetController::Make(options);
    SPEAR_CHECK(controller.ok());
    budget_controller_.emplace(std::move(*controller));
  }
}

std::size_t SpearWindowManager::budget_elements() const {
  return budget_controller_ ? budget_controller_->budget() : budget_elements_;
}

void SpearWindowManager::SetTracer(obs::WindowTracer* tracer,
                                   std::string stage, int task) {
  tracer_ = tracer;
  span_stage_ = std::move(stage);
  span_task_ = task;
}

void SpearWindowManager::PublishMetrics() {
  if (metrics_ == nullptr) return;
  const DecisionStats& d = decision_stats_;
  metrics_->Publish(WorkerMetrics::kWindowsExpedited, d.windows_expedited);
  metrics_->Publish(WorkerMetrics::kWindowsExact, d.windows_exact);
  metrics_->Publish(WorkerMetrics::kWindowsDegraded, d.windows_degraded);
  metrics_->Publish(WorkerMetrics::kWindowsRecovered, d.windows_recovered);
  metrics_->Publish(WorkerMetrics::kWindowsShedLoss, d.windows_shed);
  metrics_->Publish(WorkerMetrics::kDeadlineAborts, d.deadline_aborts);
  metrics_->Publish(WorkerMetrics::kTuplesSeen, d.tuples_seen);
  metrics_->Publish(WorkerMetrics::kLateTuples, d.late_tuples);
  metrics_->Publish(WorkerMetrics::kTuplesShed, d.tuples_shed);
  metrics_->Set(WorkerMetrics::kBufferedTuples, BufferedTuples());
  metrics_->Set(WorkerMetrics::kBudgetStateBytes, BudgetMemoryBytes());
}

SpearWindowManager::WindowState& SpearWindowManager::StateFor(
    std::int64_t window_start) {
  auto it = window_states_.find(window_start);
  if (it != window_states_.end()) return it->second;
  WindowState state;
  // Snapshot the budget the window opens with (fixed, or the adaptive
  // controller's current value).
  state.budget = budget_elements();
  switch (mode_) {
    case SpearMode::kScalarIncremental:
    case SpearMode::kScalarSampled:
    case SpearMode::kScalarQuantile:
      state.sample = std::make_unique<ReservoirSampler<double>>(
          state.budget, config_.seed + sampler_seq_++);
      break;
    case SpearMode::kGroupedUnknown:
    case SpearMode::kGroupedKnown:
      state.groups = std::make_unique<GroupStatsTracker>(
          config_.budget.IsByteDenominated() ? max_groups_ : state.budget);
      break;
  }
  if (pending_lost_ > 0) {
    // Recovery loss reported while no window was active: the lost tuples'
    // windows are unknown, so charge the first window that opens (an
    // upper bound — better flagged too pessimistically than not at all).
    state.loss.NoteLost(pending_lost_);
    pending_lost_ = 0;
  }
  return window_states_.emplace(window_start, std::move(state)).first->second;
}

void SpearWindowManager::UpdateWindowState(WindowState* state,
                                           const Tuple& tuple) {
  ++state->count;
  const double value = value_extractor_(tuple);
  switch (mode_) {
    case SpearMode::kScalarIncremental:
    case SpearMode::kScalarSampled:
    case SpearMode::kScalarQuantile:
      state->stats.Update(value);
      // Null after budget-state corruption: the window is already doomed
      // to the exact fallback, so just stop feeding the estimate.
      if (state->sample) state->sample->Offer(value);
      break;
    case SpearMode::kGroupedUnknown:
      if (state->groups) state->groups->Update(key_extractor_(tuple), value);
      break;
    case SpearMode::kGroupedKnown: {
      if (state->groups == nullptr) break;  // corrupted: exact fallback
      const std::string key = key_extractor_(tuple);
      state->groups->Update(key, value);
      auto it = state->group_samples.find(key);
      if (it == state->group_samples.end()) {
        const std::size_t cap = std::max<std::size_t>(
            state->budget / config_.known_num_groups, 1);
        it = state->group_samples
                 .emplace(key, ReservoirSampler<double>(
                                   cap, config_.seed + sampler_seq_++))
                 .first;
      }
      it->second.Offer(value);
      break;
    }
  }
}

void SpearWindowManager::NotifyDeliveryAnomaly() {
  for (auto& [start, state] : window_states_) state.loss.anomalous = true;
}

void SpearWindowManager::NoteRecoveryLoss(std::uint64_t lost_tuples) {
  if (lost_tuples == 0) return;
  if (window_states_.empty()) {
    pending_lost_ += lost_tuples;
    return;
  }
  // The lost tuples' window membership is unknown (they were never
  // replayed); charge every active window the full loss — each window's
  // ε̂_w inflation then upper-bounds the tuples it could have missed.
  for (auto& [start, state] : window_states_) state.loss.NoteLost(lost_tuples);
}

void SpearWindowManager::NoteLateTuple(std::int64_t coord) {
  ++decision_stats_.late_tuples;
  for (auto& [start, state] : window_states_) {
    if (coord >= start && coord < start + config_.window.range) {
      state.loss.anomalous = true;
    }
  }
}

void SpearWindowManager::NoteWindowStart(std::int64_t coord) {
  const std::int64_t first = FirstWindowStartFor(config_.window, coord);
  if (saw_any_tuple_) {
    next_window_start_ = std::min(next_window_start_, first);
  } else {
    next_window_start_ = first;
    saw_any_tuple_ = true;
  }
}

void SpearWindowManager::OnTupleShed(std::int64_t coord) {
  // A late tuple that was shed would not have joined any active window's
  // budget state anyway: the same anomaly accounting as OnTuple's.
  if (coord < last_watermark_) {
    NoteLateTuple(coord);
    return;
  }
  ++decision_stats_.tuples_shed;
  NoteWindowStart(coord);

  // Account the drop against every window the tuple would have joined.
  // The budget state stays a uniform sample of the *admitted* subset; the
  // samplers record the skipped mass so inclusion probabilities (and the
  // count/sum rescaling) stay honest, and `shed` feeds ε̂_w inflation.
  const auto charge = [&](WindowState* state) {
    ++state->loss.shed;
    state->loss.anomalous = true;  // incremental results can't be exact
    if (state->sample) state->sample->NoteSkipped(1);
    if (state->groups) state->groups->NoteShed(1);
  };
  if (config_.window.IsTumbling()) {
    charge(&StateFor(LastWindowStartFor(config_.window, coord)));
  } else {
    for (const WindowBounds& w : AssignWindows(config_.window, coord)) {
      charge(&StateFor(w.start));
    }
  }
}

void SpearWindowManager::NoteStreamTruncation() {
  for (auto& [start, state] : window_states_) {
    state.loss.anomalous = state.loss.truncated = true;
  }
}

void SpearWindowManager::OnTuple(std::int64_t coord, Tuple tuple) {
  if (coord < last_watermark_) {
    NoteLateTuple(coord);
    return;
  }
  ++decision_stats_.tuples_seen;
  NoteWindowStart(coord);

  // Alg. 1: update the budget state of every window the tuple joins
  // (tumbling fast path avoids the per-tuple window-list allocation).
  if (config_.window.IsTumbling()) {
    UpdateWindowState(&StateFor(LastWindowStartFor(config_.window, coord)),
                      tuple);
  } else {
    for (const WindowBounds& w : AssignWindows(config_.window, coord)) {
      UpdateWindowState(&StateFor(w.start), tuple);
    }
  }

  // Raw tuple custody: memory within the worker budget, S beyond it.
  TupleCustody::Retries retries;
  switch (custody_.Append(coord, std::move(tuple), &retries)) {
    case TupleCustody::Placement::kMemory:
      return;
    case TupleCustody::Placement::kSpilled:
      if (metrics_ != nullptr) metrics_->AddSpillTuples(1);
      break;
    case TupleCustody::Placement::kSpillFailed:
      // S stayed unavailable after retries: custody kept the tuple in
      // memory past the budget — degraded custody, not data loss.
      if (metrics_ != nullptr) metrics_->AddSpillFailures(1);
      break;
  }
  ReportRetries(retries);
}

void SpearWindowManager::ReportRetries(const TupleCustody::Retries& retries) {
  if (metrics_ == nullptr || retries.retries == 0) return;
  metrics_->AddRetries(retries.retries);
  metrics_->AddRecovered(retries.recovered);
}

Result<ScalarEstimate> SpearWindowManager::EstimateScalarForState(
    const WindowState& state) {
  // Count/sum estimates stay centered under uniform shedding (sum scales
  // the sample mean to the full population), and any non-uniform shedding
  // bias is covered by the ε̂_w inflation in DecideWindow.
  const std::uint64_t population =
      state.loss.Population(state.count, ignore_loss_accounting_);
  if (config_.custom_estimator) {
    return config_.custom_estimator(state.sample->sample(), state.stats,
                                    population, config_.accuracy);
  }
  if (mode_ == SpearMode::kScalarQuantile) {
    return EstimateScalarQuantile(config_.aggregate.phi,
                                  state.sample->sample(), population,
                                  config_.accuracy, config_.quantile_bound);
  }
  return EstimateScalar(config_.aggregate, state.sample->sample(),
                        state.stats, population, config_.accuracy);
}

Status SpearWindowManager::PopulateGroupedResultFromScan(
    const WindowBounds& bounds, const std::vector<GroupAllocation>& allocs,
    WindowResult* result) {
  // Build the stratified sample with one pass over the buffer — the scan
  // the single-buffer design already owes for eviction. One lookup per
  // tuple; samplers are created lazily with Algorithm R (no init draws —
  // congress allocations are tiny for sparse groups, so Algorithm L's
  // skip machinery would cost more than it saves).
  struct GroupSample {
    std::uint64_t want = 0;
    std::unique_ptr<ReservoirSampler<double>> sampler;
  };
  std::unordered_map<std::string, GroupSample> samples;
  samples.reserve(allocs.size() * 2);
  for (const GroupAllocation& a : allocs) {
    samples.emplace(a.key, GroupSample{a.sample_size, nullptr});
  }

  for (const TupleCustody::Entry& e : custody_.memory()) {
    if (!bounds.Contains(e.coord)) continue;
    const auto it = samples.find(key_extractor_(e.tuple));
    if (it == samples.end()) continue;  // cannot happen: tracker saw all
    if (it->second.sampler == nullptr) {
      it->second.sampler = std::make_unique<ReservoirSampler<double>>(
          it->second.want, config_.seed + sampler_seq_++,
          ReservoirAlgorithm::kAlgorithmR);
    }
    it->second.sampler->Offer(value_extractor_(e.tuple));
  }

  result->is_grouped = true;
  result->groups.reserve(allocs.size());
  std::uint64_t processed = 0;
  for (const GroupAllocation& a : allocs) {
    const auto it = samples.find(a.key);
    if (it == samples.end() || it->second.sampler == nullptr) {
      return Status::Internal("group '" + a.key +
                              "' tracked but absent from window scan");
    }
    const std::vector<double>& sample = it->second.sampler->sample();
    processed += sample.size();
    SPEAR_ASSIGN_OR_RETURN(const double v,
                           EvaluateGroup(sample, nullptr, a.frequency));
    result->groups.emplace_back(a.key, v);
  }
  result->tuples_processed = processed;
  return Status::OK();
}

Result<double> SpearWindowManager::EvaluateGroup(
    const std::vector<double>& sample, const RunningStats* moments,
    std::uint64_t frequency) const {
  const AggregateSpec& aggregate = config_.aggregate;
  if (aggregate.IsHolistic()) return ExactQuantile(sample, aggregate.phi);
  if (aggregate.kind == AggregateKind::kCount) {
    return static_cast<double>(frequency);  // exact from the tracker
  }
  RunningStats sample_moments;
  if (moments == nullptr) {
    for (double x : sample) sample_moments.Update(x);
    moments = &sample_moments;
  }
  if (aggregate.kind == AggregateKind::kSum) {
    return moments->mean() * static_cast<double>(frequency);
  }
  return EvaluateFromStats(aggregate, *moments);
}

Status SpearWindowManager::PopulateGroupedResultFromReservoirs(
    const WindowState& state, WindowResult* result) {
  result->is_grouped = true;
  result->groups.reserve(state.group_samples.size());
  std::uint64_t processed = 0;
  for (const auto& [key, stats] : state.groups->groups()) {
    const auto it = state.group_samples.find(key);
    if (it == state.group_samples.end()) {
      return Status::Internal("group '" + key + "' has no reservoir");
    }
    const std::vector<double>& sample = it->second.sample();
    processed += sample.size();
    SPEAR_ASSIGN_OR_RETURN(const double v,
                           EvaluateGroup(sample, nullptr, stats.count()));
    result->groups.emplace_back(key, v);
  }
  std::sort(result->groups.begin(), result->groups.end());
  result->tuples_processed = processed;
  return Status::OK();
}

Result<CompleteWindow> SpearWindowManager::MaterializeWindow(
    const WindowBounds& bounds, std::int64_t deadline_ns) {
  CompleteWindow window;
  window.bounds = bounds;
  // Clock reads are amortized over batches of copies so the deadline
  // check stays off the per-tuple critical path.
  constexpr std::size_t kDeadlineCheckStride = 256;
  std::size_t since_check = 0;
  for (const TupleCustody::Entry& e : custody_.memory()) {
    if (!bounds.Contains(e.coord)) continue;
    if (deadline_ns != 0 && ++since_check == kDeadlineCheckStride) {
      since_check = 0;
      if (NowNs() > deadline_ns) {
        return Status::Cancelled("exact fallback exceeded its deadline");
      }
    }
    window.tuples.push_back(e.tuple);
  }
  return window;
}

bool SpearWindowManager::BudgetStateCorrupted(const WindowState& state) const {
  switch (mode_) {
    case SpearMode::kScalarIncremental:
    case SpearMode::kScalarSampled:
    case SpearMode::kScalarQuantile:
      return state.sample == nullptr ||
             state.sample->sample().size() > state.count;
    case SpearMode::kGroupedUnknown:
    case SpearMode::kGroupedKnown:
      return state.groups == nullptr;
  }
  return true;
}

void SpearWindowManager::CorruptBudgetForTesting() {
  for (auto& [start, state] : window_states_) {
    state.sample.reset();
    state.groups.reset();
    state.group_samples.clear();
  }
}

Result<WindowResult> SpearWindowManager::MakeDegradedResult(
    const WindowBounds& bounds, WindowState* state) {
  const double inflate =
      state->loss.Inflation(state->count, ignore_loss_accounting_);
  WindowResult result;
  result.bounds = bounds;
  result.window_size = state->loss.Arrivals(state->count);
  result.approximate = true;
  result.degraded = true;
  result.recovered = state->loss.recovered;

  switch (mode_) {
    case SpearMode::kScalarIncremental:
    case SpearMode::kScalarSampled:
    case SpearMode::kScalarQuantile: {
      // Emit the sample estimate even though it failed the budget test;
      // ε̂_w documents the (unmet) accuracy.
      SPEAR_ASSIGN_OR_RETURN(const ScalarEstimate est,
                             EstimateScalarForState(*state));
      result.scalar = est.estimate;
      result.estimated_error = est.epsilon_hat + inflate;
      result.tuples_processed = state->sample->sample().size();
      return result;
    }
    case SpearMode::kGroupedKnown: {
      SPEAR_ASSIGN_OR_RETURN(
          const GroupedEstimate est,
          EstimateGrouped(config_.aggregate, *state->groups, state->budget,
                          config_.accuracy, config_.group_error_norm,
                          config_.quantile_bound));
      result.estimated_error = est.epsilon_hat + inflate;
      SPEAR_RETURN_NOT_OK(PopulateGroupedResultFromReservoirs(*state, &result));
      return result;
    }
    case SpearMode::kGroupedUnknown: {
      // The stratified sample would need the raw window (partly in S).
      // Non-holistic aggregates can still be answered from the tracker's
      // per-group moments; holistic ones cannot degrade at all.
      if (config_.aggregate.IsHolistic()) {
        return Status::Unavailable(
            "cannot degrade holistic grouped window: spilled tuples "
            "unavailable");
      }
      SPEAR_ASSIGN_OR_RETURN(
          const GroupedEstimate est,
          EstimateGrouped(config_.aggregate, *state->groups, state->budget,
                          config_.accuracy, config_.group_error_norm,
                          config_.quantile_bound));
      result.estimated_error = est.epsilon_hat + inflate;
      result.is_grouped = true;
      result.groups.reserve(state->groups->num_groups());
      std::uint64_t processed = 0;
      for (const auto& [key, stats] : state->groups->groups()) {
        SPEAR_ASSIGN_OR_RETURN(const double v,
                               EvaluateGroup({}, &stats, stats.count()));
        result.groups.emplace_back(key, v);
        processed += stats.count();
      }
      std::sort(result.groups.begin(), result.groups.end());
      result.tuples_processed = processed;
      return result;
    }
  }
  return Status::Internal("unknown mode");
}

Result<WindowResult> SpearWindowManager::DecideWindow(
    const WindowBounds& bounds, WindowState* state, bool* needs_scan,
    bool* needs_exact) {
  *needs_scan = false;
  *needs_exact = false;

  // Delivery-loss inflation: an estimate is only accepted when ε̂_w plus
  // the recovery-loss + shed ratio still meets the spec — the AF-Stream
  // contract folded into the paper's expedite test.
  const double inflate =
      state->loss.Inflation(state->count, ignore_loss_accounting_);
  const auto meets_spec = [&](double epsilon_hat) {
    return inflate == 0.0 ||
           epsilon_hat + inflate <= config_.accuracy.epsilon;
  };

  WindowResult result;
  result.bounds = bounds;
  result.window_size = state->loss.Arrivals(state->count);
  result.recovered = state->loss.recovered;

  // Corrupted budget state means no estimate can be trusted: fall back to
  // the exact path (the safe direction of the degradation trade).
  if (BudgetStateCorrupted(*state)) {
    *needs_exact = true;
    return result;
  }

  switch (mode_) {
    case SpearMode::kScalarIncremental: {
      if (!state->loss.anomalous) {
        // Exact result from the running accumulator; no watermark-time
        // work.
        SPEAR_ASSIGN_OR_RETURN(result.scalar,
                               EvaluateFromStats(config_.aggregate,
                                                 state->stats));
        result.approximate = false;
        result.tuples_processed = 0;
        return result;
      }
      // Delivery anomaly: the accumulator may have missed tuples. Fall
      // back to the budget sample and its accuracy estimate; only rescan
      // the window when even that fails the spec (paper Sec. 4.1).
      SPEAR_ASSIGN_OR_RETURN(const ScalarEstimate est,
                             EstimateScalarForState(*state));
      if (est.accepted && meets_spec(est.epsilon_hat)) {
        result.scalar = est.estimate;
        result.approximate = true;
        result.estimated_error = est.epsilon_hat + inflate;
        result.tuples_processed = state->sample->sample().size();
        return result;
      }
      *needs_exact = true;
      return result;
    }
    case SpearMode::kScalarSampled:
    case SpearMode::kScalarQuantile: {
      SPEAR_ASSIGN_OR_RETURN(const ScalarEstimate est,
                             EstimateScalarForState(*state));
      if (est.accepted && meets_spec(est.epsilon_hat)) {
        result.scalar = est.estimate;
        result.approximate = true;
        result.estimated_error = est.epsilon_hat + inflate;
        result.tuples_processed = state->sample->sample().size();
        return result;
      }
      *needs_exact = true;
      return result;
    }
    case SpearMode::kGroupedUnknown: {
      SPEAR_ASSIGN_OR_RETURN(
          const GroupedEstimate est,
          EstimateGrouped(config_.aggregate, *state->groups, state->budget,
                          config_.accuracy, config_.group_error_norm,
                          config_.quantile_bound));
      if (est.accepted && meets_spec(est.epsilon_hat)) {
        result.approximate = true;
        result.estimated_error = est.epsilon_hat + inflate;
        SPEAR_RETURN_NOT_OK(
            PopulateGroupedResultFromScan(bounds, est.allocations, &result));
        *needs_scan = true;
        return result;
      }
      *needs_exact = true;
      return result;
    }
    case SpearMode::kGroupedKnown: {
      // The declared group count bounds the budget split; more groups than
      // declared means the reservoirs are undersized — fall back.
      if (state->groups->overflowed() ||
          state->groups->num_groups() > config_.known_num_groups) {
        *needs_exact = true;
        return result;
      }
      std::vector<GroupAllocation> allocations;
      allocations.reserve(state->groups->num_groups());
      for (const auto& [key, stats] : state->groups->groups()) {
        const auto it = state->group_samples.find(key);
        const std::uint64_t n =
            it == state->group_samples.end() ? 0 : it->second.sample().size();
        allocations.push_back(GroupAllocation{key, stats.count(), n});
      }
      std::sort(allocations.begin(), allocations.end(),
                [](const GroupAllocation& a, const GroupAllocation& b) {
                  return a.key < b.key;
                });
      SPEAR_ASSIGN_OR_RETURN(
          const GroupedEstimate est,
          EstimateGroupedWithAllocations(
              config_.aggregate, *state->groups, std::move(allocations),
              config_.accuracy, config_.group_error_norm,
              config_.quantile_bound));
      if (est.accepted && meets_spec(est.epsilon_hat)) {
        result.approximate = true;
        result.estimated_error = est.epsilon_hat + inflate;
        SPEAR_RETURN_NOT_OK(
            PopulateGroupedResultFromReservoirs(*state, &result));
        return result;
      }
      *needs_exact = true;
      return result;
    }
  }
  return Status::Internal("unknown mode");
}

Result<std::vector<WindowResult>> SpearWindowManager::OnWatermark(
    std::int64_t watermark) {
  std::vector<WindowResult> out;
  // Clamp (the end-of-stream watermark is kMaxTimestamp) so the window
  // arithmetic below cannot overflow.
  watermark = ClampWatermark(config_.window, watermark);
  if (watermark <= last_watermark_) return out;
  last_watermark_ = watermark;
  if (!saw_any_tuple_) return out;
  // Nothing can complete: O(1) exit. Every buffered non-late tuple keeps
  // a state for each of its windows, so no state completing also means no
  // tuple expires — eviction can wait.
  if (window_states_.empty() ||
      window_states_.begin()->first + config_.window.range > watermark) {
    return out;
  }

  // Fetches the spilled run back into custody's memory (paying S latency).
  const auto unspill = [&] {
    TupleCustody::Retries retries;
    const Status fetched = custody_.Unspill(&retries);
    ReportRetries(retries);
    return fetched;
  };

  // Only windows with budget state can produce results; complete windows
  // without state are empty and can never gain tuples, so iterating the
  // (ordered) state map visits exactly the windows to emit.
  while (!window_states_.empty() &&
         window_states_.begin()->first + config_.window.range <= watermark) {
    auto state_it = window_states_.begin();
    WindowState& state = state_it->second;
    const WindowBounds bounds{state_it->first,
                              state_it->first + config_.window.range};
    if (state.count > 0) {
      ++decision_stats_.windows_total;
      bool needs_scan = false;
      bool needs_exact = false;
      bool degraded = false;
      bool deadline_aborted = false;

      std::int64_t window_ns = 0;
      WindowResult result;
      // Unspilling empties the run, so capture participation now.
      const bool had_spill = custody_.HasSpilled();
      {
        ScopedTimerNs timer(&window_ns);
        // The grouped accept path scans the buffer; make sure spilled
        // tuples participate in the stratified sample. An unavailable S
        // here is survivable: the decision below falls back to the
        // tracker-only degraded path.
        bool unspill_failed = false;
        if (mode_ == SpearMode::kGroupedUnknown && !state.loss.recovered &&
            custody_.HasSpilled()) {
          const Status fetched = unspill();
          if (!fetched.ok()) {
            if (!fetched.IsUnavailable()) return fetched;
            unspill_failed = true;
          }
        }
        // A window that can answer from its budget state even when the
        // decision demands exact. Holistic grouped-unknown windows cannot
        // (their degraded result needs the raw window).
        const bool can_degrade =
            !BudgetStateCorrupted(state) &&
            !(mode_ == SpearMode::kGroupedUnknown &&
              config_.aggregate.IsHolistic());
        if (state.loss.truncated && can_degrade) {
          // The stream was closed abnormally under this window (watchdog):
          // an unknown suffix is missing, so no accuracy claim can be
          // verified — emit the budget estimate, flagged degraded.
          SPEAR_ASSIGN_OR_RETURN(result, MakeDegradedResult(bounds, &state));
          degraded = true;
        } else if (unspill_failed) {
          needs_exact = true;
        } else if (mode_ == SpearMode::kGroupedUnknown &&
                   state.loss.recovered && !BudgetStateCorrupted(state)) {
          // A restored window's raw buffer is incomplete (snapshots are
          // O(b)), so the stratified-sample scan cannot run: answer from
          // the tracker alone, flagged.
          SPEAR_ASSIGN_OR_RETURN(result, MakeDegradedResult(bounds, &state));
          degraded = true;
        } else {
          SPEAR_ASSIGN_OR_RETURN(
              result, DecideWindow(bounds, &state, &needs_scan, &needs_exact));
        }
        if (needs_exact && !degraded) {
          if (state.loss.RawWindowIncomplete() &&
              !BudgetStateCorrupted(state)) {
            // An "exact" result would be silently wrong: a recovered
            // window's post-restore buffer is partial, and a shed window's
            // buffer is missing every tuple dropped at admission. Degrade
            // to the budget estimate with the loss-inflated ε̂_w instead.
            SPEAR_ASSIGN_OR_RETURN(result, MakeDegradedResult(bounds, &state));
            degraded = true;
          } else {
            // Alg. 2 line 5: g(S.get(tau_w)) — the whole window, possibly
            // fetched back from S, processed exactly. With a deadline
            // configured (and a degradable window), the fetch and the
            // materialization scan check the clock cooperatively — the
            // same cancellation discipline the spill path's simulated
            // latency uses — and a blown deadline emits the approximate
            // result flagged degraded instead of stalling the DAG.
            const std::int64_t deadline_ns =
                config_.exact_deadline_ms > 0 && can_degrade
                    ? NowNs() + config_.exact_deadline_ms * 1'000'000
                    : 0;
            const Status fetched =
                unspill_failed ? Status::Unavailable("spill run unavailable")
                               : unspill();
            if (fetched.ok()) {
              if (deadline_ns != 0 && NowNs() > deadline_ns) {
                // The unspill alone blew the budget.
                SPEAR_ASSIGN_OR_RETURN(
                    result, MakeDegradedResult(bounds, &state));
                degraded = true;
                deadline_aborted = true;
                ++decision_stats_.deadline_aborts;
              } else {
                Result<CompleteWindow> window =
                    MaterializeWindow(bounds, deadline_ns);
                if (!window.ok() && window.status().IsCancelled()) {
                  SPEAR_ASSIGN_OR_RETURN(
                      result, MakeDegradedResult(bounds, &state));
                  degraded = true;
                  deadline_aborted = true;
                  ++decision_stats_.deadline_aborts;
                } else {
                  SPEAR_RETURN_NOT_OK(window.status());
                  SPEAR_ASSIGN_OR_RETURN(
                      result, exact_operator_.Process(*window));
                }
              }
            } else if (fetched.IsUnavailable() &&
                       !BudgetStateCorrupted(state)) {
              // The exact fallback cannot run (S stayed unavailable after
              // retries). Degrade: emit the budget estimate, flagged.
              SPEAR_ASSIGN_OR_RETURN(
                  result, MakeDegradedResult(bounds, &state));
              degraded = true;
            } else {
              return fetched;
            }
          }
        }
      }
      result.processing_ns = window_ns;
      if (state.loss.recovered) {
        result.recovered = true;  // survives the exact-path overwrite
        ++decision_stats_.windows_recovered;
      }
      if (state.loss.shed > 0) ++decision_stats_.windows_shed;
      if (degraded) {
        ++decision_stats_.windows_degraded;
      } else if (needs_exact) {
        ++decision_stats_.windows_exact;
      } else {
        ++decision_stats_.windows_expedited;
      }
      if (tracer_ != nullptr) {
        obs::TraceSpan span;
        span.stage = span_stage_;
        span.task = span_task_;
        span.window_start = bounds.start;
        span.window_end = bounds.end;
        using Verdict = obs::TraceSpan::Verdict;
        span.verdict = degraded      ? Verdict::kDegraded
                       : needs_exact ? Verdict::kExact
                                     : Verdict::kExpedited;
        span.approximate = result.approximate;
        span.arrivals = state.loss.Arrivals(state.count);
        span.processed = result.tuples_processed;
        span.shed = state.loss.shed;
        span.lost = state.loss.lost;
        span.budget = state.budget;
        span.epsilon_spec = config_.accuracy.epsilon;
        span.alpha_spec = config_.accuracy.confidence;
        if (result.approximate) {
          span.epsilon_hat = result.estimated_error;
          span.loss_inflation =
              state.loss.Inflation(state.count, ignore_loss_accounting_);
          span.epsilon_sampling =
              std::max(0.0, span.epsilon_hat - span.loss_inflation);
        }
        span.recovered = state.loss.recovered;
        span.truncated = state.loss.truncated;
        span.spilled = had_spill;
        span.deadline_abort = deadline_aborted;
        span.processing_ns = window_ns;
        span.emitted_at_ns = NowNs();
        tracer_->Record(span);
      }
      if (budget_controller_) {
        // A degraded window counts as a fallback for budget adaptation: a
        // bigger sample makes the next degradation less inaccurate.
        budget_controller_->OnWindowOutcome(
            !needs_exact,
            result.approximate && !degraded
                ? result.estimated_error
                : std::numeric_limits<double>::infinity(),
            config_.accuracy.epsilon);
      }
      decision_stats_.tuples_processed += result.tuples_processed;
      out.push_back(std::move(result));
    }
    window_states_.erase(state_it);
  }

  // Everything below the first incomplete window can never be needed.
  next_window_start_ =
      std::max(next_window_start_,
               FirstIncompleteWindowStart(config_.window, watermark));

  // Eviction is the single-buffer design's bookkeeping, not part of
  // producing any window's result; it stays outside the per-window
  // processing time, matching the paper's Storm-metrics methodology.
  // (When a grouped window is expedited, the stratified-sample build that
  // the paper fuses with this scan IS charged to that window, inside
  // DecideWindow.)
  EvictExpired();
  PublishMetrics();
  return out;
}

void SpearWindowManager::EvictExpired() {
  custody_.EvictBefore(next_window_start_);
  // Drop window states that can no longer complete (safety: normally the
  // processing loop erased them).
  while (!window_states_.empty() &&
         window_states_.begin()->first < next_window_start_) {
    window_states_.erase(window_states_.begin());
  }
}

Result<std::string> SpearWindowManager::SnapshotState() const {
  std::string out;
  wire::AppendU8(&out, kManagerPayloadVersion);
  wire::AppendU8(&out, static_cast<std::uint8_t>(mode_));
  wire::AppendI64(&out, last_watermark_);
  wire::AppendI64(&out, next_window_start_);
  wire::AppendU8(&out, saw_any_tuple_ ? 1 : 0);
  wire::AppendU64(&out, sampler_seq_);
  wire::AppendU64(&out, pending_lost_);

  wire::AppendU64(&out, decision_stats_.windows_total);
  wire::AppendU64(&out, decision_stats_.windows_expedited);
  wire::AppendU64(&out, decision_stats_.windows_exact);
  wire::AppendU64(&out, decision_stats_.windows_degraded);
  wire::AppendU64(&out, decision_stats_.windows_recovered);
  wire::AppendU64(&out, decision_stats_.tuples_seen);
  wire::AppendU64(&out, decision_stats_.tuples_processed);
  wire::AppendU64(&out, decision_stats_.late_tuples);
  wire::AppendU64(&out, decision_stats_.tuples_shed);
  wire::AppendU64(&out, decision_stats_.windows_shed);
  wire::AppendU64(&out, decision_stats_.deadline_aborts);

  wire::AppendU64(&out, window_states_.size());
  for (const auto& [start, state] : window_states_) {
    wire::AppendI64(&out, start);
    wire::AppendU64(&out, state.budget);
    wire::AppendU64(&out, state.count);
    wire::AppendU64(&out, state.loss.lost);
    wire::AppendU64(&out, state.loss.shed);
    wire::AppendU8(&out, state.loss.anomalous ? 1 : 0);
    wire::AppendU8(&out, state.loss.truncated ? 1 : 0);
    AppendRunningStats(&out, state.stats);
    wire::AppendU8(&out, state.sample ? 1 : 0);
    if (state.sample) AppendReservoir(&out, *state.sample);
    wire::AppendU8(&out, state.groups ? 1 : 0);
    if (state.groups) {
      wire::AppendU64(&out, state.groups->max_groups());
      wire::AppendU8(&out, state.groups->overflowed() ? 1 : 0);
      wire::AppendU64(&out, state.groups->shed());
      wire::AppendU64(&out, state.groups->num_groups());
      for (const auto& [key, stats] : state.groups->groups()) {
        wire::AppendString(&out, key);
        AppendRunningStats(&out, stats);
      }
    }
    wire::AppendU64(&out, state.group_samples.size());
    for (const auto& [key, sampler] : state.group_samples) {
      wire::AppendString(&out, key);
      AppendReservoir(&out, sampler);
    }
  }
  return out;
}

Status SpearWindowManager::RestoreState(const std::string& payload) {
  wire::Reader reader(payload);
  SPEAR_ASSIGN_OR_RETURN(const std::uint8_t version, reader.ReadU8());
  if (version != kManagerPayloadVersion) {
    return Status::Invalid("spear snapshot: unsupported payload version " +
                           std::to_string(version));
  }
  SPEAR_ASSIGN_OR_RETURN(const std::uint8_t mode, reader.ReadU8());
  if (mode != static_cast<std::uint8_t>(mode_)) {
    return Status::Invalid(
        "spear snapshot: mode mismatch (snapshot was taken by a "
        "differently configured operator)");
  }

  // From here on the manager is rebuilt wholesale. Custody was not
  // serialized and starts empty, its spill run included: the executor
  // replays what it logged, and the replayed tuples that spill again must
  // not join tuples a crashed predecessor left in the run.
  custody_.Clear();
  window_states_.clear();

  SPEAR_ASSIGN_OR_RETURN(last_watermark_, reader.ReadI64());
  SPEAR_ASSIGN_OR_RETURN(next_window_start_, reader.ReadI64());
  SPEAR_ASSIGN_OR_RETURN(const std::uint8_t saw, reader.ReadU8());
  saw_any_tuple_ = saw != 0;
  SPEAR_ASSIGN_OR_RETURN(sampler_seq_, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(pending_lost_, reader.ReadU64());

  SPEAR_ASSIGN_OR_RETURN(decision_stats_.windows_total, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.windows_expedited, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.windows_exact, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.windows_degraded, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.windows_recovered, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.tuples_seen, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.tuples_processed, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.late_tuples, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.tuples_shed, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.windows_shed, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.deadline_aborts, reader.ReadU64());

  SPEAR_ASSIGN_OR_RETURN(const std::uint64_t num_windows, reader.ReadU64());
  for (std::uint64_t w = 0; w < num_windows; ++w) {
    SPEAR_ASSIGN_OR_RETURN(const std::int64_t start, reader.ReadI64());
    WindowState state;
    SPEAR_ASSIGN_OR_RETURN(state.budget, reader.ReadU64());
    SPEAR_ASSIGN_OR_RETURN(state.count, reader.ReadU64());
    SPEAR_ASSIGN_OR_RETURN(state.loss.lost, reader.ReadU64());
    SPEAR_ASSIGN_OR_RETURN(state.loss.shed, reader.ReadU64());
    SPEAR_ASSIGN_OR_RETURN(const std::uint8_t anomalous, reader.ReadU8());
    state.loss.anomalous = anomalous != 0;
    // Every restored window is a recovered window: its raw buffer did not
    // survive.
    state.loss.recovered = true;
    SPEAR_ASSIGN_OR_RETURN(const std::uint8_t truncated, reader.ReadU8());
    state.loss.truncated = truncated != 0;
    SPEAR_ASSIGN_OR_RETURN(state.stats, ReadRunningStats(&reader));

    SPEAR_ASSIGN_OR_RETURN(const std::uint8_t has_sample, reader.ReadU8());
    if (has_sample != 0) {
      SPEAR_ASSIGN_OR_RETURN(
          ReservoirSampler<double> sample,
          ReadReservoir(&reader, config_.seed + sampler_seq_++));
      state.sample =
          std::make_unique<ReservoirSampler<double>>(std::move(sample));
    }

    SPEAR_ASSIGN_OR_RETURN(const std::uint8_t has_groups, reader.ReadU8());
    if (has_groups != 0) {
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t max_groups, reader.ReadU64());
      SPEAR_ASSIGN_OR_RETURN(const std::uint8_t overflowed, reader.ReadU8());
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t tracker_shed,
                             reader.ReadU64());
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t n, reader.ReadU64());
      state.groups = std::make_unique<GroupStatsTracker>(max_groups);
      for (std::uint64_t k = 0; k < n; ++k) {
        SPEAR_ASSIGN_OR_RETURN(const std::string key, reader.ReadString());
        SPEAR_ASSIGN_OR_RETURN(const RunningStats stats,
                               ReadRunningStats(&reader));
        state.groups->RestoreGroup(key, stats);
      }
      if (overflowed != 0) state.groups->MarkOverflowed();
      if (tracker_shed > 0) state.groups->NoteShed(tracker_shed);
    }

    SPEAR_ASSIGN_OR_RETURN(const std::uint64_t num_samplers, reader.ReadU64());
    for (std::uint64_t k = 0; k < num_samplers; ++k) {
      SPEAR_ASSIGN_OR_RETURN(const std::string key, reader.ReadString());
      SPEAR_ASSIGN_OR_RETURN(
          ReservoirSampler<double> sampler,
          ReadReservoir(&reader, config_.seed + sampler_seq_++));
      if (!state.group_samples.emplace(key, std::move(sampler)).second) {
        return Status::Invalid("spear snapshot: duplicate group sampler");
      }
    }

    window_states_.emplace(start, std::move(state));
  }
  if (!reader.exhausted()) {
    return Status::Invalid("spear snapshot: trailing bytes");
  }
  return Status::OK();
}

std::size_t SpearWindowManager::BudgetMemoryBytes() const {
  std::size_t total = 0;
  for (const auto& [start, state] : window_states_) {
    total += sizeof(WindowState);
    if (state.sample) total += state.sample->sample().size() * sizeof(double);
    if (state.groups) total += state.groups->EstimatedBytes();
    for (const auto& [key, sampler] : state.group_samples) {
      total += key.size() + sampler.sample().size() * sizeof(double);
    }
  }
  return total;
}

}  // namespace spear
