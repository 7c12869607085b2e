#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"

/// \file obs/trace.h
/// Per-window decision lineage. Every window a SPEAr operator closes can
/// emit one TraceSpan recording what the runtime decided (expedite /
/// exact / degraded) and *why*: the arrival and budget numbers, the ε̂_w
/// decomposition (sampling term + shed/recovery-loss inflation), and the
/// spill/deadline events that shaped the verdict. Spans are recorded into
/// per-worker WindowTracer shards (single producer each, sampled and
/// bounded) and merged on scrape.

namespace spear::obs {

/// \brief One window's decision record.
struct TraceSpan {
  enum class Verdict { kExpedited, kExact, kDegraded };

  std::string stage;
  int task = 0;
  /// Window coordinate [start, end) — event-time ms, or tuple sequence
  /// numbers for count-based windows.
  std::int64_t window_start = 0;
  std::int64_t window_end = 0;

  Verdict verdict = Verdict::kExact;
  bool approximate = false;  ///< result came from the budget estimate

  // ---- arrival / budget occupancy ---------------------------------------
  std::uint64_t arrivals = 0;   ///< tuples admitted into the window
  std::uint64_t processed = 0;  ///< tuples in budget state (sample size)
  std::uint64_t shed = 0;       ///< tuples shed by overload control
  std::uint64_t lost = 0;       ///< tuples lost to recovery/delivery gaps
  std::uint64_t budget = 0;     ///< configured per-window tuple budget

  // ---- ε̂_w decomposition (paper Sec. 4 + PRs 2-4 widening terms) --------
  double epsilon_spec = 0.0;      ///< configured ε
  double alpha_spec = 0.0;        ///< configured α
  double epsilon_sampling = 0.0;  ///< estimator term (CLT / quantile bound)
  double loss_inflation = 0.0;    ///< (lost+shed) / (count+lost+shed)
  double epsilon_hat = 0.0;       ///< reported total = sampling + inflation

  // ---- events ------------------------------------------------------------
  bool recovered = false;       ///< window survived a worker restart
  bool truncated = false;       ///< stream truncated under this window
  bool spilled = false;         ///< window state hit secondary storage
  bool deadline_abort = false;  ///< exact fallback aborted at the deadline

  std::int64_t processing_ns = 0;  ///< time spent deciding+emitting
  std::int64_t emitted_at_ns = 0;  ///< common/time.h NowNs() at emission
};

const char* VerdictName(TraceSpan::Verdict verdict);

/// Sampling/bounding knobs for tracing.
struct TraceOptions {
  /// Record every Nth span (1 = all). Spans skipped by sampling are
  /// counted, not silently dropped.
  std::size_t sample_every = 1;
  /// Cap on retained spans per worker; beyond it spans are counted as
  /// dropped.
  std::size_t max_spans = 8192;
};

/// \brief One worker's span buffer. Record() is called from that worker
/// only; Snapshot() may race with it and takes the same (uncontended in
/// steady state) mutex. Window closes are rare relative to tuples, so a
/// mutex here is off the tuple hot path entirely.
class WindowTracer {
 public:
  /// \param dedup_replays remember the [start, end) of every window
  ///        recorded since the last ForgetWindows(), and while replaying
  ///        record no second span for one of them: the first-wins rule of
  ///        the executor's window-result dedup, for a checkpointed worker
  ///        whose recovery catch-up re-closes windows it already traced.
  explicit WindowTracer(TraceOptions options, bool dedup_replays = false)
      : options_(options), dedup_replays_(dedup_replays) {}

  void Record(TraceSpan span);

  /// Brackets a recovery catch-up (see dedup_replays).
  void SetReplaying(bool replaying);
  /// Called at each snapshot: windows closed before it can never re-close.
  void ForgetWindows();

  std::vector<TraceSpan> Snapshot() const;
  std::uint64_t recorded() const;
  std::uint64_t sampled_out() const;
  std::uint64_t dropped() const;

 private:
  TraceOptions options_;
  const bool dedup_replays_;
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  bool replaying_ = false;
  std::set<std::pair<std::int64_t, std::int64_t>> windows_;
  std::uint64_t seen_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace spear::obs
