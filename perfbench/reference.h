#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tuple/tuple.h"
#include "workloads.h"

/// \file reference.h
/// The offline exact answer of a workload, computed by the benchmark from
/// its own generated input, and the check of one run's output against it.

namespace spear::perfbench {

/// \brief Exact result of one non-empty window.
struct WindowTruth {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t count = 0;
  /// Scalar mean (scalar workloads).
  double mean = 0.0;
  /// Per-group means sorted by key (grouped workloads).
  std::vector<std::pair<std::string, double>> groups;
  /// Index of the last input tuple inside the window.
  std::size_t last_index = 0;
  /// Index of the first input tuple at or past the window's end (the
  /// stream length when there is none).
  std::size_t next_index = 0;
};

/// \brief Every non-empty window of a stream, ascending by end.
struct Reference {
  std::vector<WindowTruth> windows;
  DurationMs slide = 0;

  /// Index into `windows` of the window ending at `end`, or -1.
  std::int64_t IndexOfEnd(std::int64_t end) const;
};

/// Computes the exact per-window means of `input` (which must be sorted by
/// event time; checked).
Result<Reference> ComputeReference(const Workload& workload,
                                   const std::vector<Tuple>& input);

/// \brief Outcome of checking one run's result tuples.
struct CheckResult {
  std::uint64_t expected_windows = 0;
  /// Windows that are missing, duplicated, degraded, have a wrong group
  /// set, or whose exact-path result differs from the reference.
  std::uint64_t failed_windows = 0;
  /// Result tuples for windows the reference does not have.
  std::uint64_t unexpected_results = 0;
  /// Approximate (expedited, non-degraded) results: one per window, or one
  /// per window x group.
  std::uint64_t expedited_results = 0;
  /// Expedited results whose relative error exceeds epsilon.
  std::uint64_t violations = 0;
  /// Exact-path results (approximate=0), all of which must match.
  std::uint64_t exact_results = 0;
  /// First problem found, for the error message.
  std::string first_problem;

  /// Sums counts over replays. Replays share their input, so apply
  /// Correct() to each replay's own result, not to a sum.
  void Accumulate(const CheckResult& other);
  double FailedWindowRatio() const;
  double ViolationRatio() const;
  /// Largest violation ratio consistent with confidence alpha: 1 - alpha
  /// plus binomial slack (one-sided, at the 1e-3 level).
  double ViolationLimit(double confidence) const;
  bool Correct(double confidence) const;
};

CheckResult CheckOutput(const Workload& workload, const Reference& reference,
                        const std::vector<Tuple>& output);

}  // namespace spear::perfbench
