#include "reference.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "runtime/windowed_bolt.h"
#include "window/window_assigner.h"
#include "window/window_spec.h"

namespace spear::perfbench {

namespace {

bool SameValue(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

bool Exceeds(double got, double want, double epsilon) {
  return std::abs(got - want) > epsilon * std::abs(want);
}

WindowSpec SpecOf(const Workload& workload) {
  return workload.slide == workload.range
             ? WindowSpec::TumblingTime(workload.range)
             : WindowSpec::SlidingTime(workload.range, workload.slide);
}

struct GroupAcc {
  double sum = 0.0;
  std::uint64_t count = 0;
};

}  // namespace

std::int64_t Reference::IndexOfEnd(std::int64_t end) const {
  if (windows.empty() || end < windows.front().end) return -1;
  const std::int64_t offset = end - windows.front().end;
  if (offset % slide != 0) return -1;
  const std::int64_t idx = offset / slide;
  if (idx >= static_cast<std::int64_t>(windows.size()) ||
      windows[static_cast<std::size_t>(idx)].end != end) {
    return -1;
  }
  return idx;
}

Result<Reference> ComputeReference(const Workload& workload,
                                   const std::vector<Tuple>& input) {
  if (input.empty()) return Status::Invalid("empty input stream");
  for (std::size_t i = 1; i < input.size(); ++i) {
    if (input[i].event_time() < input[i - 1].event_time()) {
      return Status::Invalid("input stream is not sorted by event time");
    }
  }
  const WindowSpec spec = SpecOf(workload);
  const std::size_t value_field = workload.value_field;
  const std::size_t key_field = workload.key_field;

  // Every window of the stream, dense by start (slide-aligned); empty
  // windows are dropped at the end.
  const std::int64_t first_start =
      FirstWindowStartFor(spec, input.front().event_time());
  const std::int64_t last_start =
      LastWindowStartFor(spec, input.back().event_time());
  const std::size_t slots =
      static_cast<std::size_t>((last_start - first_start) / spec.slide + 1);
  std::vector<WindowTruth> dense(slots);
  std::vector<double> sums(slots, 0.0);
  std::vector<std::unordered_map<std::string, GroupAcc>> groups(
      workload.grouped ? slots : 0);
  for (std::size_t s = 0; s < slots; ++s) {
    dense[s].start = first_start + static_cast<std::int64_t>(s) * spec.slide;
    dense[s].end = dense[s].start + spec.range;
  }

  for (std::size_t i = 0; i < input.size(); ++i) {
    const Tuple& t = input[i];
    const double v = t.field(value_field).AsNumeric();
    for (const WindowBounds& b : AssignWindows(spec, t.event_time())) {
      const std::size_t s =
          static_cast<std::size_t>((b.start - first_start) / spec.slide);
      WindowTruth& w = dense[s];
      ++w.count;
      w.last_index = i;
      sums[s] += v;
      if (workload.grouped) {
        GroupAcc& g = groups[s][t.field(key_field).AsString()];
        g.sum += v;
        ++g.count;
      }
    }
  }

  Reference ref;
  ref.slide = spec.slide;
  for (std::size_t s = 0; s < slots; ++s) {
    WindowTruth& w = dense[s];
    if (w.count == 0) continue;
    w.mean = sums[s] / static_cast<double>(w.count);
    w.next_index = w.last_index + 1;
    if (workload.grouped) {
      w.groups.reserve(groups[s].size());
      for (const auto& [key, acc] : groups[s]) {
        w.groups.emplace_back(key, acc.sum / static_cast<double>(acc.count));
      }
      std::sort(w.groups.begin(), w.groups.end());
      groups[s].clear();
    }
    ref.windows.push_back(std::move(w));
  }
  // Non-empty windows of a gap-free stream are contiguous in slide steps;
  // IndexOfEnd relies on it.
  for (std::size_t k = 1; k < ref.windows.size(); ++k) {
    if (ref.windows[k].end - ref.windows[k - 1].end != spec.slide) {
      return Status::Invalid("input stream has an empty window");
    }
  }
  return ref;
}

void CheckResult::Accumulate(const CheckResult& other) {
  expected_windows += other.expected_windows;
  failed_windows += other.failed_windows;
  unexpected_results += other.unexpected_results;
  expedited_results += other.expedited_results;
  violations += other.violations;
  exact_results += other.exact_results;
  if (first_problem.empty()) first_problem = other.first_problem;
}

double CheckResult::FailedWindowRatio() const {
  return expected_windows == 0 ? 0.0
                               : static_cast<double>(failed_windows) /
                                     static_cast<double>(expected_windows);
}

double CheckResult::ViolationRatio() const {
  return expedited_results == 0 ? 0.0
                                 : static_cast<double>(violations) /
                                       static_cast<double>(expedited_results);
}

double CheckResult::ViolationLimit(double confidence) const {
  // Largest violation count v with P(X >= v) > 1e-3 for X ~ Bin(n, 1 - alpha):
  // a program meeting its (eps, alpha) spec fails this check about once in a
  // thousand runs. Exact tail for small n, normal approximation beyond.
  const double miss = 1.0 - confidence;
  const std::uint64_t n = expedited_results;
  if (n == 0) return miss;
  constexpr double kTail = 1e-3;
  if (n > 5000) {
    return miss + 3.09 * std::sqrt(miss * confidence / static_cast<double>(n)) +
           1.0 / static_cast<double>(n);
  }
  // pmf(k) by recurrence from pmf(0) = (1 - miss)^n; tail = 1 - cdf.
  double pmf = std::pow(confidence, static_cast<double>(n));
  double cdf = 0.0;
  std::uint64_t v = 0;
  for (; v <= n; ++v) {
    // Here cdf = P(X <= v - 1), so 1 - cdf = P(X >= v).
    if (1.0 - cdf <= kTail) break;
    cdf += pmf;
    pmf *= static_cast<double>(n - v) / static_cast<double>(v + 1) * miss /
           confidence;
  }
  // v is the smallest count whose tail is <= kTail; v - 1 is allowed.
  return static_cast<double>(v == 0 ? 0 : v - 1) / static_cast<double>(n);
}

bool CheckResult::Correct(double confidence) const {
  return failed_windows == 0 && unexpected_results == 0 &&
         ViolationRatio() <= ViolationLimit(confidence);
}

CheckResult CheckOutput(const Workload& workload, const Reference& reference,
                        const std::vector<Tuple>& output) {
  using L = ResultTupleLayout;
  const std::size_t n = reference.windows.size();
  CheckResult result;
  result.expected_windows = n;
  std::vector<std::uint64_t> results_per_window(n, 0);
  std::vector<bool> failed(n, false);
  // Grouped: how often each truth group of each window was answered.
  std::vector<std::vector<std::uint8_t>> group_seen(workload.grouped ? n : 0);
  for (std::size_t w = 0; w < group_seen.size(); ++w) {
    group_seen[w].assign(reference.windows[w].groups.size(), 0);
  }

  const auto fail = [&](std::size_t w, const std::string& why) {
    failed[w] = true;
    if (result.first_problem.empty()) {
      result.first_problem = "window [" +
                             std::to_string(reference.windows[w].start) +
                             ", " + std::to_string(reference.windows[w].end) +
                             "): " + why;
    }
  };

  for (const Tuple& t : output) {
    const std::int64_t end = t.field(L::kEnd).AsInt64();
    const std::int64_t idx = reference.IndexOfEnd(end);
    if (idx < 0) {
      ++result.unexpected_results;
      if (result.first_problem.empty()) {
        result.first_problem =
            "result for unexpected window ending at " + std::to_string(end);
      }
      continue;
    }
    const auto w = static_cast<std::size_t>(idx);
    const WindowTruth& truth = reference.windows[w];
    ++results_per_window[w];

    double value = 0.0;
    bool approximate = false;
    bool degraded = false;
    double want = truth.mean;
    if (workload.grouped) {
      const std::string& key = t.field(L::kGroupKey).AsString();
      value = t.field(L::kGroupValue).AsDouble();
      approximate = t.field(L::kGroupApprox).AsInt64() != 0;
      degraded = t.field(L::kGroupDegraded).AsInt64() != 0;
      const auto it = std::lower_bound(
          truth.groups.begin(), truth.groups.end(), key,
          [](const std::pair<std::string, double>& g, const std::string& k) {
            return g.first < k;
          });
      if (it == truth.groups.end() || it->first != key) {
        fail(w, "group '" + key + "' is not in the window");
        continue;
      }
      std::uint8_t& seen = group_seen[w][static_cast<std::size_t>(
          it - truth.groups.begin())];
      if (++seen > 1) fail(w, "group '" + key + "' answered twice");
      want = it->second;
    } else {
      if (results_per_window[w] > 1) fail(w, "duplicated");
      value = t.field(L::kScalarValue).AsDouble();
      approximate = t.field(L::kScalarApprox).AsInt64() != 0;
      degraded = t.field(L::kScalarDegraded).AsInt64() != 0;
    }

    if (degraded) {
      fail(w, "degraded");
    } else if (approximate) {
      ++result.expedited_results;
      if (Exceeds(value, want, workload.epsilon)) ++result.violations;
    } else {
      ++result.exact_results;
      if (!SameValue(value, want)) {
        fail(w, "exact result " + std::to_string(value) + " != reference " +
                    std::to_string(want));
      }
    }
  }

  for (std::size_t w = 0; w < n; ++w) {
    if (results_per_window[w] == 0) {
      fail(w, "missing");
    } else if (workload.grouped &&
               std::find(group_seen[w].begin(), group_seen[w].end(), 0) !=
                   group_seen[w].end()) {
      fail(w, "a group of the window is missing");
    }
    if (failed[w]) ++result.failed_windows;
  }
  return result;
}

}  // namespace spear::perfbench
