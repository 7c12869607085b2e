#include "obs/trace.h"

namespace spear::obs {

const char* VerdictName(TraceSpan::Verdict verdict) {
  switch (verdict) {
    case TraceSpan::Verdict::kExpedited:
      return "expedited";
    case TraceSpan::Verdict::kExact:
      return "exact";
    case TraceSpan::Verdict::kDegraded:
      return "degraded";
  }
  return "unknown";
}

void WindowTracer::Record(TraceSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dedup_replays_ &&
      !windows_.emplace(span.window_start, span.window_end).second &&
      replaying_) {
    return;  // traced when the window first closed
  }
  ++seen_;
  const std::size_t every = options_.sample_every == 0 ? 1 : options_.sample_every;
  if ((seen_ - 1) % every != 0) {
    ++sampled_out_;
    return;
  }
  if (spans_.size() >= options_.max_spans) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

void WindowTracer::SetReplaying(bool replaying) {
  std::lock_guard<std::mutex> lock(mu_);
  replaying_ = replaying;
}

void WindowTracer::ForgetWindows() {
  std::lock_guard<std::mutex> lock(mu_);
  windows_.clear();
}

std::vector<TraceSpan> WindowTracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::uint64_t WindowTracer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::uint64_t WindowTracer::sampled_out() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sampled_out_;
}

std::uint64_t WindowTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace spear::obs
