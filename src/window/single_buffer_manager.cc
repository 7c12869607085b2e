#include "window/single_buffer_manager.h"

#include <algorithm>

#include "window/window_assigner.h"

namespace spear {

SingleBufferWindowManager::SingleBufferWindowManager(
    WindowSpec spec, std::size_t memory_capacity, SecondaryStorage* storage,
    std::string spill_key)
    : spec_(spec),
      custody_(memory_capacity, storage, std::move(spill_key)),
      next_window_start_(0),
      last_watermark_(kMinTimestamp) {
  SPEAR_CHECK(spec_.IsValid());
}

void SingleBufferWindowManager::OnTuple(std::int64_t coord, Tuple tuple) {
  if (coord < last_watermark_) {
    ++late_tuples_;
    return;
  }
  if (!saw_any_tuple_) {
    next_window_start_ = FirstWindowStartFor(spec_, coord);
    saw_any_tuple_ = true;
  } else {
    // Out-of-order tuples ahead of the watermark may open earlier windows;
    // coords behind emitted windows were filtered above (see header).
    next_window_start_ =
        std::min(next_window_start_, FirstWindowStartFor(spec_, coord));
  }
  custody_.Append(coord, std::move(tuple));
}

Result<std::vector<CompleteWindow>> SingleBufferWindowManager::OnWatermark(
    std::int64_t watermark) {
  std::vector<CompleteWindow> out;
  // Clamp (the end-of-stream watermark is kMaxTimestamp) so the window
  // arithmetic below cannot overflow.
  watermark = ClampWatermark(spec_, watermark);
  if (watermark <= last_watermark_) return out;
  last_watermark_ = watermark;
  if (!saw_any_tuple_) return out;
  // Nothing can complete: O(1) exit (count-based callers invoke this per
  // tuple, so the scan below must not run on every call).
  if (next_window_start_ + spec_.range > watermark) return out;

  // The scans below need every tuple: fetch the spilled run back from S.
  SPEAR_RETURN_NOT_OK(custody_.Unspill());

  // A complete window that holds no buffered tuple can never gain one
  // (future tuples are >= the watermark), so complete-but-empty stretches
  // are skipped wholesale instead of iterated slide by slide.
  const std::int64_t first_incomplete =
      FirstIncompleteWindowStart(spec_, watermark);
  auto skip_empty_stretch = [&] {
    std::int64_t min_relevant = kMaxTimestamp;
    for (const TupleCustody::Entry& e : custody_.memory()) {
      if (e.coord >= next_window_start_ && e.coord < min_relevant) {
        min_relevant = e.coord;
      }
    }
    const std::int64_t target =
        min_relevant == kMaxTimestamp
            ? first_incomplete
            : std::min(FirstWindowStartFor(spec_, min_relevant),
                       first_incomplete);
    next_window_start_ = std::max(next_window_start_, target);
  };

  skip_empty_stretch();
  // Stage every complete window, scanning the single buffer per window
  // (the design's documented cost).
  while (next_window_start_ + spec_.range <= watermark) {
    const WindowBounds bounds{next_window_start_,
                              next_window_start_ + spec_.range};
    CompleteWindow window;
    window.bounds = bounds;
    for (const TupleCustody::Entry& e : custody_.memory()) {
      if (bounds.Contains(e.coord)) window.tuples.push_back(e.tuple);
    }
    next_window_start_ += spec_.slide;
    if (window.tuples.empty()) {
      skip_empty_stretch();  // jump the gap instead of walking it
    } else {
      out.push_back(std::move(window));
    }
  }

  // Evict: anything below the next window's start can never be needed.
  evicted_tuples_ += custody_.EvictBefore(next_window_start_);
  return out;
}

}  // namespace spear
