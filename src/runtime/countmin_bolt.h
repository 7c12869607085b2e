#pragma once

#include "runtime/windowed_bolt.h"
#include "sketch/count_min.h"

/// \file countmin_bolt.h
/// The Table 2 baseline: a Storm-style windowed bolt that produces a
/// grouped mean with a CountMin sketch instead of exact aggregation. The
/// window is buffered and staged as in ExactWindowedBolt (single-buffer
/// design); only the per-window pass differs: every tuple is pushed through
/// the sketch's hash rows and the result is reconstructed from the tracked
/// distinct-group set — the per-tuple hashing cost is exactly the overhead
/// the paper attributes to sketching.

namespace spear {

/// \brief Grouped-mean windowed stage backed by CountMin.
class CountMinWindowedBolt : public ExactWindowedBolt {
 public:
  /// \param epsilon,confidence sketch accuracy: additive error epsilon of
  ///        the window's L1 mass with probability `confidence` (the paper
  ///        sizes the sketch "to achieve a confidence of 95% and an error
  ///        of up to 10%", equivalent to SPEAr's spec)
  CountMinWindowedBolt(WindowSpec window, ValueExtractor value_extractor,
                       KeyExtractor key_extractor, double epsilon,
                       double confidence);

 private:
  Result<WindowResult> Produce(const CompleteWindow& window,
                               std::size_t* memory_bytes) override;

  const double epsilon_;
  const double delta_;
};

}  // namespace spear
