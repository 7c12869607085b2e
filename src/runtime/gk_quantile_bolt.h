#pragma once

#include <map>

#include "runtime/windowed_bolt.h"
#include "sketch/gk_quantile.h"
#include "window/window_assigner.h"

/// \file gk_quantile_bolt.h
/// Holistic-aggregate baseline from the incremental-processing related
/// work (cf. the paper's Sec. 6 discussion of [37]/[60]): one
/// Greenwald-Khanna summary per active window, updated at tuple arrival,
/// queried at watermark arrival. Deterministic rank error <= epsilon and
/// bounded memory, but a per-tuple ordered-insert cost that SPEAr's
/// reservoir path avoids — the trade-off the ablation bench quantifies.

namespace spear {

/// \brief Windowed phi-quantile via per-window GK summaries.
class GkQuantileBolt : public WindowedBolt {
 public:
  /// \param epsilon deterministic rank-error bound of each result.
  GkQuantileBolt(WindowSpec window, ValueExtractor value_extractor,
                 double phi, double epsilon);

 private:
  Status Ingest(std::int64_t coord, const Tuple& tuple) override;
  Status CloseWindows(std::int64_t watermark, Emitter* out) override;

  const ValueExtractor value_extractor_;
  const double phi_;
  const double epsilon_;

  /// window start -> summary.
  std::map<std::int64_t, GkQuantileSketch> sketches_;
  std::int64_t last_watermark_;
};

}  // namespace spear
