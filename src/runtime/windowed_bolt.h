#pragma once

#include <memory>

#include "ops/exact_operator.h"
#include "ops/incremental_operator.h"
#include "runtime/operator.h"
#include "window/multi_buffer_manager.h"
#include "window/single_buffer_manager.h"

/// \file windowed_bolt.h
/// The Storm windowed bolt every engine runs as (SPEAr and its baselines),
/// and the two exact-aggregation baselines:
///  * WindowedBolt — the shared workflow. It assigns each tuple its window
///    coordinate (event time, or a per-worker sequence number for count
///    windows), closes count windows after every admitted tuple, forwards
///    time watermarks, and delivers every result through one Deliver that
///    records the window-time and memory samples before emitting. A
///    subclass implements only Ingest(coord, tuple) and CloseWindows(
///    watermark, out), the tuple-arrival and watermark-arrival steps that
///    produce its results.
///  * ExactWindowedBolt — the "Storm" baseline: buffer everything
///    (single- or multi-buffer design), process whole windows at
///    watermark arrival.
///  * IncrementalWindowedBolt — the "Inc-Storm" baseline: constant-state
///    accumulators updated at tuple arrival (non-holistic aggregates only).
///
/// Every engine emits one result tuple per window (scalar) or per
/// (window, group):
///   scalar : [start, end, value, approx(0/1), est_err, degraded(0/1),
///             recovered(0/1)] @ event_time=end
///   grouped: [start, end, key, value, approx(0/1), est_err, degraded(0/1),
///             recovered(0/1)]

namespace spear {

/// \brief Encodes a WindowResult as output tuples (see file comment).
std::vector<Tuple> WindowResultToTuples(const WindowResult& result);

/// \brief Field positions of the encoded result tuples.
struct ResultTupleLayout {
  static constexpr std::size_t kStart = 0;
  static constexpr std::size_t kEnd = 1;
  /// Scalar: value at 2, approx at 3, err at 4, degraded at 5,
  /// recovered at 6.
  static constexpr std::size_t kScalarValue = 2;
  static constexpr std::size_t kScalarApprox = 3;
  static constexpr std::size_t kScalarError = 4;
  static constexpr std::size_t kScalarDegraded = 5;
  static constexpr std::size_t kScalarRecovered = 6;
  /// Grouped: key at 2, value at 3, approx at 4, err at 5, degraded at 6,
  /// recovered at 7.
  static constexpr std::size_t kGroupKey = 2;
  static constexpr std::size_t kGroupValue = 3;
  static constexpr std::size_t kGroupApprox = 4;
  static constexpr std::size_t kGroupError = 5;
  static constexpr std::size_t kGroupDegraded = 6;
  static constexpr std::size_t kGroupRecovered = 7;
};

/// \brief The windowed-bolt workflow shared by every engine (see file
/// comment). Subclasses that override Prepare call WindowedBolt::Prepare.
class WindowedBolt : public Bolt {
 public:
  Status Prepare(const BoltContext& ctx) override;
  Status Execute(const Tuple& tuple, Emitter* out) final;
  Status OnWatermark(Timestamp watermark, Emitter* out) final;

 protected:
  explicit WindowedBolt(WindowSpec window);

  /// Tuple arrival at window coordinate `coord`. OK admits the tuple (a
  /// count window's coordinate is consumed); an error admits nothing and
  /// must leave the window state untouched, so the executor may retry it.
  virtual Status Ingest(std::int64_t coord, const Tuple& tuple) = 0;

  /// Produces and Delivers every window the exclusive `watermark` closes.
  virtual Status CloseWindows(std::int64_t watermark, Emitter* out) = 0;

  /// Records `result.processing_ns` and `memory_bytes` (the state used to
  /// produce the result, Fig. 7) in the worker's metrics, then emits the
  /// result's tuples.
  void Deliver(const WindowResult& result, std::size_t memory_bytes,
               Emitter* out);

  const WindowSpec window_;

 private:
  WorkerMetrics* metrics_ = nullptr;
  std::int64_t sequence_ = 0;  ///< next count-window coordinate
};

/// \brief Configuration shared by the exact windowed bolt variants.
struct ExactWindowedBoltConfig {
  WindowSpec window;
  AggregateSpec aggregate;
  ValueExtractor value_extractor;
  KeyExtractor key_extractor;  ///< null => scalar operation

  /// Use the multiple-buffers (Flink) design instead of single-buffer.
  bool use_multi_buffer = false;

  /// Tuples held in memory before spilling to S (0 = unlimited).
  std::size_t memory_capacity = 0;
  SecondaryStorage* storage = nullptr;
};

/// \brief Exact ("Storm") windowed stateful stage.
class ExactWindowedBolt : public WindowedBolt {
 public:
  explicit ExactWindowedBolt(ExactWindowedBoltConfig config);

  Status Prepare(const BoltContext& ctx) override;

  const WindowManager& window_manager() const { return *manager_; }

 protected:
  /// Produces one staged window's result. `*memory_bytes` arrives holding
  /// the staged window's size; a producer whose result takes other state
  /// overwrites it.
  virtual Result<WindowResult> Produce(const CompleteWindow& window,
                                       std::size_t* memory_bytes);

  const ExactWindowedBoltConfig config_;

 private:
  Status Ingest(std::int64_t coord, const Tuple& tuple) override;
  Status CloseWindows(std::int64_t watermark, Emitter* out) override;

  ExactWindowOperator operator_;
  std::unique_ptr<WindowManager> manager_;
};

/// \brief Incremental ("Inc-Storm") windowed stateful stage. Non-holistic
/// aggregates only (checked at construction).
class IncrementalWindowedBolt : public WindowedBolt {
 public:
  IncrementalWindowedBolt(WindowSpec window, AggregateSpec aggregate,
                          ValueExtractor value_extractor,
                          KeyExtractor key_extractor = nullptr);

 private:
  Status Ingest(std::int64_t coord, const Tuple& tuple) override;
  Status CloseWindows(std::int64_t watermark, Emitter* out) override;

  IncrementalOperator operator_;
};

}  // namespace spear
