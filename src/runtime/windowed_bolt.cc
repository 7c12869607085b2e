#include "runtime/windowed_bolt.h"

#include "common/time.h"

namespace spear {

std::vector<Tuple> WindowResultToTuples(const WindowResult& result) {
  std::vector<Tuple> out;
  const Value start(result.bounds.start);
  const Value end(result.bounds.end);
  const Value approx(static_cast<std::int64_t>(result.approximate ? 1 : 0));
  const Value err(result.estimated_error);
  const Value degraded(static_cast<std::int64_t>(result.degraded ? 1 : 0));
  const Value recovered(static_cast<std::int64_t>(result.recovered ? 1 : 0));
  if (!result.is_grouped) {
    out.emplace_back(result.bounds.end,
                     std::vector<Value>{start, end, Value(result.scalar),
                                        approx, err, degraded, recovered});
    return out;
  }
  out.reserve(result.groups.size());
  for (const auto& [key, value] : result.groups) {
    out.emplace_back(result.bounds.end,
                     std::vector<Value>{start, end, Value(key), Value(value),
                                        approx, err, degraded, recovered});
  }
  return out;
}

// ---------------------------------------------------------------------------
// WindowedBolt
// ---------------------------------------------------------------------------

WindowedBolt::WindowedBolt(WindowSpec window) : window_(window) {
  SPEAR_CHECK(window_.IsValid());
}

Status WindowedBolt::Prepare(const BoltContext& ctx) {
  metrics_ = ctx.metrics;
  return Status::OK();
}

Status WindowedBolt::Execute(const Tuple& tuple, Emitter* out) {
  if (window_.type != WindowType::kCountBased) {
    return Ingest(tuple.event_time(), tuple);
  }
  SPEAR_RETURN_NOT_OK(Ingest(sequence_, tuple));
  sequence_++;
  // All coordinates below `sequence_` have been observed: that is the
  // exclusive watermark for count windows. The tuple is already ingested,
  // so this Execute is no longer idempotent: a transient failure to close
  // a window must not look retryable to the supervising executor (a retry
  // would ingest the tuple twice).
  Status closed = CloseWindows(sequence_, out);
  if (closed.IsUnavailable()) {
    return Status::Internal("window emission failed after retries: " +
                            closed.message());
  }
  return closed;
}

Status WindowedBolt::OnWatermark(Timestamp watermark, Emitter* out) {
  // Count windows complete by cardinality; event-time watermarks only
  // matter at end of stream, where the final watermark flushes the
  // (possibly incomplete) tail — which count semantics discard.
  if (window_.type == WindowType::kCountBased) return Status::OK();
  return CloseWindows(watermark, out);
}

void WindowedBolt::Deliver(const WindowResult& result,
                           std::size_t memory_bytes, Emitter* out) {
  if (metrics_ != nullptr) {
    metrics_->RecordWindowNs(result.processing_ns);
    metrics_->RecordMemoryBytes(memory_bytes);
  }
  for (Tuple& t : WindowResultToTuples(result)) out->Emit(std::move(t));
}

// ---------------------------------------------------------------------------
// ExactWindowedBolt
// ---------------------------------------------------------------------------

ExactWindowedBolt::ExactWindowedBolt(ExactWindowedBoltConfig config)
    : WindowedBolt(config.window),
      config_(std::move(config)),
      operator_(config_.aggregate, config_.value_extractor,
                config_.key_extractor) {}

Status ExactWindowedBolt::Prepare(const BoltContext& ctx) {
  SPEAR_RETURN_NOT_OK(WindowedBolt::Prepare(ctx));
  if (config_.use_multi_buffer) {
    if (config_.memory_capacity != 0) {
      return Status::Invalid(
          "multi-buffer manager does not support spilling");
    }
    manager_ = std::make_unique<MultiBufferWindowManager>(config_.window);
  } else {
    manager_ = std::make_unique<SingleBufferWindowManager>(
        config_.window, config_.memory_capacity, config_.storage,
        "exact-bolt-" + std::to_string(ctx.task_id));
  }
  return Status::OK();
}

Status ExactWindowedBolt::Ingest(std::int64_t coord, const Tuple& tuple) {
  manager_->OnTuple(coord, tuple);
  return Status::OK();
}

Result<WindowResult> ExactWindowedBolt::Produce(
    const CompleteWindow& window, std::size_t* /*memory_bytes: staged*/) {
  return operator_.Process(window);
}

Status ExactWindowedBolt::CloseWindows(std::int64_t watermark, Emitter* out) {
  std::int64_t staging_ns = 0;
  Result<std::vector<CompleteWindow>> staged = [&] {
    ScopedTimerNs timer(&staging_ns);
    return manager_->OnWatermark(watermark);
  }();
  if (!staged.ok()) return staged.status();
  if (staged->empty()) return Status::OK();

  const std::int64_t staging_share =
      staging_ns / static_cast<std::int64_t>(staged->size());
  for (const CompleteWindow& window : *staged) {
    std::size_t memory_bytes = 0;
    for (const Tuple& t : window.tuples) memory_bytes += t.ByteSize();
    std::int64_t process_ns = 0;
    Result<WindowResult> result = [&] {
      ScopedTimerNs timer(&process_ns);
      return Produce(window, &memory_bytes);
    }();
    if (!result.ok()) return result.status();
    result->processing_ns = process_ns + staging_share;
    Deliver(*result, memory_bytes, out);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// IncrementalWindowedBolt
// ---------------------------------------------------------------------------

IncrementalWindowedBolt::IncrementalWindowedBolt(WindowSpec window,
                                                 AggregateSpec aggregate,
                                                 ValueExtractor value_extractor,
                                                 KeyExtractor key_extractor)
    : WindowedBolt(window),
      operator_(aggregate, window, std::move(value_extractor),
                std::move(key_extractor)) {}

Status IncrementalWindowedBolt::Ingest(std::int64_t coord,
                                       const Tuple& tuple) {
  operator_.OnTuple(coord, tuple);
  return Status::OK();
}

Status IncrementalWindowedBolt::CloseWindows(std::int64_t watermark,
                                             Emitter* out) {
  std::int64_t total_ns = 0;
  Result<std::vector<WindowResult>> results = [&] {
    ScopedTimerNs timer(&total_ns);
    return operator_.OnWatermark(watermark);
  }();
  if (!results.ok()) return results.status();
  if (results->empty()) return Status::OK();

  const std::int64_t share =
      total_ns / static_cast<std::int64_t>(results->size());
  for (WindowResult& result : *results) {
    result.processing_ns = share;
    // Incremental state: one accumulator per active window.
    Deliver(result,
            sizeof(RunningStats) *
                std::max<std::size_t>(operator_.active_windows(), 1),
            out);
  }
  return Status::OK();
}

}  // namespace spear
