#include "probes.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "common/time.h"
#include "runtime/windowed_bolt.h"

namespace spear::perfbench {

namespace {

/// Execute is timed on one call in kExecuteTimeEvery on average (two clock
/// reads per tuple would cost a tenth of the stage's busy time), at random
/// gaps so the sample does not lock onto the channel's batch boundaries.
/// One timed call in kExecuteSpanEvery, and one Emit in kEmitSpanEvery,
/// also keeps a span. Every other callback is timed and kept on every call.
constexpr std::uint64_t kExecuteTimeEvery = 16;
constexpr std::uint64_t kExecuteSpanEvery = 16;
constexpr std::uint64_t kEmitSpanEvery = 64;

/// Spans kept per probe; time totals always cover every call.
constexpr std::size_t kMaxSpansPerProbe = 100'000;

/// Paced replays hand out tuples at most this long after they fall due.
constexpr std::int64_t kReleaseQuantumNs = 50'000;

/// Cost of one clock read, subtracted from each sampled Execute so the
/// estimate does not scale the probe's own overhead up to every call.
std::int64_t ClockReadNs() {
  static const std::int64_t cost = [] {
    std::vector<std::int64_t> d(1001);
    for (std::int64_t& x : d) {
      const std::int64_t a = NowNs();
      x = NowNs() - a;
    }
    std::nth_element(d.begin(), d.begin() + 500, d.end());
    return d[500];
  }();
  return cost;
}

void Keep(std::vector<Span>* spans, const Span& span) {
  if (spans->size() < kMaxSpansPerProbe) spans->push_back(span);
}

/// Span ids are unique per replay: the worker (or source) in the top bits.
std::uint64_t SpanId(int worker, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(worker + 2) << 48) | seq;
}

/// Emitter handed to the wrapped bolt: time-stamps each window's last
/// result, classifies results by their verdict flags and, when tracing,
/// times the downstream Emit.
class ProbeEmitter : public Emitter {
 public:
  ProbeEmitter(WorkerRecord* record, const BoltProbeOptions& options)
      : record_(record), options_(options) {}

  void Begin(Emitter* inner, std::uint64_t parent) {
    inner_ = inner;
    parent_ = parent;
    child_ns_ = 0;
    expedited_ = exact_ = degraded_ = 0;
  }

  void Emit(Tuple tuple) override {
    const std::int64_t start = NowNs();
    Note(tuple, start);
    inner_->Emit(std::move(tuple));
    if (!options_.trace) return;
    const std::int64_t end = NowNs();
    child_ns_ += end - start;
    record_->emit_ns += end - start;
    if (record_->emits++ % kEmitSpanEvery == 0) {
      Keep(&record_->spans,
           Span{"emit", start, end, NextId(), parent_, record_->task});
    }
  }

  /// Span ids of this worker (the probe's callbacks draw from it too).
  std::uint64_t NextId() { return SpanId(record_->task, ++seq_); }

  std::int64_t child_ns() const { return child_ns_; }
  std::uint32_t expedited() const { return expedited_; }
  std::uint32_t exact() const { return exact_; }
  std::uint32_t degraded() const { return degraded_; }

 private:
  void Note(const Tuple& t, std::int64_t now) {
    using L = ResultTupleLayout;
    const std::int64_t end = t.field(L::kEnd).AsInt64();
    auto& emits = record_->result_emits;
    if (!emits.empty() && emits.back().first == end) {
      emits.back().second = now;
    } else {
      emits.emplace_back(end, now);
    }
    const bool approximate =
        t.field(options_.grouped ? L::kGroupApprox : L::kScalarApprox)
            .AsInt64() != 0;
    const bool degraded =
        t.field(options_.grouped ? L::kGroupDegraded : L::kScalarDegraded)
            .AsInt64() != 0;
    if (degraded) {
      ++degraded_;
    } else if (approximate || options_.incremental_path) {
      ++expedited_;
    } else {
      ++exact_;
    }
  }

  WorkerRecord* record_;
  const BoltProbeOptions options_;
  Emitter* inner_ = nullptr;
  std::uint64_t parent_ = 0;
  std::int64_t child_ns_ = 0;
  std::uint64_t seq_ = 0;
  std::uint32_t expedited_ = 0;
  std::uint32_t exact_ = 0;
  std::uint32_t degraded_ = 0;
};

class BoltProbe : public Bolt, public Checkpointable {
 public:
  BoltProbe(std::unique_ptr<Bolt> inner, WorkerRecord* record,
            BoltProbeOptions options)
      : inner_(std::move(inner)),
        record_(record),
        options_(options),
        emitter_(record, options) {}

  Status Prepare(const BoltContext& ctx) override {
    record_->task = ctx.task_id;
    record_->prepare_ns = NowNs();
    return inner_->Prepare(ctx);
  }

  Status Execute(const Tuple& tuple, Emitter* out) override {
    const std::uint64_t id = NextId();
    emitter_.Begin(out, id);
    ++record_->executes;
    if (!options_.trace || --until_sample_ > 0) {
      return inner_->Execute(tuple, &emitter_);
    }
    until_sample_ = NextSampleGap();
    const std::int64_t start = NowNs();
    Status status = inner_->Execute(tuple, &emitter_);
    const std::int64_t end = NowNs();
    record_->sampled_execute_ns +=
        std::max<std::int64_t>(end - start - ClockReadNs(), 0);
    record_->sampled_execute_emit_ns += emitter_.child_ns();
    if (record_->execute_samples++ % kExecuteSpanEvery == 0) {
      Keep(&record_->spans,
           Span{"execute", start, end, id, 0, record_->task});
    }
    return status;
  }

  Status OnWatermark(Timestamp watermark, Emitter* out) override {
    std::size_t spilled = 0;
    if (options_.trace && options_.storage != nullptr) {
      spilled = options_.storage->TotalTuples();
      record_->spilled_peak = std::max(record_->spilled_peak, spilled);
    }
    const std::uint64_t id = NextId();
    emitter_.Begin(out, id);
    const std::int64_t start = NowNs();
    Status status = inner_->OnWatermark(watermark, &emitter_);
    if (!options_.trace) return status;
    const std::int64_t end = NowNs();
    record_->watermark_ns += end - start;
    record_->watermarks.push_back(WorkerRecord::WatermarkCall{
        start, end, watermark, emitter_.expedited(), emitter_.exact(),
        emitter_.degraded()});
    if (emitter_.expedited() + emitter_.exact() + emitter_.degraded() > 0) {
      record_->spilled_at_close += spilled;
    }
    Keep(&record_->spans, Span{"on_watermark", start, end, id, 0,
                               record_->task});
    return status;
  }

  Status Finish(Emitter* out) override {
    const std::uint64_t id = NextId();
    emitter_.Begin(out, id);
    const std::int64_t start = NowNs();
    Status status = inner_->Finish(&emitter_);
    const std::int64_t end = NowNs();
    record_->end_ns = end;
    if (options_.trace) {
      record_->finish_ns += end - start;
      Keep(&record_->spans, Span{"finish", start, end, id, 0, record_->task});
    }
    return status;
  }

  Status OnDeliveryAnomaly(Emitter* out) override {
    emitter_.Begin(out, NextId());
    return inner_->OnDeliveryAnomaly(&emitter_);
  }

  Checkpointable* checkpointable() override {
    inner_checkpointable_ = inner_->checkpointable();
    return inner_checkpointable_ != nullptr ? this : nullptr;
  }

  Result<std::string> SnapshotState() override {
    const std::int64_t start = NowNs();
    Result<std::string> payload = inner_checkpointable_->SnapshotState();
    if (!options_.trace) return payload;
    const std::int64_t end = NowNs();
    record_->snapshot_ns += end - start;
    record_->snapshot_call_ns.push_back(end - start);
    if (payload.ok()) record_->snapshot_bytes.push_back(payload->size());
    Keep(&record_->spans,
         Span{"snapshot_state", start, end, NextId(), 0, record_->task});
    return payload;
  }

  Status RestoreState(const std::string& payload) override {
    return inner_checkpointable_->RestoreState(payload);
  }

  void NoteRecoveryLoss(std::uint64_t lost_tuples) override {
    inner_checkpointable_->NoteRecoveryLoss(lost_tuples);
  }

 private:
  std::uint64_t NextId() { return emitter_.NextId(); }

  /// Uniform in [1, 2 * kExecuteTimeEvery - 1] (xorshift64).
  std::int64_t NextSampleGap() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return 1 + static_cast<std::int64_t>(rng_ % (2 * kExecuteTimeEvery - 1));
  }

  std::unique_ptr<Bolt> inner_;
  Checkpointable* inner_checkpointable_ = nullptr;
  WorkerRecord* record_;
  const BoltProbeOptions options_;
  ProbeEmitter emitter_;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ULL;
  std::int64_t until_sample_ = 1;
};

}  // namespace

SourceProbe::SourceProbe(std::shared_ptr<Spout> inner, double rate_tps,
                         bool trace)
    : inner_(std::move(inner)),
      period_ns_(rate_tps > 0 ? 1e9 / rate_tps : 0.0),
      trace_(trace) {}

std::int64_t SourceProbe::DueNs(std::size_t index) const {
  return record_.t0_ns +
         static_cast<std::int64_t>(static_cast<double>(index) * period_ns_);
}

void SourceProbe::WaitUntil(std::int64_t due_ns) {
  if (!slack_set_) {
    // Default timer slack (50 us) would add that much to every wait.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    slack_set_ = true;
  }
  // Sleep, not spin: a spinning source would take a CPU from the workers
  // on a small host. Oversleeping only releases the due tuples later, and
  // that lateness counts in their latency.
  for (std::int64_t remaining = due_ns - NowNs(); remaining > 0;
       remaining = due_ns - NowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(remaining));
  }
}

bool SourceProbe::NextBatch(std::vector<Tuple>* out, std::size_t max) {
  std::int64_t start = NowNs();
  if (record_.calls == 0) {
    record_.t0_ns = start;
  } else if (trace_) {
    record_.between_ns += start - last_end_ns_;
  }
  ++record_.calls;

  std::size_t take = max;
  if (period_ns_ > 0) {
    const std::int64_t due = DueNs(next_index_);
    if (due > start) {
      // Release in groups: waking per tuple would keep the source thread
      // busy on timer wake-ups. The wait adds at most kReleaseQuantumNs to
      // a tuple's latency, which is measured from its due time.
      WaitUntil(due + kReleaseQuantumNs);
      record_.lag_ns.emplace_back(next_index_, 0);
      start = NowNs();
    } else {
      record_.lag_ns.emplace_back(next_index_, start - due);
    }
    // Hand out every tuple already due, and at least the one waited for.
    const auto due_count = static_cast<std::size_t>(
        static_cast<double>(start - record_.t0_ns) / period_ns_) + 1;
    take = std::min(max, std::max<std::size_t>(
                             due_count > next_index_ ? due_count - next_index_
                                                     : 0,
                             1));
  }

  const std::size_t before = out->size();
  const bool more = inner_->NextBatch(out, take);
  const std::size_t got = out->size() - before;
  next_index_ += got;
  record_.tuples += got;
  const std::int64_t end = NowNs();
  if (trace_) {
    record_.pull_ns += end - start;
    Keep(&record_.spans,
         Span{"next_batch", start, end, SpanId(-1, record_.calls), 0, -1});
  }
  last_end_ns_ = end;
  return more;
}

WorkerRecord* WorkerRecords::Add(int task) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::make_unique<WorkerRecord>());
  records_.back()->task = task;
  return records_.back().get();
}

void InstallBoltProbe(Topology* topology, const std::string& stage,
                      BoltProbeOptions options, WorkerRecords* records) {
  for (StageSpec& spec : topology->stages) {
    if (spec.name != stage) continue;
    BoltFactory inner = std::move(spec.bolt_factory);
    spec.bolt_factory = [inner, options,
                         records](int task) -> std::unique_ptr<Bolt> {
      std::unique_ptr<Bolt> bolt = inner(task);
      if (bolt == nullptr) return nullptr;
      return std::make_unique<BoltProbe>(std::move(bolt), records->Add(task),
                                         options);
    };
  }
}

}  // namespace spear::perfbench
