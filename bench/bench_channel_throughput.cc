#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/harness.h"
#include "runtime/executor.h"
#include "runtime/spouts.h"

/// \file bench_channel_throughput.cc
/// Measures raw inter-stage channel throughput (tuples/sec) on a 2-stage
/// shuffle topology with near-free bolts, across worker counts 1-8 and
/// channel batch sizes 1/16/64/256. Batch size 1 reproduces the historical
/// per-tuple Push/Pop channel and is the baseline every other row is
/// normalized against, so the micro-batching win is measured, not asserted.
///
///   bench_channel_throughput [--tuples N] [--metrics]
///
/// --metrics runs the same grid with `.Metrics().Trace()` enabled, so the
/// observability overhead on the hot channel path can be compared against
/// a run without it (it must stay within run-to-run noise).

namespace spear::bench {
namespace {

/// Forwards every tuple downstream: all measured cost is the channel.
struct ForwardBolt : Bolt {
  Status Execute(const Tuple& tuple, Emitter* out) override {
    out->Emit(tuple);
    return Status::OK();
  }
};

/// Consumes tuples without emitting, so sink collection stays off the
/// measured path.
struct DrainBolt : Bolt {
  Status Execute(const Tuple&, Emitter*) override { return Status::OK(); }
};

struct Measurement {
  int workers = 0;
  std::size_t batch = 0;
  std::int64_t wall_ns = 0;
  double tuples_per_sec = 0.0;
};

Measurement RunOnce(const std::vector<Tuple>& tuples, int workers,
                    std::size_t batch, bool metrics) {
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(tuples));
  builder.BatchMaxTuples(batch);
  if (metrics) builder.Metrics().Trace();
  builder.Stage("forward", workers, Partitioner::Shuffle(),
                [](int) { return std::make_unique<ForwardBolt>(); });
  builder.Stage("drain", workers, Partitioner::Shuffle(),
                [](int) { return std::make_unique<DrainBolt>(); });
  auto topology = builder.Build();
  if (!topology.ok()) {
    std::cerr << "topology: " << topology.status().ToString() << "\n";
    std::abort();
  }
  const std::int64_t start = NowNs();
  auto report = Executor(std::move(*topology)).Run();
  const std::int64_t wall = NowNs() - start;
  if (!report.ok()) {
    std::cerr << "run: " << report.status().ToString() << "\n";
    std::abort();
  }
  Measurement m;
  m.workers = workers;
  m.batch = batch;
  m.wall_ns = wall;
  m.tuples_per_sec = static_cast<double>(tuples.size()) /
                     (static_cast<double>(wall) * 1e-9);
  return m;
}

int Main(int argc, char** argv) {
  std::size_t num_tuples = 300'000;
  bool metrics = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--tuples") == 0 && a + 1 < argc) {
      num_tuples = static_cast<std::size_t>(std::stoull(argv[++a]));
    } else if (std::strcmp(argv[a], "--metrics") == 0) {
      metrics = true;
    } else {
      std::cerr << "usage: " << argv[0] << " [--tuples N] [--metrics]\n";
      return 2;
    }
  }

  // Payload-free tuples: copying one is allocation-free, so the measured
  // cost is the channel machinery rather than tuple duplication.
  std::vector<Tuple> tuples;
  tuples.reserve(num_tuples);
  for (std::size_t i = 0; i < num_tuples; ++i) {
    tuples.emplace_back(static_cast<Timestamp>(i), std::vector<Value>{});
  }

  const int worker_counts[] = {1, 2, 4, 8};
  const std::size_t batch_sizes[] = {1, 16, 64, 256};

  PrintTitle("Channel throughput",
             "2-stage shuffle (source -> forward -> drain), " +
                 FmtCount(num_tuples) + " tuples; batch=1 is the historical "
                 "per-tuple channel baseline" +
                 (metrics ? "; observability ON (.Metrics().Trace())" : ""));
  PrintRow({"workers/stage", "batch", "wall", "tuples/sec", "vs batch=1"});

  // Warm-up (thread creation, allocator), then best-of-5 per config with
  // the sweeps interleaved: scheduler-noise windows on a shared box last
  // seconds, so consecutive reps of one config would all land in the same
  // window, while whole-grid sweeps decorrelate them.
  constexpr int kSweeps = 5;
  RunOnce(tuples, worker_counts[0], batch_sizes[0], metrics);
  std::vector<Measurement> results;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    std::size_t slot = 0;
    for (int workers : worker_counts) {
      for (std::size_t batch : batch_sizes) {
        const Measurement m = RunOnce(tuples, workers, batch, metrics);
        if (sweep == 0) {
          results.push_back(m);
        } else if (m.wall_ns < results[slot].wall_ns) {
          results[slot] = m;
        }
        ++slot;
      }
    }
  }

  double baseline = 0.0;
  for (const Measurement& m : results) {
    if (m.batch == 1) baseline = m.tuples_per_sec;
    char speedup[32];
    if (baseline > 0.0) {
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    m.tuples_per_sec / baseline);
    } else {
      std::snprintf(speedup, sizeof(speedup), "-");
    }
    PrintRow({std::to_string(m.workers), std::to_string(m.batch),
              FmtMs(static_cast<double>(m.wall_ns)),
              FmtCount(static_cast<std::uint64_t>(m.tuples_per_sec)),
              speedup});
  }

  return 0;
}

}  // namespace
}  // namespace spear::bench

int main(int argc, char** argv) { return spear::bench::Main(argc, argv); }
