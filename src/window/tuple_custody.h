#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/retry_policy.h"
#include "storage/secondary_storage.h"
#include "tuple/tuple.h"

/// \file tuple_custody.h
/// Raw-tuple custody, the paper's Sec. 2 policy: a worker keeps raw tuples
/// in memory up to its budget, spills the rest to the secondary storage S
/// ("If at any point prior to receipt of a watermark, all of a worker's
/// memory budget b is used, then the worker spills consequent tuples to
/// S"), and reads S back only when a window needs its raw tuples.
///
/// A worker owns exactly one spill run, under a fixed key. A spilled tuple
/// carries its window coordinate as an appended trailing field, which
/// unspilling pops again, so its event time and fields survive the trip
/// unchanged. Only a count and the largest spilled coordinate stay
/// resident: enough to discard the whole run unread once every spilled
/// coordinate has expired.

namespace spear {

/// \brief One worker's raw tuples over (memory, S).
///
/// Single-threaded; the owning window manager drives it.
class TupleCustody {
 public:
  struct Entry {
    std::int64_t coord;
    Tuple tuple;
  };

  /// Where Append put a tuple.
  enum class Placement : std::uint8_t {
    kMemory,
    kSpilled,
    /// Past the budget, but S stayed unavailable after retries: the tuple
    /// is kept in memory instead of being lost.
    kSpillFailed,
  };

  /// Storage retries one call spent, for the owner's metrics.
  struct Retries {
    std::uint64_t retries = 0;
    std::uint64_t recovered = 0;  ///< calls that succeeded after a retry
  };

  /// \param memory_capacity max tuples held in memory (0 = unlimited)
  /// \param storage         spill target; may be null iff memory_capacity
  ///                        is 0
  /// \param spill_key       key of this worker's run in S
  /// \param retry           retry policy for transient S failures
  /// \param seed            seeds the retry jitter
  TupleCustody(std::size_t memory_capacity, SecondaryStorage* storage,
               std::string spill_key, RetryPolicy retry = RetryPolicy::None(),
               std::uint64_t seed = 0);

  /// Keeps one tuple, spilling it when memory is at the budget.
  Placement Append(std::int64_t coord, Tuple tuple, Retries* retries = nullptr);

  /// Moves the spilled run back into memory (paying S latency) and erases
  /// it from S. Transient Get failures are retried under the policy; a
  /// failure leaves the run in S untouched.
  Status Unspill(Retries* retries = nullptr);

  /// Drops every memory tuple with coordinate < `coord`, and the spilled
  /// run unread once its largest coordinate is < `coord` too. Returns the
  /// number of tuples dropped.
  std::size_t EvictBefore(std::int64_t coord);

  /// Empties memory and erases this worker's run from S, whatever put it
  /// there (a previous incarnation of the worker included).
  void Clear();

  /// Memory-resident tuples, in arrival order.
  const std::deque<Entry>& memory() const { return memory_; }

  std::size_t size() const { return memory_.size() + spilled_; }
  std::size_t memory_size() const { return memory_.size(); }
  std::size_t spilled_size() const { return spilled_; }
  bool HasSpilled() const { return spilled_ > 0; }
  /// Spills that failed and kept their tuple in memory.
  std::uint64_t spill_failures() const { return spill_failures_; }

  /// Bytes of the memory-resident tuples (Fig. 7 accounting).
  std::size_t MemoryBytes() const;

 private:
  void DropRun();

  const std::size_t memory_capacity_;
  SecondaryStorage* storage_;
  const std::string spill_key_;
  const RetryPolicy retry_;
  const std::uint64_t seed_;

  std::deque<Entry> memory_;
  std::size_t spilled_ = 0;
  std::int64_t max_spilled_coord_ = 0;
  std::uint64_t spill_failures_ = 0;
};

}  // namespace spear
