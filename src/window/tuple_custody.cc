#include "window/tuple_custody.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace spear {

TupleCustody::TupleCustody(std::size_t memory_capacity,
                           SecondaryStorage* storage, std::string spill_key,
                           RetryPolicy retry, std::uint64_t seed)
    : memory_capacity_(memory_capacity),
      storage_(storage),
      spill_key_(std::move(spill_key)),
      retry_(retry),
      seed_(seed) {
  SPEAR_CHECK(memory_capacity_ == 0 || storage_ != nullptr);
}

TupleCustody::Placement TupleCustody::Append(std::int64_t coord, Tuple tuple,
                                             Retries* retries) {
  if (memory_capacity_ == 0 || memory_.size() < memory_capacity_) {
    memory_.push_back(Entry{coord, std::move(tuple)});
    return Placement::kMemory;
  }
  tuple.AppendField(Value(coord));
  const Status stored = RetryTransient(
      retry_, seed_ ^ (spilled_ + 0x5702EULL),
      [&] { return storage_->Store(spill_key_, tuple); },
      retries != nullptr ? &retries->retries : nullptr,
      retries != nullptr ? &retries->recovered : nullptr);
  if (stored.ok()) {
    max_spilled_coord_ =
        spilled_ == 0 ? coord : std::max(max_spilled_coord_, coord);
    ++spilled_;
    return Placement::kSpilled;
  }
  tuple.PopField();
  ++spill_failures_;
  memory_.push_back(Entry{coord, std::move(tuple)});
  return Placement::kSpillFailed;
}

Status TupleCustody::Unspill(Retries* retries) {
  if (spilled_ == 0) return Status::OK();
  std::vector<Tuple> run;
  SPEAR_RETURN_NOT_OK(RetryTransient(
      retry_, seed_ ^ (spilled_ + 0xD0D0ULL),
      [&] {
        Result<std::vector<Tuple>> fetched = storage_->Get(spill_key_);
        if (!fetched.ok()) return fetched.status();
        run = std::move(fetched).ValueOrDie();
        return Status::OK();
      },
      retries != nullptr ? &retries->retries : nullptr,
      retries != nullptr ? &retries->recovered : nullptr));
  for (Tuple& t : run) {
    const std::int64_t coord = t.PopField().AsInt64();
    memory_.push_back(Entry{coord, std::move(t)});
  }
  DropRun();
  return Status::OK();
}

std::size_t TupleCustody::EvictBefore(std::int64_t coord) {
  const std::size_t before = size();
  memory_.erase(std::remove_if(memory_.begin(), memory_.end(),
                               [&](const Entry& e) { return e.coord < coord; }),
                memory_.end());
  // SPEAr never fetches data from S just to throw it away.
  if (spilled_ > 0 && max_spilled_coord_ < coord) DropRun();
  return before - size();
}

void TupleCustody::Clear() {
  memory_.clear();
  if (storage_ != nullptr) DropRun();
}

std::size_t TupleCustody::MemoryBytes() const {
  std::size_t total = 0;
  for (const Entry& e : memory_) total += e.tuple.ByteSize();
  return total;
}

void TupleCustody::DropRun() {
  storage_->Erase(spill_key_);
  spilled_ = 0;
}

}  // namespace spear
