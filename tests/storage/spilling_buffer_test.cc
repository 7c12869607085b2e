#include "window/tuple_custody.h"

#include <gtest/gtest.h>

// TupleCustody's spilling-buffer contract: memory up to the budget, one
// spill run in S beyond it, read back only on demand.

namespace spear {
namespace {

Tuple T(Timestamp t) { return Tuple(t, {Value(static_cast<double>(t))}); }

TEST(SpillingBufferTest, UnlimitedNeverSpills) {
  TupleCustody buf(0, nullptr, "k");
  for (int i = 0; i < 1000; ++i) buf.Append(i, T(i));
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(buf.spilled_size(), 0u);
  EXPECT_FALSE(buf.HasSpilled());
}

TEST(SpillingBufferTest, SpillsBeyondCapacity) {
  SecondaryStorage storage;
  TupleCustody buf(10, &storage, "k");
  for (int i = 0; i < 25; ++i) buf.Append(i, T(i));
  EXPECT_EQ(buf.memory_size(), 10u);
  EXPECT_EQ(buf.spilled_size(), 15u);
  EXPECT_EQ(buf.size(), 25u);
  EXPECT_TRUE(buf.HasSpilled());
  EXPECT_EQ(storage.CountFor("k"), 15u);
}

TEST(SpillingBufferTest, MaterializeReturnsAllInOrder) {
  SecondaryStorage storage;
  TupleCustody buf(5, &storage, "k");
  // Coordinates differ from event times (as in count windows): both must
  // survive the trip through S.
  for (int i = 0; i < 12; ++i) buf.Append(100 + i, T(i));
  ASSERT_TRUE(buf.Unspill().ok());
  ASSERT_EQ(buf.memory().size(), 12u);
  for (int i = 0; i < 12; ++i) {
    const TupleCustody::Entry& e = buf.memory()[i];
    EXPECT_EQ(e.coord, 100 + i);
    EXPECT_EQ(e.tuple.event_time(), i);
    ASSERT_EQ(e.tuple.num_fields(), 1u);
    EXPECT_DOUBLE_EQ(e.tuple.field(0).AsDouble(), i);
  }
  EXPECT_FALSE(buf.HasSpilled());
  EXPECT_EQ(storage.CountFor("k"), 0u);  // run erased once read back
}

TEST(SpillingBufferTest, MaterializeWithoutSpillAvoidsStorage) {
  SecondaryStorage storage;
  TupleCustody buf(100, &storage, "k");
  buf.Append(1, T(1));
  ASSERT_TRUE(buf.Unspill().ok());
  EXPECT_EQ(buf.memory().size(), 1u);
  EXPECT_EQ(storage.get_calls(), 0u);
}

TEST(SpillingBufferTest, ClearErasesSpilledRun) {
  SecondaryStorage storage;
  TupleCustody buf(2, &storage, "k");
  for (int i = 0; i < 5; ++i) buf.Append(i, T(i));
  buf.Clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(storage.CountFor("k"), 0u);
}

TEST(SpillingBufferTest, MemoryBytesCoversResidentOnly) {
  SecondaryStorage storage;
  TupleCustody buf(3, &storage, "k");
  for (int i = 0; i < 10; ++i) buf.Append(i, T(i));
  const std::size_t bytes = buf.MemoryBytes();
  EXPECT_GT(bytes, 0u);
  EXPECT_LT(bytes, 10 * T(0).ByteSize());  // only 3 resident
}

TEST(SpillingBufferTest, ExpiredRunDiscardedWithoutReading) {
  SecondaryStorage storage;
  TupleCustody buf(2, &storage, "k");
  for (int i = 0; i < 10; ++i) buf.Append(i, T(i));  // 2..9 spill

  // Coordinates 5..9 of the run are still live: keep it.
  EXPECT_EQ(buf.EvictBefore(5), 2u);
  EXPECT_EQ(buf.memory_size(), 0u);
  EXPECT_EQ(buf.spilled_size(), 8u);
  EXPECT_EQ(storage.CountFor("k"), 8u);

  // Every spilled coordinate expired: drop the run unread.
  EXPECT_EQ(buf.EvictBefore(10), 8u);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(storage.CountFor("k"), 0u);
  EXPECT_EQ(storage.get_calls(), 0u);
}

}  // namespace
}  // namespace spear
