#include "rl/replay_buffer.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/contracts.h"

namespace miras::rl {
namespace {

// Appends an experience whose every field is derived from `tag`.
void add_tagged(ReplayBuffer& buffer, double tag) {
  buffer.append_copy({tag}, {tag}, tag, {tag + 1.0}, 0.0);
}

TEST(ReplayBuffer, StartsEmpty) {
  ReplayBuffer buffer(10);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.capacity(), 10u);
}

TEST(ReplayBuffer, ZeroCapacityRejected) {
  EXPECT_THROW(ReplayBuffer(0), ContractViolation);
}

TEST(ReplayBuffer, GrowsUntilCapacity) {
  ReplayBuffer buffer(3);
  for (int i = 0; i < 3; ++i) add_tagged(buffer, i);
  EXPECT_EQ(buffer.size(), 3u);
  add_tagged(buffer, 99);
  EXPECT_EQ(buffer.size(), 3u);  // capped
}

TEST(ReplayBuffer, OverwritesOldestFirst) {
  ReplayBuffer buffer(3);
  for (int i = 0; i < 3; ++i) add_tagged(buffer, i);
  add_tagged(buffer, 100);  // overwrites index 0 (oldest)
  EXPECT_DOUBLE_EQ(buffer[0].reward, 100.0);
  EXPECT_DOUBLE_EQ(buffer[1].reward, 1.0);
  EXPECT_DOUBLE_EQ(buffer[2].reward, 2.0);
  add_tagged(buffer, 101);  // then index 1
  EXPECT_DOUBLE_EQ(buffer[1].reward, 101.0);
}

TEST(ReplayBuffer, SampleFromEmptyThrows) {
  ReplayBuffer buffer(4);
  Rng rng(1);
  std::vector<const Experience*> batch;
  EXPECT_THROW(buffer.sample_into(1, rng, batch), ContractViolation);
}

TEST(ReplayBuffer, SampleOfZeroThrows) {
  // An empty batch is never meaningful — downstream update code divides by
  // the batch size — so count == 0 is a contract violation, not a no-op.
  ReplayBuffer buffer(4);
  add_tagged(buffer, 1);
  Rng rng(1);
  std::vector<const Experience*> batch;
  EXPECT_THROW(buffer.sample_into(0, rng, batch), ContractViolation);
}

TEST(ReplayBuffer, SampleReturnsRequestedCount) {
  ReplayBuffer buffer(8);
  for (int i = 0; i < 5; ++i) add_tagged(buffer, i);
  Rng rng(2);
  std::vector<const Experience*> batch;
  buffer.sample_into(3, rng, batch);
  EXPECT_EQ(batch.size(), 3u);
  buffer.sample_into(20, rng, batch);
  EXPECT_EQ(batch.size(), 20u);  // with replacement
}

TEST(ReplayBuffer, SampleCoversAllEntriesEventually) {
  ReplayBuffer buffer(5);
  for (int i = 0; i < 5; ++i) add_tagged(buffer, i);
  Rng rng(3);
  std::vector<const Experience*> batch;
  buffer.sample_into(500, rng, batch);
  std::set<double> seen;
  for (const Experience* e : batch) seen.insert(e->reward);
  EXPECT_EQ(seen.size(), 5u);
}

TEST(ReplayBuffer, SampleDeterministicPerSeed) {
  ReplayBuffer buffer(6);
  for (int i = 0; i < 6; ++i) add_tagged(buffer, i);
  Rng a(7), b(7);
  std::vector<const Experience*> sa, sb;
  buffer.sample_into(10, a, sa);
  buffer.sample_into(10, b, sb);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(sa[i]->reward, sb[i]->reward);
}

TEST(ReplayBuffer, IndexBoundsChecked) {
  ReplayBuffer buffer(4);
  add_tagged(buffer, 1);
  EXPECT_THROW(buffer[1], ContractViolation);
}

TEST(ReplayBuffer, ClearResets) {
  ReplayBuffer buffer(4);
  for (int i = 0; i < 6; ++i) add_tagged(buffer, i);
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  // After clear, insertion starts from the beginning again.
  add_tagged(buffer, 42);
  EXPECT_DOUBLE_EQ(buffer[0].reward, 42.0);
}

}  // namespace
}  // namespace miras::rl
