#include "envmodel/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/contracts.h"

namespace miras::envmodel {
namespace {

Transition make_transition(double base) {
  return Transition{{base, base + 1.0},
                    {static_cast<int>(base), 1},
                    {base + 2.0, base + 3.0},
                    -base};
}

TEST(TransitionDataset, StartsEmpty) {
  TransitionDataset data(2, 2);
  EXPECT_TRUE(data.empty());
  EXPECT_EQ(data.size(), 0u);
  EXPECT_EQ(data.state_dim(), 2u);
  EXPECT_EQ(data.action_dim(), 2u);
}

TEST(TransitionDataset, AddAndIndex) {
  TransitionDataset data(2, 2);
  data.add(make_transition(1.0));
  data.add(make_transition(5.0));
  EXPECT_EQ(data.size(), 2u);
  EXPECT_DOUBLE_EQ(data[0].state[0], 1.0);
  EXPECT_DOUBLE_EQ(data[1].next_state[1], 8.0);
  EXPECT_DOUBLE_EQ(data[1].reward, -5.0);
  EXPECT_THROW(data[2], ContractViolation);
}

TEST(TransitionDataset, DimensionsValidated) {
  TransitionDataset data(2, 2);
  Transition bad_state = make_transition(0.0);
  bad_state.state.push_back(9.0);
  EXPECT_THROW(data.add(bad_state), ContractViolation);

  Transition bad_action = make_transition(0.0);
  bad_action.action.pop_back();
  EXPECT_THROW(data.add(bad_action), ContractViolation);

  Transition bad_next = make_transition(0.0);
  bad_next.next_state.clear();
  EXPECT_THROW(data.add(bad_next), ContractViolation);
}

TEST(TransitionDataset, NonFiniteValuesRejectedNamingFieldAndIndex) {
  // One case per field: a NaN or +-Inf throws its own error naming the
  // dataset position, the field and the index, and the dataset is
  // unchanged.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* field;
    std::size_t index;
    double value;
    std::string expected;
  };
  const std::vector<Case> cases = {
      {"state", 1, kNan, "dataset transition 1 has non-finite state[1]"},
      {"next_state", 0, kInf,
       "dataset transition 1 has non-finite next_state[0]"},
      {"reward", 0, -kInf, "dataset transition 1 has non-finite reward"},
  };
  for (const Case& c : cases) {
    TransitionDataset data(2, 2);
    data.add(make_transition(1.0));
    Transition bad = make_transition(2.0);
    if (std::string(c.field) == "state") bad.state[c.index] = c.value;
    if (std::string(c.field) == "next_state") bad.next_state[c.index] = c.value;
    if (std::string(c.field) == "reward") bad.reward = c.value;
    try {
      data.add(bad);
      ADD_FAILURE() << "accepted " << c.expected;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(c.expected), std::string::npos)
          << error.what();
    }
    EXPECT_EQ(data.size(), 1u);
  }
}

TEST(TransitionDataset, StateDimensionExtraction) {
  TransitionDataset data(2, 2);
  for (const double b : {3.0, 1.0, 2.0}) data.add(make_transition(b));
  EXPECT_EQ(data.state_dimension(0), (std::vector<double>{3.0, 1.0, 2.0}));
  EXPECT_EQ(data.state_dimension(1), (std::vector<double>{4.0, 2.0, 3.0}));
  EXPECT_THROW(data.state_dimension(2), ContractViolation);
}

TEST(TransitionDataset, ShuffledIndicesArePermutation) {
  TransitionDataset data(2, 2);
  for (int i = 0; i < 20; ++i) data.add(make_transition(i));
  Rng rng(5);
  std::vector<std::size_t> indices;
  data.shuffled_indices_into(rng, indices);
  EXPECT_EQ(indices.size(), 20u);
  std::sort(indices.begin(), indices.end());
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(indices[i], i);
}

TEST(TransitionDataset, ShuffleDeterministicPerSeed) {
  TransitionDataset data(2, 2);
  for (int i = 0; i < 10; ++i) data.add(make_transition(i));
  Rng a(9), b(9);
  std::vector<std::size_t> first, second{7, 7, 7};
  data.shuffled_indices_into(a, first);
  data.shuffled_indices_into(b, second);  // resizes a non-empty buffer
  EXPECT_EQ(first, second);
}

TEST(TransitionDataset, SplitTailPreservesOrderAndCounts) {
  TransitionDataset data(2, 2);
  for (int i = 0; i < 10; ++i) data.add(make_transition(i));
  const auto [train, test] = data.split_tail(3);
  EXPECT_EQ(train.size(), 7u);
  EXPECT_EQ(test.size(), 3u);
  EXPECT_DOUBLE_EQ(train[0].state[0], 0.0);
  EXPECT_DOUBLE_EQ(train[6].state[0], 6.0);
  EXPECT_DOUBLE_EQ(test[0].state[0], 7.0);
  EXPECT_DOUBLE_EQ(test[2].state[0], 9.0);
}

TEST(TransitionDataset, SplitTailBounds) {
  TransitionDataset data(2, 2);
  data.add(make_transition(1.0));
  EXPECT_NO_THROW(data.split_tail(1));
  EXPECT_NO_THROW(data.split_tail(0));
  EXPECT_THROW(data.split_tail(2), ContractViolation);
}

TEST(TransitionDataset, ZeroDimensionsRejected) {
  EXPECT_THROW(TransitionDataset(0, 2), ContractViolation);
  EXPECT_THROW(TransitionDataset(2, 0), ContractViolation);
}

}  // namespace
}  // namespace miras::envmodel
