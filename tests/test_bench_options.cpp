// The figure benches' flag parser must refuse what it does not know: an
// unknown or retired flag, a flag missing its value, a malformed number or
// an unknown dataset exits 2 with the usage line instead of silently running
// the default configuration.
#include "bench_util.h"

#include <gtest/gtest.h>

#include <vector>

namespace miras::bench {
namespace {

BenchOptions parse(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return parse_options(static_cast<int>(args.size()),
                       const_cast<char**>(args.data()));
}

TEST(BenchOptions, KnownFlagsParse) {
  const BenchOptions options =
      parse({"--csv", "--seed", "3", "--dataset", "msd", "--collectors", "2",
             "--dist-kill-after", "5", "--checkpoint-every", "1"});
  EXPECT_TRUE(options.csv);
  EXPECT_FALSE(options.full);
  EXPECT_EQ(options.seed, 3u);
  EXPECT_EQ(options.dataset, "msd");
  EXPECT_EQ(options.collectors, 2u);
  EXPECT_EQ(options.dist_kill_after, 5u);
  EXPECT_EQ(options.checkpoint_every, 1u);
}

TEST(BenchOptionsDeathTest, UnknownOrValuelessFlagsExitTwo) {
  EXPECT_EXIT(parse({"--shards", "2"}), testing::ExitedWithCode(2),
              "unknown argument '--shards'");
  EXPECT_EXIT(parse({"--transport", "file"}), testing::ExitedWithCode(2),
              "unknown argument '--transport'");
  EXPECT_EXIT(parse({"--csv", "--seed"}), testing::ExitedWithCode(2),
              "--seed needs a value");
  EXPECT_EXIT(parse({"--dataset", "MSD"}), testing::ExitedWithCode(2),
              "--dataset must be msd or ligo, got 'MSD'");
  EXPECT_EXIT(parse({"--dataset", "both"}), testing::ExitedWithCode(2),
              "--dataset must be msd or ligo");
  EXPECT_EXIT(parse({"--seed", "x3"}), testing::ExitedWithCode(2),
              "--seed needs a non-negative integer, got 'x3'");
  EXPECT_EXIT(parse({"--seed", "3x"}), testing::ExitedWithCode(2),
              "--seed needs a non-negative integer, got '3x'");
  EXPECT_EXIT(parse({"--threads", "abc"}), testing::ExitedWithCode(2),
              "--threads needs a non-negative integer, got 'abc'");
  EXPECT_EXIT(parse({"--threads", ""}), testing::ExitedWithCode(2),
              "--threads needs a non-negative integer");
  EXPECT_EXIT(parse({"--collectors", "-1"}), testing::ExitedWithCode(2),
              "--collectors needs a non-negative integer, got '-1'");
  EXPECT_EXIT(parse({"--checkpoint-every", "+2"}), testing::ExitedWithCode(2),
              "--checkpoint-every needs a non-negative integer");
  EXPECT_EXIT(parse({"--dist-kill-after", "1.5"}), testing::ExitedWithCode(2),
              "--dist-kill-after needs a non-negative integer");
  EXPECT_EXIT(parse({"--seed", "99999999999999999999"}),
              testing::ExitedWithCode(2), "--seed needs a non-negative integer");
}

}  // namespace
}  // namespace miras::bench
