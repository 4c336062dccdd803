// The figure benches' flag parser must refuse what it does not know: an
// unknown or retired flag, or a flag missing its value, exits 2 with the
// usage line instead of silently running the default configuration.
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
}

}  // namespace
}  // namespace miras::bench
