// Byte-identity regression for the contact-query redesign: Figure 6 at
// --runs=40 --seed=7 must reproduce the committed golden table and metrics
// export exactly, at --threads=1 and --threads=4. The goldens in data/
// were generated before the prepared-plan API existed, so any drift in
// pair enumeration order, prefix sums, or RNG draw sequence shows up here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/golden_output.hpp"

namespace {

using odtn::test::read_file;
using odtn::test::stable_lines;

void run_fig06_and_compare(int threads) {
  const std::string out_path =
      ::testing::TempDir() + "fig06_t" + std::to_string(threads) + ".txt";
  const std::string metrics_path =
      ::testing::TempDir() + "fig06_t" + std::to_string(threads) + ".jsonl";
  const std::string cmd = std::string(ODTN_FIG06_BIN) +
                          " --runs=40 --seed=7 --threads=" +
                          std::to_string(threads) +
                          " --metrics-out=" + metrics_path + " > " + out_path +
                          " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  const std::string golden_table =
      read_file(std::string(ODTN_CQ_DATA_DIR) + "/fig06_stable.txt");
  const std::string golden_metrics =
      read_file(std::string(ODTN_CQ_DATA_DIR) + "/fig06_metrics.jsonl");
  EXPECT_EQ(stable_lines(read_file(out_path)), golden_table)
      << "figure table drifted at --threads=" << threads;
  EXPECT_EQ(read_file(metrics_path), golden_metrics)
      << "metrics export drifted at --threads=" << threads;
}

TEST(ContactQueryRegression, Fig06ByteIdenticalSingleThread) {
  run_fig06_and_compare(1);
}

TEST(ContactQueryRegression, Fig06ByteIdenticalFourThreads) {
  run_fig06_and_compare(4);
}

}  // namespace
