// Byte-identity regression for the loaded engine's recovery layer: one
// small `odtn simulate` run with traffic, contact bandwidth, buffers,
// faults, ACK vaccination, retransmission, suspicion and shedding must
// reproduce the committed golden table and metrics export exactly, at
// --threads=1 and --threads=4. Any drift in ACK spread order, vaccine GC,
// retransmission timing or RNG draw sequence shows up here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/golden_output.hpp"

namespace {

using odtn::test::read_file;
using odtn::test::stable_lines;

void run_simulate_and_compare(int threads) {
  const std::string stem =
      ::testing::TempDir() + "recovery_t" + std::to_string(threads);
  const std::string out_path = stem + ".txt";
  const std::string metrics_path = stem + ".jsonl";
  const std::string cmd =
      std::string(ODTN_CLI_BIN) +
      " simulate --n=50 --L=3 --runs=8 --seed=5 --threads=" +
      std::to_string(threads) +
      " --traffic-rate=0.8 --traffic-horizon=500 --traffic-flows=2"
      " --traffic-priorities=0,1 --bandwidth-capacity=2 --buffer-capacity=8"
      " --fault-p-fail=0.2 --fault-mean-uptime=400"
      " --fault-mean-downtime=100 --fault-blackhole-fraction=0.2"
      " --ack-vaccine --recovery-retx-timeout=300"
      " --recovery-suspicion-alpha=0.3 --shed-occupancy=0.9"
      " --shed-saturation=0.75 --metrics-out=" +
      metrics_path + " > " + out_path + " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  const std::string golden_table =
      read_file(std::string(ODTN_RECOVERY_DATA_DIR) + "/loaded_stable.txt");
  const std::string golden_metrics =
      read_file(std::string(ODTN_RECOVERY_DATA_DIR) + "/loaded_metrics.jsonl");
  EXPECT_EQ(stable_lines(read_file(out_path)), golden_table)
      << "simulate table drifted at --threads=" << threads;
  EXPECT_EQ(read_file(metrics_path), golden_metrics)
      << "metrics export drifted at --threads=" << threads;
}

TEST(RecoveryRegression, LoadedSimulateByteIdenticalSingleThread) {
  run_simulate_and_compare(1);
}

TEST(RecoveryRegression, LoadedSimulateByteIdenticalFourThreads) {
  run_simulate_and_compare(4);
}

}  // namespace
