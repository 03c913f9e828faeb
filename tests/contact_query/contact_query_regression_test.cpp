// Byte-identity regression for every paper figure binary (Figs. 4-19): at
// --runs=40 --seed=7 each must reproduce its committed golden table and
// metrics export exactly, at --threads=1 and --threads=4. The fig06 goldens
// were generated before the prepared-plan contact-query API existed; the
// others were generated from the per-figure drivers that the table-driven
// bench/figures.cpp replaced. Any drift in pair enumeration order, prefix
// sums, RNG draw sequence, sweep order or cell formatting shows up here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/golden_output.hpp"

namespace {

using odtn::test::read_file;
using odtn::test::stable_lines;

// `binary` is a figNN_* target name; its goldens are data/figNN_*.
void run_figure_and_compare(const std::string& binary, int threads) {
  const std::string fig = binary.substr(0, binary.find('_'));
  const std::string stem =
      ::testing::TempDir() + fig + "_t" + std::to_string(threads);
  const std::string out_path = stem + ".txt";
  const std::string metrics_path = stem + ".jsonl";
  const std::string cmd = std::string(ODTN_BENCH_DIR) + "/" + binary +
                          " --runs=40 --seed=7 --threads=" +
                          std::to_string(threads) +
                          " --metrics-out=" + metrics_path + " > " + out_path +
                          " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  const std::string data = std::string(ODTN_CQ_DATA_DIR) + "/" + fig;
  EXPECT_EQ(stable_lines(read_file(out_path)),
            read_file(data + "_stable.txt"))
      << binary << " table drifted at --threads=" << threads;
  EXPECT_EQ(read_file(metrics_path), read_file(data + "_metrics.jsonl"))
      << binary << " metrics export drifted at --threads=" << threads;
}

TEST(ContactQueryRegression, Fig06ByteIdenticalSingleThread) {
  run_figure_and_compare("fig06_traceable_vs_compromised", 1);
}

TEST(ContactQueryRegression, Fig06ByteIdenticalFourThreads) {
  run_figure_and_compare("fig06_traceable_vs_compromised", 4);
}

class FigureGolden
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(FigureGolden, ByteIdentical) {
  run_figure_and_compare(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

// Every figure binary except fig06, which the two tests above cover.
INSTANTIATE_TEST_SUITE_P(
    Figures, FigureGolden,
    ::testing::Combine(
        ::testing::Values("fig04_delivery_vs_deadline_group",
                          "fig05_delivery_vs_deadline_onions",
                          "fig07_traceable_vs_onions",
                          "fig08_anonymity_vs_compromised",
                          "fig09_anonymity_vs_group",
                          "fig10_delivery_vs_deadline_copies",
                          "fig11_cost_vs_copies",
                          "fig12_anonymity_vs_compromised_copies",
                          "fig13_anonymity_vs_group_copies",
                          "fig14_cambridge_delivery",
                          "fig15_cambridge_traceable",
                          "fig16_cambridge_anonymity",
                          "fig17_infocom_delivery",
                          "fig18_infocom_traceable",
                          "fig19_infocom_anonymity"),
        ::testing::Values(1, 4)),
    [](const auto& info) {
      const std::string binary = std::get<0>(info.param);
      return binary.substr(0, binary.find('_')) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
