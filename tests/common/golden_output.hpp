// Helpers for the byte-identity regression tests that run a built binary
// and compare its stdout table and metrics export against committed
// goldens.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace odtn::test {

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Drops the lines that vary between invocations and that the goldens
// exclude: wall time, the metrics-path echo, and the runs/seed/threads
// banner line.
inline std::string stable_lines(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# wall_time_s", 0) == 0) continue;
    if (line.rfind("# metrics:", 0) == 0) continue;
    if (line.find("threads:") != std::string::npos) continue;
    out << line << "\n";
  }
  return out.str();
}

}  // namespace odtn::test
