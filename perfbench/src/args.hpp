// Strict command-line parsing for the benchmark binary.
//
// Unlike util::Args (which keeps unknown flags and half-numeric values),
// every malformed input here is an error: an unknown flag, a flag without
// its value, an unknown workload name, or a number with trailing garbage
// ("--seed=1x"). main() turns ArgError into a one-line diagnostic and
// exit code 2.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct ArgError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  /// Traced runs only: where the span log is written (empty = not written).
  std::string spans_out;
};

/// Parses the arguments after the program name. Flags take `--name value`
/// or `--name=value`; `--workload` is required and must be one of
/// `workloads`. Throws ArgError with a one-line message.
Options parse_args(const std::vector<std::string>& args,
                   const std::vector<std::string>& workloads);

}  // namespace perfbench
