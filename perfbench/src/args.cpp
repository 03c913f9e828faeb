#include "args.hpp"

#include <algorithm>
#include <charconv>

namespace perfbench {
namespace {

std::uint64_t parse_uint(const std::string& flag, const std::string& text,
                         std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (text.empty() || ec != std::errc() || ptr != last) {
    throw ArgError("--" + flag + ": not a whole number: '" + text + "'");
  }
  if (value < lo || value > hi) {
    throw ArgError("--" + flag + ": " + text + " is outside [" +
                   std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value;
}

}  // namespace

Options parse_args(const std::vector<std::string>& args,
                   const std::vector<std::string>& workloads) {
  Options opt;
  bool have_workload = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0 || arg.size() == 2) {
      throw ArgError("unexpected argument '" + arg + "'");
    }
    std::string name = arg.substr(2);
    std::string value;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else {
      if (i + 1 >= args.size()) throw ArgError("--" + name + ": missing value");
      value = args[++i];
    }

    if (name == "workload") {
      if (std::find(workloads.begin(), workloads.end(), value) ==
          workloads.end()) {
        std::string known;
        for (const auto& w : workloads) known += (known.empty() ? "" : ", ") + w;
        throw ArgError("--workload: unknown workload '" + value +
                       "' (known: " + known + ")");
      }
      opt.workload = value;
      have_workload = true;
    } else if (name == "seed") {
      opt.seed = parse_uint(name, value, 0, UINT64_MAX);
    } else if (name == "seconds") {
      opt.seconds = parse_uint(name, value, 1, 3600);
    } else if (name == "trace") {
      opt.trace = parse_uint(name, value, 0, 1) == 1;
    } else if (name == "spans-out") {
      if (value.empty()) throw ArgError("--spans-out: empty path");
      opt.spans_out = value;
    } else {
      throw ArgError("unknown flag '--" + name + "'");
    }
  }
  if (!have_workload) throw ArgError("--workload is required");
  return opt;
}

}  // namespace perfbench
