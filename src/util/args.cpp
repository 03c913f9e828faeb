#include "util/args.hpp"

#include <charconv>
#include <stdexcept>

namespace odtn::util {

Args::Args(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        flags_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[body] = argv[++i];
      } else {
        flags_[body] = "true";
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Args::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Args::get(const std::string& name, const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

namespace {

// Parses the whole of `s` as a T. A value from_chars does not consume
// completely ("1x", "", "0.5" for an integer) throws std::invalid_argument
// naming the flag, so a typo fails loudly instead of running with a prefix.
template <typename T>
T parse_number(const std::string& name, const std::string& s) {
  T v{};
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("--" + name + ": not a number: '" + s + "'");
  }
  return v;
}

}  // namespace

std::int64_t Args::get_int(const std::string& name, std::int64_t def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def
                            : parse_number<std::int64_t>(name, it->second);
}

std::uint64_t Args::get_uint(const std::string& name,
                            std::uint64_t def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  if (it->second.rfind('-', 0) == 0) {
    throw std::invalid_argument("--" + name + ": must not be negative: '" +
                                it->second + "'");
  }
  return parse_number<std::uint64_t>(name, it->second);
}

double Args::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : parse_number<double>(name, it->second);
}

bool Args::get_bool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace odtn::util
