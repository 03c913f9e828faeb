#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

std::map<std::string, double> self_seconds(
    const std::vector<Span>& spans,
    const std::map<std::string, double>& leaf_seconds) {
  std::vector<std::int64_t> self_ns(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ns[i] += spans[i].end_ns - spans[i].start_ns - spans[i].leaf_ns;
    if (spans[i].parent >= 0) {
      self_ns[static_cast<std::size_t>(spans[i].parent)] -=
          spans[i].end_ns - spans[i].start_ns;
    }
  }
  std::map<std::string, double> out(leaf_seconds);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].layer] += self_ns[i] * 1e-9;
  }
  return out;
}

std::size_t SpanLog::open(const char* layer, std::uint32_t realization) {
  Span s;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.realization = realization;
  s.start_ns = steady_ns() - epoch_ns_;
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanLog: spans must close innermost first");
  }
  spans_[index].end_ns = steady_ns() - epoch_ns_;
  open_.pop_back();
}

void SpanLog::add_leaf(const char* layer, std::int64_t ns) {
  if (!open_.empty()) spans_[open_.back()].leaf_ns += ns;
  leaf_ns_[layer] += ns;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::map<std::string, double> leaves;
  for (const auto& [layer, ns] : leaf_ns_) leaves[layer] = ns * 1e-9;
  return perfbench::self_seconds(spans_, leaves);
}

std::vector<double> SpanLog::durations(const std::string& layer) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (layer == s.layer) out.push_back(s.duration_s());
  }
  return out;
}

void SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log to " + path);
  out << "layer,parent,realization,start_ns,end_ns,leaf_ns\n";
  for (const Span& s : spans_) {
    out << s.layer << ',' << s.parent << ',' << s.realization << ','
        << s.start_ns << ',' << s.end_ns << ',' << s.leaf_ns << '\n';
  }
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
