// In-memory span log for the traced replay.
//
// The benchmark records spans from outside the library: around each call
// into a layer's public API. Spans nest strictly (single-threaded replay),
// so a span's self time is its duration minus the durations of its direct
// children, minus the "leaf" time attributed to it. Leaf time is for calls
// too frequent to log one by one (every ContactModel prepare/query): the
// caller adds their total to the innermost open span and to its own layer
// through add_leaf(), instead of storing millions of tiny spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock reading in nanoseconds.
inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* layer = "";       // static string: the layer name
  std::int64_t parent = -1;     // index into the log, -1 for a root
  std::uint32_t realization = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t leaf_ns = 0;     // time of unlogged calls made inside it
  double duration_s() const { return (end_ns - start_ns) * 1e-9; }
};

/// Self seconds per layer: each span's duration minus its children's
/// durations and its leaf time; leaf time itself is credited to the
/// layers named in `leaf_seconds`. Exposed for the unit tests.
std::map<std::string, double> self_seconds(
    const std::vector<Span>& spans,
    const std::map<std::string, double>& leaf_seconds = {});

class SpanLog {
 public:
  /// Opens a span as a child of the innermost open span.
  std::size_t open(const char* layer, std::uint32_t realization);
  void close(std::size_t index);

  /// Attributes `ns` of unlogged calls of `layer` to the innermost open
  /// span (subtracted from its self time) and to `layer`.
  void add_leaf(const char* layer, std::int64_t ns);

  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, double> self_seconds() const;
  /// Duration in seconds of every span of `layer`, in log order.
  std::vector<double> durations(const std::string& layer) const;

  /// Writes the log as CSV: layer,parent,realization,start_ns,end_ns,leaf_ns.
  void write_csv(const std::string& path) const;

 private:
  std::int64_t epoch_ns_ = steady_ns();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::map<std::string, std::int64_t> leaf_ns_;
};

/// RAII span; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, const char* layer, std::uint32_t realization)
      : log_(log), index_(log ? log->open(layer, realization) : 0) {}
  ~Scope() {
    if (log_) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

}  // namespace perfbench
