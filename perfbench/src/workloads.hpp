// The benchmark's workloads and the two ways it runs them.
//
// A workload is a list of sweep points (an ExperimentConfig plus, for the
// trace figures, a synthesized contact trace), all generated from the
// benchmark seed. run_untraced() pushes every point through
// core::Experiment::run — the measured program. replay() re-executes the
// same realizations single-threaded through the layers' public functions,
// in the engine's exact RNG order, recording a span around each call; its
// folded results must equal the untraced ones bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "spans.hpp"

namespace perfbench {

struct Point {
  odtn::core::ExperimentConfig cfg;
  /// Trace figures only (Figs. 14-19); null for random-graph points.
  const odtn::trace::ContactTrace* trace = nullptr;
};

struct Workload {
  /// Loaded workloads push whole traffic plans through NetworkSim; the
  /// others route one message per realization.
  bool loaded = false;
  std::vector<Point> points;
  std::vector<std::unique_ptr<odtn::trace::ContactTrace>> traces;
  double synth_s = 0.0;  // trace synthesis time during set-up
};

const std::vector<std::string>& workload_names();

/// Builds a workload from the benchmark seed: every point's config.seed is
/// derived from it, and so are the synthesized traces.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Experiment::run over every point, in point order, on `threads` workers.
std::vector<odtn::core::ExperimentResult> run_untraced(const Workload& w,
                                                       bool collect_metrics,
                                                       std::size_t threads);

/// Per-workload tallies from the replay's realizations.
struct Totals {
  std::uint64_t offered = 0;    // messages
  std::uint64_t delivered = 0;  // messages
  std::uint64_t transmissions = 0;
  double anonymity_sum = 0.0;   // over delivered messages with a path
  std::uint64_t anonymity_count = 0;
  double p99_sum = 0.0;         // per-run p99 delay, summed over runs
  std::uint64_t p99_count = 0;
};

/// Counts the layers report through their return values, plus the
/// benchmark's own call counts. Times live in the span log.
struct Ledger {
  std::uint64_t graph_builds = 0;
  double graph_bytes = 0.0;  // summed over builds
  std::uint64_t trace_events = 0;
  std::uint64_t prepare_calls = 0;
  std::uint64_t query_calls = 0;
  std::uint64_t routed_messages = 0;  // unloaded route() calls
  std::uint64_t forwards = 0;
  std::uint64_t tickets_spent = 0;
  std::uint64_t peels = 0;
  std::uint64_t peel_failures = 0;
  std::uint64_t wire_cells = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t adversary_calls = 0;
  std::uint64_t analysis_calls = 0;
  std::uint64_t traffic_messages = 0;
  std::uint64_t suppressed_contacts = 0;
  std::uint64_t transfer_failures = 0;
  std::uint64_t crash_flushed = 0;
  std::uint64_t blackhole_absorbed = 0;
  std::uint64_t sim_contacts = 0;
  std::uint64_t sim_transfers = 0;
  std::uint64_t sim_delivered = 0;
  std::uint64_t queue_deferred = 0;
  std::uint64_t contacts_saturated = 0;
  std::uint64_t max_contact_transfers = 0;  // max over runs
  std::uint64_t buffer_rejections = 0;
  std::uint64_t evicted = 0;
  std::uint64_t expired = 0;
  std::uint64_t acks_created = 0;
  std::uint64_t acked_at_source = 0;
  std::uint64_t ack_gc_copies = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t shed = 0;
  std::uint64_t suspicion_flips = 0;
};

struct ReplayResult {
  std::vector<odtn::core::ExperimentResult> results;  // one per point
  Totals totals;
  Ledger ledger;
  /// Loaded runs that broke an accounting invariant, one line each.
  std::vector<std::string> violations;
};

/// Replays every realization of `w`. A null `log` records no spans.
ReplayResult replay(const Workload& w, SpanLog* log);

/// Bitwise equality of every folded field of two results (wall time and
/// metrics excluded).
bool identical(const odtn::core::ExperimentResult& a,
               const odtn::core::ExperimentResult& b);

}  // namespace perfbench
