// Repository benchmark: one workload per invocation.
//
//   odtn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans-out FILE]
//
// --trace 0: runs untraced batches through core::Experiment::run for
// --seconds, sets the workload up again after each batch (setup_s is the
// median set-up) and reports the end-to-end metrics. --trace 1: reports the per-layer
// ledger from traced single-threaded replays of the same batch. Both modes
// check the outputs (replay == untraced bit for bit, every batch equal to
// the first, loaded accounting invariants) and print one JSON object as the
// last line of standard output. Bad arguments exit 2 with one line on
// standard error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "args.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Workload;
using odtn::core::ExperimentResult;
using Clock = std::chrono::steady_clock;

// Engine workers for the untraced runs: exercises util::ThreadPool and the
// in-order fold while leaving headroom on a four-core host.
constexpr std::size_t kThreads = 2;
// The warm-up runs this share of every point's realizations (at least one),
// under a fixed experiment seed: its work is then the same for every --seed,
// so setup_s follows the host and the set-up code, not one seed's draws.
constexpr std::size_t kWarmupDivisor = 8;
constexpr std::uint64_t kWarmupSeed = 0x7761726d;
// Fewest timed batches a run reports a median over.
constexpr std::size_t kMinBatches = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The process's own high-water mark. getrusage's ru_maxrss would do, but
// Linux carries it across execve, so it would report the launching
// interpreter's peak whenever that is the larger one.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

// Realizations whose checks failed, against those attempted.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void fail(std::uint64_t runs, const std::string& why) {
    failed += runs;
    notes.push_back(why);
  }
};

std::size_t runs_per_batch(const Workload& w) {
  std::size_t runs = 0;
  for (const auto& p : w.points) runs += p.cfg.runs;
  return runs;
}

// Counts quarantined runs as failed and, unless `expected` is empty, every
// point whose folded result differs from it.
void check_batch(const Workload& w, const std::vector<ExperimentResult>& got,
                 const std::vector<ExperimentResult>& expected,
                 const char* what, Checks& checks) {
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    if (!got[i].failed_runs.empty()) {
      checks.fail(got[i].failed_runs.size(),
                  "point " + std::to_string(i) + ": quarantined run: " +
                      got[i].failed_runs.front().message);
    }
    if (!expected.empty() && !perfbench::identical(got[i], expected[i])) {
      checks.fail(w.points[i].cfg.runs,
                  "point " + std::to_string(i) + ": " + what);
    }
  }
}

void check_replay(const Workload& w, const perfbench::ReplayResult& r,
                  const std::vector<ExperimentResult>& untraced,
                  Checks& checks) {
  check_batch(w, r.results, untraced, "replay differs from Experiment::run",
              checks);
  for (const auto& v : r.violations) checks.fail(1, v);
}

// One set-up: builds the workload from the seed, then warms up on a share of
// it. Appends its wall time to `times`.
Workload set_up(const perfbench::Options& opt, std::vector<double>& times) {
  const auto t0 = Clock::now();
  Workload w = perfbench::make_workload(opt.workload, opt.seed);
  Workload warm;
  for (const auto& p : w.points) {
    warm.points.push_back(p);
    warm.points.back().cfg.runs =
        std::max<std::size_t>(1, p.cfg.runs / kWarmupDivisor);
    warm.points.back().cfg.seed = kWarmupSeed;
  }
  perfbench::run_untraced(warm, false, kThreads);
  times.push_back(seconds_since(t0));
  return w;
}

Metrics end_to_end(const Workload& w, const perfbench::Options& opt,
                   std::vector<double> setup_times, Checks& checks) {
  // Timed loop: the same batch (same inputs) until `seconds` of batches have
  // run. A fresh set-up follows every batch, so the set-up samples spread
  // over the whole run as the batches do, and a slow spell while the process
  // starts does not decide setup_s.
  std::vector<double> walls;
  std::vector<ExperimentResult> first;
  double timed = 0.0;
  while (walls.size() < kMinBatches ||
         timed < static_cast<double>(opt.seconds)) {
    const auto t0 = Clock::now();
    auto results = perfbench::run_untraced(w, false, kThreads);
    walls.push_back(seconds_since(t0));
    timed += walls.back();
    checks.attempted += runs_per_batch(w);
    check_batch(w, results, first, "batch differs from the first batch",
                checks);
    if (first.empty()) first = std::move(results);
    set_up(opt, setup_times);
  }
  const double rss = peak_rss_mb();

  const perfbench::ReplayResult replay = perfbench::replay(w, nullptr);
  checks.attempted += runs_per_batch(w);
  check_replay(w, replay, first, checks);
  const perfbench::Totals& t = replay.totals;

  std::vector<double> rates;
  for (double wall : walls) rates.push_back(t.offered / wall);
  return {
      {"setup_s", {median(setup_times), "s"}},
      {"msgs_per_s", {median(rates), "msg/s"}},
      {"peak_rss_mb", {rss, "MB"}},
      {"tx_per_msg", {ratio(t.transmissions, t.offered), "tx/msg"}},
  };
}

// The paper's outcome metrics, from the replayed realizations. Zero where a
// metric does not apply: no onion paths under the utility forwarder, no
// per-message closed form under load.
Metrics quality(const Workload& w, const perfbench::ReplayResult& r) {
  const perfbench::Totals& t = r.totals;
  double gap = 0.0;
  if (!w.loaded) {
    for (const auto& res : r.results) {
      gap = std::max(gap, std::abs(res.sim_delivered.mean() -
                                   res.ana_delivery.mean()));
    }
  }
  return {
      {"quality.delivery_frac", {ratio(t.delivered, t.offered), "fraction"}},
      {"quality.anonymity", {ratio(t.anonymity_sum, t.anonymity_count), "D"}},
      {"quality.sim_p99_delay", {ratio(t.p99_sum, t.p99_count), "sim_time"}},
      {"quality.model_gap", {gap, "fraction"}},
  };
}

// Sums a kWall timer (seconds) or counter over every point's registry.
struct EngineStats {
  double simulate_s = 0.0, fold_s = 0.0, train_s = 0.0;
  double pool_tasks = 0.0, pool_task_s = 0.0, pool_task_max_s = 0.0;
  double pool_queue_peak = 0.0;
};

EngineStats engine_stats(const std::vector<ExperimentResult>& results) {
  EngineStats s;
  for (const auto& r : results) {
    const auto& e = r.metrics.entries();
    auto hist_sum = [&](const char* name) {
      auto it = e.find(name);
      return it == e.end() ? 0.0 : it->second.hist.sum();
    };
    s.simulate_s += hist_sum("experiment.phase.simulate_seconds");
    s.fold_s += hist_sum("experiment.phase.fold_seconds");
    s.train_s += hist_sum("experiment.phase.train_seconds");
    s.pool_task_s += hist_sum("pool.task_seconds");
    if (auto it = e.find("pool.task_seconds"); it != e.end()) {
      s.pool_task_max_s = std::max(s.pool_task_max_s, it->second.hist.max());
    }
    if (auto it = e.find("pool.tasks"); it != e.end()) {
      s.pool_tasks += static_cast<double>(it->second.counter);
    }
    if (auto it = e.find("pool.queue_peak"); it != e.end()) {
      s.pool_queue_peak = std::max(s.pool_queue_peak, it->second.gauge);
    }
  }
  return s;
}

Metrics per_layer(const Workload& w, const perfbench::Options& opt,
                  Checks& checks) {
  // The engine's own kWall phase timers and pool stats.
  const EngineStats eng =
      engine_stats(perfbench::run_untraced(w, true, kThreads));

  // Untraced single-threaded batches (the replay's baseline for the
  // overhead ratio) alternate with traced replays, so slow drift in the
  // host's speed hits both sides alike.
  std::vector<ExperimentResult> untraced;
  std::vector<double> untraced_walls, traced_walls;
  std::map<std::string, double> self;  // summed over replays
  double route_total = 0.0;
  std::vector<double> route_s_each;  // first replay's route() calls
  perfbench::ReplayResult first;
  const auto start = Clock::now();
  while (traced_walls.empty() ||
         seconds_since(start) < static_cast<double>(opt.seconds)) {
    auto t0 = Clock::now();
    auto results = perfbench::run_untraced(w, false, 1);
    untraced_walls.push_back(seconds_since(t0));
    checks.attempted += runs_per_batch(w);
    check_batch(w, results, untraced, "batch differs from the first batch",
                checks);
    if (untraced.empty()) untraced = std::move(results);

    perfbench::SpanLog log;
    t0 = Clock::now();
    perfbench::ReplayResult r = perfbench::replay(w, &log);
    traced_walls.push_back(seconds_since(t0));
    checks.attempted += runs_per_batch(w);
    check_replay(w, r, untraced, checks);
    for (const auto& [layer, secs] : log.self_seconds()) self[layer] += secs;
    const std::vector<double> routes = log.durations("routing");
    for (double d : routes) route_total += d;
    if (traced_walls.size() == 1) {
      route_s_each = routes;
      first = std::move(r);
      if (!opt.spans_out.empty()) log.write_csv(opt.spans_out);
    }
  }

  const double reps = static_cast<double>(traced_walls.size());
  auto self_s = [&](const std::string& layer) {
    auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second / reps;
  };
  double attributed = 0.0;
  for (const auto& [layer, secs] : self) attributed += secs;
  double traced_total = 0.0;
  for (double t : traced_walls) traced_total += t;
  const double untraced_s = median(untraced_walls);

  const perfbench::Ledger& l = first.ledger;
  const double route_s = route_total / reps;
  const double routing_self = self_s("routing");
  const double run_s = self_s("sim.network");
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };

  Metrics out = quality(w, first);
  Metrics layers = {
      {"graph.build_s", {self_s("graph"), "s"}},
      {"graph.build_calls", {n(l.graph_builds), "count"}},
      {"graph.bytes", {ratio(l.graph_bytes, n(l.graph_builds)), "bytes"}},
      {"trace.synth_s", {w.synth_s, "s"}},
      {"trace.train_s", {self_s("trace.train"), "s"}},
      {"trace.sample_s", {self_s("trace.sample"), "s"}},
      {"trace.events", {n(l.trace_events), "count"}},
      {"groups.directory_s", {self_s("groups.directory"), "s"}},
      {"groups.keys_s", {self_s("groups.keys"), "s"}},
      {"sim.contact.model_s", {self_s("sim.contact.model"), "s"}},
      {"sim.contact.prepare_calls", {n(l.prepare_calls), "count"}},
      {"sim.contact.prepare_s", {self_s("sim.contact.prepare"), "s"}},
      {"sim.contact.query_calls", {n(l.query_calls), "count"}},
      {"sim.contact.query_s", {self_s("sim.contact.query"), "s"}},
      {"sim.contact.queries_per_msg",
       {ratio(n(l.query_calls), n(l.routed_messages)), "count"}},
      {"routing.route_s", {route_s, "s"}},
      {"routing.self_s", {routing_self, "s"}},
      {"routing.route_us_p50", {quantile(route_s_each, 0.50) * 1e6, "us"}},
      {"routing.route_us_p99", {quantile(route_s_each, 0.99) * 1e6, "us"}},
      {"routing.forwards", {n(l.forwards), "count"}},
      {"routing.tickets_spent", {n(l.tickets_spent), "count"}},
      {"routing.utility_build_s", {self_s("routing.utility_build"), "s"}},
      {"routing.peels", {n(l.peels), "count"}},
      {"routing.peel_failures", {n(l.peel_failures), "count"}},
      {"circuit.wire_cells", {n(l.wire_cells), "count"}},
      {"circuit.wire_bytes", {n(l.wire_bytes), "bytes"}},
      {"circuit.cells_per_msg",
       {ratio(n(l.wire_cells), n(l.routed_messages)), "count"}},
      {"circuit.us_per_cell", {ratio(routing_self * 1e6, n(l.wire_cells)), "us"}},
      {"adversary.s", {self_s("adversary"), "s"}},
      {"adversary.calls", {n(l.adversary_calls), "count"}},
      {"analysis.s", {self_s("analysis"), "s"}},
      {"analysis.calls", {n(l.analysis_calls), "count"}},
      {"traffic.plan_s", {self_s("traffic.plan"), "s"}},
      {"traffic.messages", {n(l.traffic_messages), "count"}},
      {"faults.plan_s", {self_s("faults.plan"), "s"}},
      {"faults.suppressed_contacts", {n(l.suppressed_contacts), "count"}},
      {"faults.transfer_failures", {n(l.transfer_failures), "count"}},
      {"faults.crash_flushed", {n(l.crash_flushed), "count"}},
      {"faults.blackhole_absorbed", {n(l.blackhole_absorbed), "count"}},
      {"sim.network.run_s", {run_s, "s"}},
      {"sim.network.contacts", {n(l.sim_contacts), "count"}},
      {"sim.network.ns_per_contact",
       {ratio(run_s * 1e9, n(l.sim_contacts)), "ns"}},
      {"sim.network.transfers", {n(l.sim_transfers), "count"}},
      {"sim.network.transfer_yield",
       {ratio(n(l.sim_delivered), n(l.sim_transfers)), "ratio"}},
      {"sim.network.queue_deferred", {n(l.queue_deferred), "count"}},
      {"sim.network.contacts_saturated", {n(l.contacts_saturated), "count"}},
      {"sim.network.max_contact_transfers",
       {n(l.max_contact_transfers), "count"}},
      {"sim.network.buffer_rejections", {n(l.buffer_rejections), "count"}},
      {"sim.network.evicted", {n(l.evicted), "count"}},
      {"sim.network.expired", {n(l.expired), "count"}},
      {"recovery.acks_created", {n(l.acks_created), "count"}},
      {"recovery.acked_at_source", {n(l.acked_at_source), "count"}},
      {"recovery.ack_gc_copies", {n(l.ack_gc_copies), "count"}},
      {"recovery.retransmissions", {n(l.retransmissions), "count"}},
      {"recovery.shed", {n(l.shed), "count"}},
      {"recovery.suspicion_flips", {n(l.suspicion_flips), "count"}},
      {"core.simulate_s", {eng.simulate_s, "s"}},
      {"core.fold_s", {eng.fold_s, "s"}},
      {"core.train_s", {eng.train_s, "s"}},
      {"core.pool_tasks", {eng.pool_tasks, "count"}},
      {"core.pool_task_s_mean", {ratio(eng.pool_task_s, eng.pool_tasks), "s"}},
      {"core.pool_task_s_max", {eng.pool_task_max_s, "s"}},
      {"core.pool_queue_peak", {eng.pool_queue_peak, "count"}},
      {"core.traced_wall_s", {traced_total / reps, "s"}},
      {"core.untraced_wall_s", {untraced_s, "s"}},
      {"core.unattributed_s", {(traced_total - attributed) / reps, "s"}},
      {"core.trace_overhead_frac",
       {ratio(median(traced_walls), untraced_s) - 1.0, "ratio"}},
  };
  out.insert(out.end(), layers.begin(), layers.end());
  return out;
}

void print_result(const Checks& checks, const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("%-34s %18.6f %s\n", name.c_str(), m.value, m.unit);
  }
  for (const auto& note : checks.notes) {
    std::printf("check failed: %s\n", note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    opt = perfbench::parse_args(
        std::vector<std::string>(argv + 1, argv + argc),
        perfbench::workload_names());
  } catch (const perfbench::ArgError& e) {
    std::fprintf(stderr, "odtn_perfbench: %s\n", e.what());
    return 2;
  }

  try {
    std::vector<double> setup_times;
    const Workload w = set_up(opt, setup_times);
    Checks checks;
    const Metrics metrics = opt.trace
                                ? per_layer(w, opt, checks)
                                : end_to_end(w, opt, setup_times, checks);
    print_result(checks, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "odtn_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
