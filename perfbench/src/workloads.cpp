#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

#include "adversary/adversary.hpp"
#include "analysis/anonymity.hpp"
#include "analysis/cost.hpp"
#include "analysis/delivery.hpp"
#include "analysis/traceable.hpp"
#include "common/bench_common.hpp"
#include "counting_model.hpp"
#include "faults/faults.hpp"
#include "graph/contact_graph.hpp"
#include "graph/sparse_contact_graph.hpp"
#include "groups/group_directory.hpp"
#include "groups/key_manager.hpp"
#include "onion/onion.hpp"
#include "recovery/recovery.hpp"
#include "routing/onion_routing.hpp"
#include "routing/utility_forwarder.hpp"
#include "sim/contact_model.hpp"
#include "sim/network_sim.hpp"
#include "trace/synthetic.hpp"
#include "traffic/traffic.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace odtn;
using core::ExperimentConfig;
using core::ExperimentResult;

namespace {

// Realizations per sweep point in one batch. paper_sweep uses the fig*
// benches' default --runs; the others are sized so a batch takes one to three
// seconds on two workers, which leaves several batches — and a median — in a
// run.
constexpr std::size_t kPaperRuns = 200;
constexpr std::size_t kWireRuns = 300;
constexpr std::size_t kRecoveryRuns = 8;
constexpr std::size_t kScaleRuns = 4;

// Figs. 4-19 exactly as the bench/fig* programs sweep them (Table II base:
// n = 100, ICT ~ U[10, 360], g = 5, K = 3, L = 1, c/n = 0.1).
void add_paper_points(Workload& w, std::uint64_t seed) {
  std::vector<ExperimentConfig> cfgs;
  ExperimentConfig base;
  base.runs = kPaperRuns;

  for (double t : bench::deadline_sweep()) {  // Fig. 4
    for (std::size_t g : {1u, 5u, 10u}) {
      auto c = base;
      c.group_size = g;
      c.ttl = t;
      cfgs.push_back(c);
    }
  }
  for (double t : bench::deadline_sweep()) {  // Fig. 5
    for (std::size_t k : {3u, 5u, 10u}) {
      auto c = base;
      c.num_relays = k;
      c.ttl = t;
      cfgs.push_back(c);
    }
  }
  auto security = base;  // Figs. 6-9, 11-13 measure delivered paths
  security.ttl = 1e6;
  for (double f : bench::compromise_sweep()) {  // Fig. 6
    for (std::size_t k : {3u, 5u, 10u}) {
      auto c = security;
      c.num_relays = k;
      c.compromise_fraction = f;
      cfgs.push_back(c);
    }
  }
  for (std::size_t k = 1; k <= 10; ++k) {  // Fig. 7
    for (double f : {0.10, 0.20, 0.30}) {
      auto c = security;
      c.num_relays = k;
      c.compromise_fraction = f;
      cfgs.push_back(c);
    }
  }
  for (double f : bench::compromise_sweep()) {  // Fig. 8
    for (std::size_t g : {1u, 5u, 10u}) {
      auto c = security;
      c.group_size = g;
      c.compromise_fraction = f;
      cfgs.push_back(c);
    }
  }
  for (std::size_t g = 1; g <= 10; ++g) {  // Fig. 9
    for (double f : {0.10, 0.20, 0.30}) {
      auto c = security;
      c.group_size = g;
      c.compromise_fraction = f;
      cfgs.push_back(c);
    }
  }
  for (double t : bench::deadline_sweep()) {  // Fig. 10
    for (std::size_t l : {1u, 3u, 5u}) {
      auto c = base;
      c.copies = l;
      c.ttl = t;
      cfgs.push_back(c);
    }
  }
  for (std::size_t l = 1; l <= 5; ++l) {  // Fig. 11
    for (std::size_t k : {3u, 10u}) {
      auto c = security;
      c.num_relays = k;
      c.copies = l;
      cfgs.push_back(c);
    }
  }
  for (double f : bench::compromise_sweep()) {  // Fig. 12
    for (std::size_t l : {1u, 3u, 5u}) {
      auto c = security;
      c.copies = l;
      c.compromise_fraction = f;
      cfgs.push_back(c);
    }
  }
  for (std::size_t g = 1; g <= 10; ++g) {  // Fig. 13
    for (std::size_t l : {1u, 3u}) {
      auto c = security;
      c.group_size = g;
      c.copies = l;
      cfgs.push_back(c);
    }
  }
  for (const auto& c : cfgs) w.points.push_back({c, nullptr});

  // Figs. 14-19 on the synthetic Cambridge-like and Infocom'05-like traces.
  const std::int64_t t0 = steady_ns();
  w.traces.push_back(std::make_unique<trace::ContactTrace>(
      trace::make_cambridge_like(util::derive_seed(seed, 0x63616d))));
  w.traces.push_back(std::make_unique<trace::ContactTrace>(
      trace::make_infocom_like(util::derive_seed(seed, 0x696e66))));
  w.synth_s = (steady_ns() - t0) * 1e-9;
  const trace::ContactTrace* cambridge = w.traces[0].get();
  const trace::ContactTrace* infocom = w.traces[1].get();

  auto cam = base;
  cam.group_size = 1;
  for (double t : {120.0, 300.0, 600.0, 900.0, 1200.0, 1800.0, 2700.0, 3600.0,
                   7200.0}) {  // Fig. 14
    auto c = cam;
    c.ttl = t;
    w.points.push_back({c, cambridge});
  }
  cam.ttl = 5 * 86400.0;
  for (int fig = 15; fig <= 16; ++fig) {  // Figs. 15 and 16
    for (double f : bench::compromise_sweep()) {
      auto c = cam;
      c.compromise_fraction = f;
      w.points.push_back({c, cambridge});
    }
  }
  for (double t : {64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
                   262144.0}) {  // Fig. 17
    for (std::size_t l : {1u, 3u, 5u}) {
      auto c = base;
      c.copies = l;
      c.ttl = t;
      w.points.push_back({c, infocom});
    }
  }
  auto info = base;
  info.ttl = 3 * 86400.0;
  for (double f : bench::compromise_sweep()) {  // Fig. 18
    auto c = info;
    c.compromise_fraction = f;
    w.points.push_back({c, infocom});
  }
  for (double f : bench::compromise_sweep()) {  // Fig. 19
    for (std::size_t l : {1u, 3u, 5u}) {
      auto c = info;
      c.copies = l;
      c.compromise_fraction = f;
      w.points.push_back({c, infocom});
    }
  }
}

void add_wire_points(Workload& w) {
  for (std::size_t l : {1u, 3u}) {
    ExperimentConfig c;
    c.runs = kWireRuns;
    c.crypto = routing::CryptoMode::kReal;
    c.wire_cells = true;
    c.cell_size = 512;
    c.copies = l;
    c.ttl = 1800.0;
    w.points.push_back({c, nullptr});
  }
}

// The recovery stack of bench/ablation_recovery at its heaviest fault point.
ExperimentConfig loaded_recovery_config() {
  ExperimentConfig c;
  c.runs = kRecoveryRuns;
  c.copies = 4;
  traffic::FlowConfig flow;
  flow.rate = 0.4;
  flow.num_relays = c.num_relays;
  flow.copies = c.copies;
  flow.ttl = c.ttl;
  for (std::uint8_t priority : {0, 1}) {
    flow.priority = priority;
    c.traffic.flows.push_back(flow);
  }
  c.traffic.horizon = 600.0;
  c.bandwidth.messages_per_contact = 2;
  c.buffer_capacity = 8;
  c.buffer_policy = sim::BufferPolicy::kDropOldest;
  c.faults.p_fail = 0.2;
  c.faults.mean_uptime = 400.0;
  c.faults.mean_downtime = 100.0;
  c.faults.blackhole_fraction = 0.2;
  c.recovery.acks = true;
  c.recovery.retx_timeout = 300.0;
  c.recovery.retx_max = 3;
  c.recovery.retx_backoff = 2.0;
  c.recovery.retx_jitter = 0.1;
  c.recovery.suspicion_alpha = 0.3;
  c.recovery.suspicion_threshold = 0.75;
  c.recovery.shed_occupancy = 0.95;
  c.recovery.shed_saturation = 0.8;
  return c;
}

// The tools/ci.sh sustained-load run.
ExperimentConfig loaded_scale_config() {
  ExperimentConfig c;
  c.runs = kScaleRuns;
  c.nodes = 10000;
  c.backend = core::ContactBackend::kSparse;
  c.avg_degree = 12;
  c.group_shards = 64;
  c.copies = 8;
  c.load_forwarder = core::LoadForwarder::kUtility;
  traffic::FlowConfig flow;
  flow.rate = 2.0;
  flow.num_relays = c.num_relays;
  flow.copies = c.copies;
  flow.ttl = c.ttl;
  c.traffic.flows.push_back(flow);
  c.traffic.horizon = 300.0;
  c.bandwidth.messages_per_contact = 2;
  c.buffer_capacity = 8;
  return c;
}

void pick_endpoints(util::Rng& rng, std::size_t n, NodeId& src, NodeId& dst) {
  src = static_cast<NodeId>(rng.below(n));
  dst = static_cast<NodeId>(rng.below(n - 1));
  if (dst >= src) ++dst;
}

// One realization's contribution, as the engine folds it.
struct Outcome {
  bool delivered = false;
  double transmissions = 0.0;
  double delay = 0.0;
  double traceable = 0.0;
  double anonymity = 0.0;
  double ana_delivery = 0.0;
  bool loaded = false;
  double delivery_fraction = 0.0;
  double throughput = 0.0;
  double p99_delay = 0.0;
};

class Replayer {
 public:
  Replayer(SpanLog* log, ReplayResult& out) : log_(log), out_(out) {}

  ExperimentResult point(const Point& p);
  /// Copies the routing layer's event counters into the ledger.
  void harvest_counters();

 private:
  Outcome unloaded(const ExperimentConfig& cfg, sim::ContactModel& contacts,
                   const graph::ContactRates& rates, NodeId src, NodeId dst,
                   Time start, util::Rng& rng);
  Outcome loaded(const ExperimentConfig& cfg,
                 const trace::ContactTrace& events, util::Rng& rng);
  Outcome random_graph_run(const ExperimentConfig& cfg, util::Rng& rng);
  Outcome trace_run(const ExperimentConfig& cfg,
                    const trace::ContactTrace& trace,
                    const graph::ContactGraph& trained, util::Rng& rng);

  SpanLog* log_;
  ReplayResult& out_;
  metrics::Registry routing_metrics_;
  std::uint32_t realization_ = 0;
};

Outcome Replayer::unloaded(const ExperimentConfig& cfg,
                           sim::ContactModel& contacts,
                           const graph::ContactRates& rates, NodeId src,
                           NodeId dst, Time start, util::Rng& rng) {
  Outcome o;
  Ledger& led = out_.ledger;
  const std::size_t n = contacts.node_count();

  std::optional<groups::GroupDirectory> directory;
  {
    Scope s(log_, "groups.directory", realization_);
    if (cfg.group_shards > 0) {
      directory.emplace(n, cfg.group_size,
                        groups::GroupDirectory::Sharded{cfg.group_shards,
                                                        rng.next()});
    } else {
      directory.emplace(n, cfg.group_size, &rng);
    }
  }
  std::optional<groups::KeyManager> keys;
  {
    Scope s(log_, "groups.keys", realization_);
    keys.emplace(*directory, rng.next());
  }
  onion::OnionCodec codec;

  routing::OnionContext ctx;
  ctx.directory = &*directory;
  ctx.keys = &*keys;
  ctx.codec = &codec;
  ctx.crypto = cfg.crypto;
  ctx.metrics = &routing_metrics_;
  ctx.wire_cells = cfg.wire_cells;
  ctx.cell_size = cfg.cell_size;

  routing::MessageSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.start = start;
  spec.ttl = cfg.ttl;
  spec.num_relays = cfg.num_relays;
  spec.copies = cfg.copies;
  if (cfg.crypto == routing::CryptoMode::kReal) {
    spec.payload = util::to_bytes("odtn experiment payload");
  }

  std::vector<GroupId> relay_groups;
  {
    Scope s(log_, "groups.directory", realization_);
    relay_groups =
        directory->select_relay_groups(src, dst, cfg.num_relays, rng);
  }

  ContactCalls calls;
  CountingContactModel counted(contacts, calls, log_);
  routing::DeliveryResult result;
  {
    Scope s(log_, "routing", realization_);
    if (cfg.copies == 1) {
      routing::SingleCopyOnionRouting protocol(ctx);
      result = protocol.route(counted, spec, rng, &relay_groups);
    } else {
      routing::MultiCopyOnionRouting protocol(ctx, cfg.spray);
      result = protocol.route(counted, spec, rng, &relay_groups);
    }
  }
  ++led.routed_messages;
  led.prepare_calls += calls.prepare_calls;
  led.query_calls += calls.query_calls;
  led.wire_cells += result.wire_cells;
  led.wire_bytes += result.wire_bytes;

  o.transmissions = static_cast<double>(result.transmissions);
  if (result.delivered) {
    o.delivered = true;
    o.delay = result.delay;
    Scope s(log_, "adversary", realization_);
    ++led.adversary_calls;
    adversary::CompromiseModel compromise =
        adversary::CompromiseModel::from_fraction(n, cfg.compromise_fraction,
                                                  rng);
    o.traceable =
        adversary::measured_traceable_rate(src, result.relay_path, compromise);
    o.anonymity = adversary::measured_path_anonymity(
        src, result.relays_per_hop, compromise, n, cfg.group_size);
  }

  {
    Scope s(log_, "analysis", realization_);
    ++led.analysis_calls;
    auto hop_rates = analysis::opportunistic_onion_rates(
        rates, src, dst, *directory, relay_groups);
    o.ana_delivery = analysis::delivery_rate(hop_rates, cfg.ttl, cfg.copies);
  }

  Totals& tot = out_.totals;
  ++tot.offered;
  tot.transmissions += result.transmissions;
  if (o.delivered) {
    ++tot.delivered;
    tot.anonymity_sum += o.anonymity;
    ++tot.anonymity_count;
    // A one-message run's p99 delay is that message's delay.
    tot.p99_sum += o.delay;
    ++tot.p99_count;
  }
  return o;
}

Outcome Replayer::loaded(const ExperimentConfig& cfg,
                         const trace::ContactTrace& events, util::Rng& rng) {
  Outcome o;
  o.loaded = true;
  Ledger& led = out_.ledger;
  const std::size_t n = events.node_count();

  std::optional<groups::GroupDirectory> directory;
  {
    Scope s(log_, "groups.directory", realization_);
    if (cfg.group_shards > 0) {
      directory.emplace(n, cfg.group_size,
                        groups::GroupDirectory::Sharded{cfg.group_shards,
                                                        rng.next()});
    } else {
      directory.emplace(n, cfg.group_size, &rng);
    }
  }
  std::optional<traffic::TrafficPlan> plan;
  {
    Scope s(log_, "traffic.plan", realization_);
    plan.emplace(cfg.traffic, n, rng.next());
  }
  led.traffic_messages += plan->size();

  std::optional<faults::FaultPlan> fault_plan;
  if (cfg.faults.enabled()) {
    Scope s(log_, "faults.plan", realization_);
    fault_plan.emplace(cfg.faults, n, events.end_time(), rng.next(),
                       std::span<const NodeId>());
  }

  const bool onion = cfg.load_forwarder == core::LoadForwarder::kOnion;
  std::optional<routing::UtilityForwarder> forwarder;
  if (!onion) {
    Scope s(log_, "routing.utility_build", realization_);
    routing::UtilityForwarderConfig fc;
    if (cfg.load_forwarder == core::LoadForwarder::kSprayBlind) {
      fc.min_utility_ratio = 0.0;
      fc.backoff_occupancy = 2.0;
    }
    fc.failure_penalty = cfg.utility_failure_penalty;
    forwarder.emplace(n, fc);
  }

  sim::NetworkSimConfig sim_cfg;
  sim_cfg.buffer_capacity = cfg.buffer_capacity;
  sim_cfg.policy = cfg.buffer_policy;
  sim_cfg.faults = fault_plan ? &*fault_plan : nullptr;
  sim_cfg.bandwidth = cfg.bandwidth;
  sim_cfg.record_paths = onion;
  sim_cfg.utility = forwarder ? &*forwarder : nullptr;

  std::optional<recovery::SuspicionTracker> suspicion;
  if (cfg.recovery.enabled()) {
    sim_cfg.recovery = &cfg.recovery;
    sim_cfg.recovery_seed = rng.next();
    if (cfg.recovery.suspicion_alpha > 0.0) {
      suspicion.emplace(cfg.recovery.suspicion_alpha,
                        cfg.recovery.suspicion_threshold);
      sim_cfg.suspicion = &*suspicion;
    }
  }

  sim::NetworkSimReport report;
  {
    Scope s(log_, "sim.network", realization_);
    report = sim::run_network_sim(events, *directory, plan->specs(),
                                  plan->priorities(), sim_cfg, rng);
  }

  std::vector<double> delays;
  double anonymity_sum = 0.0;
  double traceable_sum = 0.0;
  std::size_t delivered = 0;
  {
    Scope s(log_, "adversary", realization_);
    std::optional<adversary::CompromiseModel> compromise;
    if (onion) {
      ++led.adversary_calls;
      compromise = adversary::CompromiseModel::from_fraction(
          n, cfg.compromise_fraction, rng);
    }
    for (std::size_t m = 0; m < report.outcomes.size(); ++m) {
      const sim::MessageOutcome& mo = report.outcomes[m];
      if (!mo.delivered) continue;
      ++delivered;
      delays.push_back(mo.delay);
      if (onion) {
        const auto& spec = plan->messages()[m].spec;
        traceable_sum += adversary::measured_traceable_rate(
            spec.src, mo.relay_path, *compromise);
        anonymity_sum += adversary::measured_path_anonymity(
            spec.src, mo.relays_per_hop, *compromise, n, cfg.group_size);
      }
    }
  }

  o.transmissions = static_cast<double>(report.total_transmissions);
  o.delivery_fraction =
      plan->size() == 0 ? 0.0
                        : static_cast<double>(delivered) /
                              static_cast<double>(plan->size());
  o.throughput = static_cast<double>(delivered) / cfg.traffic.horizon;
  if (delivered > 0) {
    o.delivered = true;
    double sum = 0.0;
    for (double d : delays) sum += d;
    o.delay = sum / static_cast<double>(delivered);
    std::sort(delays.begin(), delays.end());
    o.p99_delay = delays[((delays.size() - 1) * 99) / 100];
    if (onion) {
      o.traceable = traceable_sum / static_cast<double>(delivered);
      o.anonymity = anonymity_sum / static_cast<double>(delivered);
    }
  }

  // Accounting invariants every loaded run must satisfy.
  auto violate = [&](const std::string& what) {
    out_.violations.push_back("realization " + std::to_string(realization_) +
                              ": " + what);
  };
  if (report.outcomes.size() != plan->size()) {
    violate("outcome count != offered");
  }
  if (cfg.recovery.acks && report.acks_created != delivered) {
    violate("acks_created != delivered");
  }
  if (report.acked_at_source > report.acks_created) {
    violate("acked_at_source exceeds acks_created");
  }
  if (cfg.bandwidth.messages_per_contact > 0 &&
      report.max_contact_transfers > cfg.bandwidth.messages_per_contact) {
    violate("max_contact_transfers exceeds the contact budget");
  }

  led.sim_contacts += events.event_count();
  led.sim_transfers += report.total_transmissions;
  led.sim_delivered += delivered;
  led.suppressed_contacts += report.suppressed_contacts;
  led.transfer_failures += report.transfer_failures;
  led.crash_flushed += report.crash_flushed_copies;
  led.blackhole_absorbed += report.blackhole_absorbed;
  led.queue_deferred += report.queue_deferred;
  led.contacts_saturated += report.contacts_saturated;
  led.max_contact_transfers =
      std::max<std::uint64_t>(led.max_contact_transfers,
                              report.max_contact_transfers);
  led.buffer_rejections += report.total_buffer_rejections;
  led.evicted += report.evicted_copies;
  led.expired += report.expired_copies;
  led.acks_created += report.acks_created;
  led.acked_at_source += report.acked_at_source;
  led.ack_gc_copies += report.ack_gc_copies;
  led.retransmissions += report.retransmissions;
  led.shed += report.shed_messages;
  led.suspicion_flips += report.suspicion_flips;

  Totals& tot = out_.totals;
  tot.offered += plan->size();
  tot.delivered += delivered;
  tot.transmissions += report.total_transmissions;
  if (onion) {
    tot.anonymity_sum += anonymity_sum;
    tot.anonymity_count += delivered;
  }
  tot.p99_sum += o.p99_delay;
  ++tot.p99_count;
  return o;
}

// Horizon the per-run contact trace must cover (the engine's rule).
Time loaded_trace_horizon(const ExperimentConfig& cfg) {
  Time max_ttl = 0.0;
  for (const auto& f : cfg.traffic.flows) max_ttl = std::max(max_ttl, f.ttl);
  return cfg.traffic.horizon + max_ttl;
}

Outcome Replayer::random_graph_run(const ExperimentConfig& cfg,
                                   util::Rng& rng) {
  Ledger& led = out_.ledger;
  const bool loaded_run = cfg.traffic.enabled();
  ++led.graph_builds;
  if (cfg.backend == core::ContactBackend::kSparse) {
    std::optional<graph::SparseContactGraph> graph;
    {
      Scope s(log_, "graph", realization_);
      graph.emplace(cfg.avg_degree == 0
                        ? graph::sparse_random_contact_graph(
                              cfg.nodes, rng, cfg.min_ict, cfg.max_ict)
                        : graph::sparse_community_contact_graph(
                              cfg.nodes, cfg.avg_degree,
                              std::max<std::size_t>(1, cfg.communities), rng,
                              cfg.min_ict, cfg.max_ict));
    }
    led.graph_bytes += static_cast<double>(graph->memory_bytes());
    if (loaded_run) {
      std::optional<trace::ContactTrace> events;
      {
        Scope s(log_, "trace.sample", realization_);
        events.emplace(trace::sample_poisson_trace(
            static_cast<const graph::ContactRates&>(*graph),
            loaded_trace_horizon(cfg), rng));
      }
      led.trace_events += events->event_count();
      return loaded(cfg, *events, rng);
    }
    std::optional<sim::SparseContactModel> contacts;
    {
      Scope s(log_, "sim.contact.model", realization_);
      contacts.emplace(*graph, rng);
    }
    NodeId src, dst;
    pick_endpoints(rng, cfg.nodes, src, dst);
    return unloaded(cfg, *contacts, *graph, src, dst, 0.0, rng);
  }

  std::optional<graph::ContactGraph> graph;
  {
    Scope s(log_, "graph", realization_);
    graph.emplace(graph::random_contact_graph(cfg.nodes, rng, cfg.min_ict,
                                              cfg.max_ict));
  }
  // Upper-triangular dense rate storage.
  led.graph_bytes += static_cast<double>(cfg.nodes * (cfg.nodes - 1) / 2 *
                                         sizeof(double));
  if (loaded_run) {
    std::optional<trace::ContactTrace> events;
    {
      Scope s(log_, "trace.sample", realization_);
      events.emplace(
          trace::sample_poisson_trace(*graph, loaded_trace_horizon(cfg), rng));
    }
    led.trace_events += events->event_count();
    return loaded(cfg, *events, rng);
  }
  std::optional<sim::PoissonContactModel> contacts;
  {
    Scope s(log_, "sim.contact.model", realization_);
    contacts.emplace(*graph, rng);
  }
  NodeId src, dst;
  pick_endpoints(rng, cfg.nodes, src, dst);
  return unloaded(cfg, *contacts, *graph, src, dst, 0.0, rng);
}

Outcome Replayer::trace_run(const ExperimentConfig& cfg,
                            const trace::ContactTrace& trace,
                            const graph::ContactGraph& trained,
                            util::Rng& rng) {
  NodeId src, dst;
  pick_endpoints(rng, trace.node_count(), src, dst);
  const auto& events = trace.contacts_of(src);
  if (events.empty()) {  // isolated source: the engine's failed run
    ++out_.totals.offered;
    return Outcome{};
  }
  Time start = events[rng.below(events.size())].time;
  std::optional<sim::TraceContactModel> contacts;
  {
    Scope s(log_, "sim.contact.model", realization_);
    contacts.emplace(trace);
  }
  return unloaded(cfg, *contacts, trained, src, dst, start, rng);
}

ExperimentResult Replayer::point(const Point& p) {
  const ExperimentConfig& cfg = p.cfg;
  if (cfg.faults.p_run_abort > 0.0 || !cfg.checkpoint_path.empty() ||
      (cfg.wire_cells && cfg.traffic.enabled()) ||
      (cfg.recovery.enabled() && !cfg.traffic.enabled())) {
    throw std::logic_error("replay: configuration not replicated");
  }

  std::optional<graph::ContactGraph> trained;
  if (p.trace != nullptr) {
    Scope s(log_, "trace.train", realization_);
    trained.emplace(cfg.trace_training_gap > 0.0
                        ? p.trace->estimate_rates_active(cfg.trace_training_gap)
                        : p.trace->estimate_rates());
  }

  // The engine's per-run closed-form constants.
  const std::size_t n = p.trace ? p.trace->node_count() : cfg.nodes;
  const std::size_t eta = cfg.num_relays + 1;
  const double f = cfg.compromise_fraction;
  const double k_paper = analysis::traceable_rate_paper(eta, f);
  const double k_exact = analysis::traceable_rate_exact(eta, f);
  const double k_anon =
      analysis::path_anonymity_model(eta, f, n, cfg.group_size, cfg.copies);
  const double k_cost =
      cfg.copies == 1
          ? static_cast<double>(analysis::single_copy_cost(cfg.num_relays))
          : static_cast<double>(
                analysis::multi_copy_cost_bound(cfg.num_relays, cfg.copies));
  const double k_plain =
      static_cast<double>(analysis::non_anonymous_cost(cfg.copies));

  ExperimentResult r;
  for (std::size_t run = 0; run < cfg.runs; ++run, ++realization_) {
    util::Rng rng(util::derive_seed(cfg.seed, run));
    const Outcome o = p.trace ? trace_run(cfg, *p.trace, *trained, rng)
                              : random_graph_run(cfg, rng);
    // The engine's fold, in run order.
    r.sim_delivered.add(o.loaded ? o.delivery_fraction
                                 : (o.delivered ? 1.0 : 0.0));
    r.sim_transmissions.add(o.transmissions);
    if (o.delivered) {
      ++r.delivered_runs;
      r.sim_delay.add(o.delay);
      r.sim_traceable.add(o.traceable);
      r.sim_anonymity.add(o.anonymity);
    }
    if (o.loaded) {
      r.sim_throughput.add(o.throughput);
      r.sim_p99_delay.add(o.p99_delay);
    } else {
      r.ana_delivery.add(o.ana_delivery);
    }
    r.ana_traceable_paper.add(k_paper);
    r.ana_traceable_exact.add(k_exact);
    r.ana_anonymity.add(k_anon);
    r.ana_cost_bound.add(k_cost);
    r.ana_cost_non_anonymous.add(k_plain);
  }
  return r;
}

void Replayer::harvest_counters() {
  auto count = [&](const char* name) -> std::uint64_t {
    const auto& entries = routing_metrics_.entries();
    auto it = entries.find(name);
    return it == entries.end() ? 0 : it->second.counter;
  };
  Ledger& led = out_.ledger;
  led.forwards = count("routing.forwards");
  led.tickets_spent = count("routing.tickets_spent");
  led.peels = count("routing.peels");
  led.peel_failures = count("routing.peel_failures");
  led.suppressed_contacts += count("faults.contacts_suppressed");
  led.transfer_failures += count("faults.transfer_failures");
  led.crash_flushed += count("faults.copies_lost_to_crash");
  led.blackhole_absorbed += count("faults.blackhole_absorbed");
}

bool same_stats(const util::RunningStats& a, const util::RunningStats& b) {
  const auto x = a.state();
  const auto y = b.state();
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return x.n == y.n && bits(x.mean) == bits(y.mean) &&
         bits(x.m2) == bits(y.m2) && bits(x.min) == bits(y.min) &&
         bits(x.max) == bits(y.max);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_sweep", "wire_onion", "loaded_recovery", "loaded_scale"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "paper_sweep") {
    add_paper_points(w, seed);
  } else if (name == "wire_onion") {
    add_wire_points(w);
  } else if (name == "loaded_recovery") {
    w.loaded = true;
    w.points.push_back({loaded_recovery_config(), nullptr});
  } else if (name == "loaded_scale") {
    w.loaded = true;
    w.points.push_back({loaded_scale_config(), nullptr});
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    w.points[i].cfg.seed = util::derive_seed(seed, i);
  }
  return w;
}

std::vector<ExperimentResult> run_untraced(const Workload& w,
                                           bool collect_metrics,
                                           std::size_t threads) {
  std::vector<ExperimentResult> out;
  out.reserve(w.points.size());
  for (const Point& p : w.points) {
    ExperimentConfig cfg = p.cfg;
    cfg.collect_metrics = collect_metrics;
    cfg.threads = threads;
    core::Experiment exp(cfg);
    if (p.trace != nullptr) {
      out.push_back(exp.run(core::TraceScenario{p.trace}));
    } else {
      out.push_back(exp.run(core::RandomGraphScenario{}));
    }
  }
  return out;
}

ReplayResult replay(const Workload& w, SpanLog* log) {
  ReplayResult out;
  Replayer replayer(log, out);
  for (const Point& p : w.points) out.results.push_back(replayer.point(p));
  replayer.harvest_counters();
  return out;
}

bool identical(const ExperimentResult& a, const ExperimentResult& b) {
  return same_stats(a.sim_delivered, b.sim_delivered) &&
         same_stats(a.sim_delay, b.sim_delay) &&
         same_stats(a.sim_transmissions, b.sim_transmissions) &&
         same_stats(a.sim_traceable, b.sim_traceable) &&
         same_stats(a.sim_anonymity, b.sim_anonymity) &&
         same_stats(a.sim_throughput, b.sim_throughput) &&
         same_stats(a.sim_p99_delay, b.sim_p99_delay) &&
         same_stats(a.ana_delivery, b.ana_delivery) &&
         same_stats(a.ana_traceable_paper, b.ana_traceable_paper) &&
         same_stats(a.ana_traceable_exact, b.ana_traceable_exact) &&
         same_stats(a.ana_anonymity, b.ana_anonymity) &&
         same_stats(a.ana_cost_bound, b.ana_cost_bound) &&
         same_stats(a.ana_cost_non_anonymous, b.ana_cost_non_anonymous) &&
         a.delivered_runs == b.delivered_runs &&
         a.failed_runs.size() == b.failed_runs.size();
}

}  // namespace perfbench
