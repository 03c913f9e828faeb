// Ablation: finite relay buffers under load.
//
// Every closed form in the paper assumes one message and infinite buffers.
// The whole-network simulator (sim/network_sim.hpp) drops both
// assumptions: this bench injects an increasing number of concurrent
// messages into a random DTN and sweeps per-node buffer capacity,
// reporting delivery rate and buffer rejections — the regime in which the
// analytical model stops being a safe capacity-planning tool.
//
// Injection comes from the odtn::traffic generator: each point offers an
// open-loop Poisson workload whose expected count is the x value.
#include <iostream>

#include "common/bench_common.hpp"
#include "sim/network_sim.hpp"
#include "trace/synthetic.hpp"
#include "traffic/traffic.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  auto base = bench::base_config(args);
  std::size_t repeats = std::max<std::size_t>(1, base.runs / 20);
  bench::print_header("Ablation", "Delivery under buffer contention",
                      "n=100, K=3, g=5, T=1800; x = concurrent messages",
                      base);

  bench::Sweep sweep({"messages", "buf_unlimited", "buf_4", "buf_1",
                      "rejections_buf_1"},
                     {25, 50, 100, 200, 400}, bench::Sweep::XFormat::kInt);
  sweep.run([&](double load_x, util::Table& table) {
    std::size_t load = static_cast<std::size_t>(load_x);
    util::RunningStats d_inf, d_4, d_1, rej_1;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      // odtn-lint: allow(rng) — bench-local stream: seeded directly from
      // --seed so published figure/ablation tables stay pinned to their
      // historical sequences
      util::Rng rng(base.seed + rep * 1000);
      auto graph = graph::random_contact_graph(base.nodes, rng, base.min_ict,
                                               base.max_ict);
      auto trace = trace::sample_poisson_trace(graph, 3600.0, rng);
      groups::GroupDirectory dir(base.nodes, base.group_size, &rng);

      // Open-loop Poisson offered load: E[count] = x over [0, 600).
      traffic::FlowConfig flow;
      flow.rate = static_cast<double>(load) / 600.0;
      flow.ttl = 1800.0;
      flow.num_relays = base.num_relays;
      traffic::TrafficConfig workload;
      workload.flows.push_back(flow);
      workload.horizon = 600.0;
      auto messages =
          traffic::TrafficPlan(workload, base.nodes, rng.next()).specs();

      for (std::size_t cap : {0u, 4u, 1u}) {
        sim::NetworkSimConfig cfg;
        cfg.buffer_capacity = cap;
        if (base.collect_metrics) cfg.metrics = &bench::bench_metrics();
        // odtn-lint: allow(rng) — bench-local stream: seeded directly from
        // --seed so published figure/ablation tables stay pinned to their
        // historical sequences
        util::Rng run_rng(base.seed + rep);  // same groups per capacity
        auto report = sim::run_network_sim(trace, dir, messages, cfg,
                                           run_rng);
        if (cap == 0) d_inf.add(report.delivery_rate());
        if (cap == 4) d_4.add(report.delivery_rate());
        if (cap == 1) {
          d_1.add(report.delivery_rate());
          rej_1.add(static_cast<double>(report.total_buffer_rejections));
        }
      }
    }
    table.cell(d_inf.mean());
    table.cell(d_4.mean());
    table.cell(d_1.mean());
    table.cell(rej_1.mean(), 1);
  });
  sweep.print(std::cout);
  bench::finish(base, args, timer);
  return 0;
}
