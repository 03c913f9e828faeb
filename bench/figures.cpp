// The paper's evaluation, Figs. 4-19, as one table of sweeps.
//
// Every figure is the same experiment: start from the Table II defaults,
// apply the figure's fixed overrides, then for each x value (rows) and
// each curve value (column groups, innermost) run one analysis-vs-
// simulation experiment and print the curve's metric family. Each
// figNN_* binary is figure_main.cpp built with its figure number;
// EXPERIMENTS.md states each figure's paper claim and measured verdict.
#include <cstdint>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_common.hpp"
#include "trace/synthetic.hpp"

namespace odtn::bench {
namespace {

enum class Param { kGroupSize, kNumRelays, kCopies, kTtl, kCompromise };
/// Columns per curve: delivery ana/sim, traceable paper/exact/sim,
/// anonymity ana/sim, cost ana/sim after one non_anonymous column.
enum class Metric { kDelivery, kTraceable, kAnonymity, kCost };

struct Figure {
  int number;
  const char* title;
  const char* fixed;
  /// Synthetic trace generator, or nullptr for Table II random graphs.
  trace::ContactTrace (*make_trace)(std::uint64_t seed);
  std::vector<std::pair<Param, double>> overrides;
  const char* x_column;
  Param x_param;
  std::vector<double> xs;
  Param curve_param;
  std::vector<double> curves;
  Metric metric;
};

void set_param(core::ExperimentConfig& cfg, Param param, double value) {
  switch (param) {
    case Param::kGroupSize:
      cfg.group_size = static_cast<std::size_t>(value);
      break;
    case Param::kNumRelays:
      cfg.num_relays = static_cast<std::size_t>(value);
      break;
    case Param::kCopies:
      cfg.copies = static_cast<std::size_t>(value);
      break;
    case Param::kTtl:
      cfg.ttl = value;
      break;
    case Param::kCompromise:
      cfg.compromise_fraction = value;
      break;
  }
}

/// Curve suffix in column names: g5, K3, L1, c10 (percent).
std::string curve_label(Param param, double value) {
  if (param == Param::kCompromise) {
    return "c" + std::to_string(static_cast<int>(value * 100 + 0.5));
  }
  const char* prefix = param == Param::kGroupSize   ? "g"
                       : param == Param::kNumRelays ? "K"
                                                    : "L";
  return prefix + std::to_string(static_cast<int>(value));
}

std::vector<double> range(int first, int last) {
  std::vector<double> xs;
  for (int x = first; x <= last; ++x) xs.push_back(x);
  return xs;
}

const std::vector<Figure>& figures() {
  using P = Param;
  using M = Metric;
  const auto& deadlines = deadline_sweep();
  const auto& compromised = compromise_sweep();
  static const std::vector<Figure> table = {
      {4, "Delivery rate w.r.t. deadline", "n=100, K=3, L=1, g in {1,5,10}",
       nullptr, {}, "deadline_min", P::kTtl, deadlines,
       P::kGroupSize, {1, 5, 10}, M::kDelivery},
      {5, "Delivery rate w.r.t. deadline", "n=100, g=5, L=1, K in {3,5,10}",
       nullptr, {}, "deadline_min", P::kTtl, deadlines,
       P::kNumRelays, {3, 5, 10}, M::kDelivery},
      {6, "Traceable rate w.r.t. compromised rate",
       "n=100, g=5, L=1, K in {3,5,10}", nullptr, {{P::kTtl, 1e6}},
       "compromised", P::kCompromise, compromised, P::kNumRelays, {3, 5, 10},
       M::kTraceable},
      {7, "Traceable rate w.r.t. number of onion relays",
       "n=100, g=5, L=1, c/n in {10,20,30}%", nullptr,
       {{P::kTtl, 1e6}}, "num_relays", P::kNumRelays, range(1, 10),
       P::kCompromise, {0.10, 0.20, 0.30}, M::kTraceable},
      {8, "Path anonymity w.r.t. compromised rate",
       "n=100, K=3, L=1, g in {1,5,10}", nullptr, {{P::kTtl, 1e6}},
       "compromised", P::kCompromise, compromised, P::kGroupSize, {1, 5, 10},
       M::kAnonymity},
      {9, "Path anonymity w.r.t. group size",
       "n=100, K=3, L=1, c/n in {10,20,30}%", nullptr,
       {{P::kTtl, 1e6}}, "group_size", P::kGroupSize, range(1, 10),
       P::kCompromise, {0.10, 0.20, 0.30}, M::kAnonymity},
      {10, "Delivery rate w.r.t. deadline (multi-copy)",
       "n=100, K=3, g=5, L in {1,3,5}", nullptr, {}, "deadline_min",
       P::kTtl, deadlines, P::kCopies, {1, 3, 5}, M::kDelivery},
      {11, "Message transmissions w.r.t. copies", "n=100, g=5, K in {3,10}",
       nullptr, {{P::kTtl, 1e6}}, "copies", P::kCopies, range(1, 5),
       P::kNumRelays, {3, 10}, M::kCost},
      {12, "Path anonymity w.r.t. compromised rate (multi-copy)",
       "n=100, K=3, g=5, L in {1,3,5}", nullptr, {{P::kTtl, 1e6}},
       "compromised", P::kCompromise, compromised, P::kCopies, {1, 3, 5},
       M::kAnonymity},
      {13, "Path anonymity w.r.t. group size (multi-copy)",
       "n=100, K=3, c/n=10%, L in {1,3}", nullptr,
       {{P::kTtl, 1e6}, {P::kCompromise, 0.10}}, "group_size", P::kGroupSize,
       range(1, 10), P::kCopies, {1, 3}, M::kAnonymity},
      {14, "Delivery rate w.r.t. deadline (Cambridge)",
       "12 nodes, K=3, g=1, L=1, synthetic Cambridge-like trace",
       trace::make_cambridge_like, {{P::kGroupSize, 1}, {P::kNumRelays, 3}},
       "deadline_sec", P::kTtl,
       {120, 300, 600, 900, 1200, 1800, 2700, 3600, 7200}, P::kCopies, {1},
       M::kDelivery},
      // Security figures on traces run over the whole trace, so they
      // measure delivered paths.
      {15, "Traceable rate w.r.t. compromised rate (Cambridge)",
       "12 nodes, K=3, g=1, L=1", trace::make_cambridge_like,
       {{P::kGroupSize, 1}, {P::kCopies, 1}, {P::kTtl, 5 * 86400.0}},
       "compromised", P::kCompromise, compromised, P::kNumRelays, {3},
       M::kTraceable},
      {16, "Path anonymity w.r.t. compromised rate (Cambridge)",
       "12 nodes, K=3, g=1, L=1", trace::make_cambridge_like,
       {{P::kGroupSize, 1}, {P::kNumRelays, 3}, {P::kTtl, 5 * 86400.0}},
       "compromised", P::kCompromise, compromised, P::kCopies, {1},
       M::kAnonymity},
      {17, "Delivery rate w.r.t. deadline (Infocom'05, log scale)",
       "41 nodes, K=3, g=5, L in {1,3,5}", trace::make_infocom_like,
       {{P::kGroupSize, 5}, {P::kNumRelays, 3}}, "deadline_sec", P::kTtl,
       {64, 256, 1024, 4096, 16384, 65536, 262144}, P::kCopies, {1, 3, 5},
       M::kDelivery},
      {18, "Traceable rate w.r.t. compromised rate (Infocom'05)",
       "41 nodes, K=3, g=5, L=1", trace::make_infocom_like,
       {{P::kGroupSize, 5}, {P::kCopies, 1}, {P::kTtl, 3 * 86400.0}},
       "compromised", P::kCompromise, compromised, P::kNumRelays, {3},
       M::kTraceable},
      {19, "Path anonymity w.r.t. compromised rate (Infocom'05)",
       "41 nodes, K=3, g=5, L in {1,3,5}", trace::make_infocom_like,
       {{P::kGroupSize, 5}, {P::kNumRelays, 3}, {P::kTtl, 3 * 86400.0}},
       "compromised", P::kCompromise, compromised, P::kCopies, {1, 3, 5},
       M::kAnonymity},
  };
  return table;
}

std::vector<std::string> columns(const Figure& fig) {
  std::vector<std::string> cols = {fig.x_column};
  if (fig.metric == Metric::kCost) cols.push_back("non_anonymous");
  for (double c : fig.curves) {
    std::string label = curve_label(fig.curve_param, c);
    if (fig.metric == Metric::kTraceable) {
      cols.insert(cols.end(), {"paper_" + label, "exact_" + label});
    } else {
      cols.push_back("ana_" + label);
    }
    cols.push_back("sim_" + label);
  }
  return cols;
}

void emit(Metric metric, bool first_curve, const core::ExperimentResult& r,
          util::Table& table) {
  switch (metric) {
    case Metric::kDelivery:
      table.cell(r.ana_delivery.mean());
      table.cell(r.sim_delivered.mean());
      break;
    case Metric::kTraceable:
      table.cell(r.ana_traceable_paper.mean());
      table.cell(r.ana_traceable_exact.mean());
      table.cell(r.sim_traceable.mean());
      break;
    case Metric::kAnonymity:
      table.cell(r.ana_anonymity.mean());
      table.cell(r.sim_anonymity.mean());
      break;
    case Metric::kCost:
      if (first_curve) table.cell(r.ana_cost_non_anonymous.mean(), 1);
      table.cell(r.ana_cost_bound.mean(), 1);
      table.cell(r.sim_transmissions.mean(), 2);
      break;
  }
}

void run_figure(const Figure& fig, const util::Args& args) {
  WallTimer timer;
  auto base = base_config(args);
  for (const auto& [param, value] : fig.overrides) {
    set_param(base, param, value);
  }
  print_header("Figure " + std::to_string(fig.number), fig.title, fig.fixed,
               base);

  // The trace is realized once per binary from the experiment seed.
  std::optional<trace::ContactTrace> trace;
  core::Scenario scenario = core::RandomGraphScenario{};
  if (fig.make_trace != nullptr) {
    trace = fig.make_trace(base.seed);
    scenario = core::TraceScenario{&*trace};
  }

  Sweep sweep(columns(fig), fig.xs,
              fig.x_param == Param::kCompromise ? Sweep::XFormat::kFixed2
                                                : Sweep::XFormat::kInt);
  sweep.run([&](double x, util::Table& table) {
    for (double c : fig.curves) {
      auto cfg = base;
      set_param(cfg, fig.x_param, x);
      set_param(cfg, fig.curve_param, c);
      emit(fig.metric, c == fig.curves.front(), run_experiment(cfg, scenario),
           table);
    }
  });
  sweep.print(std::cout);
  finish(base, args, timer);
}

}  // namespace

int figure_main(int number, int argc, char** argv) {
  util::Args args(argc, argv);
  try {
    for (const Figure& fig : figures()) {
      if (fig.number == number) {
        run_figure(fig, args);
        return 0;
      }
    }
    throw std::logic_error("no such figure: " + std::to_string(number));
  } catch (const std::invalid_argument& e) {
    // Bad flag value: usage-class failure, one diagnostic line.
    std::cerr << args.program() << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << args.program() << ": " << e.what() << "\n";
    return 1;
  }
}

}  // namespace odtn::bench
