#include "common/bench_common.hpp"

#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "metrics/writer.hpp"

namespace odtn::bench {

core::ExperimentConfig base_config(const util::Args& args) {
  core::ExperimentConfig cfg;
  cfg.runs = args.get_uint("runs", 200);
  cfg.seed = args.get_uint("seed", 1);
  cfg.threads = args.get_uint("threads", 0);
  cfg.collect_metrics = args.has("metrics-out");
  std::string backend = args.get("contact-backend", "dense");
  if (backend == "sparse") {
    cfg.backend = core::ContactBackend::kSparse;
  } else if (backend != "dense") {
    throw std::invalid_argument(
        "bench: --contact-backend must be dense or sparse");
  }
  cfg.avg_degree = args.get_uint("avg-degree", 0);
  cfg.communities = args.get_uint("communities", 0);
  cfg.group_shards = args.get_uint("group-shards", 0);
  return cfg;
}

metrics::Registry& bench_metrics() {
  static metrics::Registry registry;
  return registry;
}

core::ExperimentResult run_experiment(const core::ExperimentConfig& config,
                                      const core::Scenario& scenario) {
  core::ExperimentResult result = core::Experiment(config).run(scenario);
  if (config.collect_metrics) bench_metrics().merge(result.metrics);
  return result;
}

void print_header(const std::string& figure_id, const std::string& title,
                  const std::string& fixed_params,
                  const core::ExperimentConfig& config) {
  std::cout << "# " << figure_id << ": " << title << "\n"
            << "# fixed: " << fixed_params << "\n"
            << "# runs/point: " << config.runs << ", seed: " << config.seed
            << ", threads: ";
  if (config.threads == 0) {
    std::cout << "auto";
  } else {
    std::cout << config.threads;
  }
  std::cout << "\n";
}

void finish(const core::ExperimentConfig& config, const util::Args& args,
            const WallTimer& timer, const std::string& extra_json) {
  double wall = timer.seconds();
  std::cout << "# wall_time_s: " << wall << "\n";

  std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty()) {
    metrics::write_file(metrics_path, bench_metrics());
    std::cout << "# metrics: " << metrics_path << "\n";
  }

  std::string path = args.get("json", "");
  if (path.empty()) return;
  std::string figure_id = args.program();
  auto slash = figure_id.find_last_of('/');
  if (slash != std::string::npos) figure_id = figure_id.substr(slash + 1);
  std::ostringstream record;
  record << "{\"schema\":\"odtn.bench.v1\",\"figure_id\":\"" << figure_id
         << "\",\"runs\":" << config.runs << ",\"seed\":" << config.seed
         << ",\"threads\":" << config.threads
         << ",\"wall_time_s\":" << metrics::format_double(wall);
  if (!extra_json.empty()) record << "," << extra_json;
  record << "}";
  std::ofstream out(path, std::ios::app);
  if (!out) {
    throw std::runtime_error("bench: cannot open --json file: " + path);
  }
  out << record.str() << "\n";
}

Sweep::Sweep(std::vector<std::string> columns, std::vector<double> xs,
             XFormat x_format)
    : table_(std::move(columns)), xs_(std::move(xs)), x_format_(x_format) {}

void Sweep::run(const std::function<void(double, util::Table&)>& point) {
  for (double x : xs_) {
    table_.new_row();
    if (x_format_ == XFormat::kInt) {
      table_.cell(static_cast<std::int64_t>(x));
    } else {
      table_.cell(x, 2);
    }
    point(x, table_);
  }
}

void Sweep::print(std::ostream& os) const { table_.print(os); }

const std::vector<double>& deadline_sweep() {
  static const std::vector<double> sweep = {60,  120, 240,  360, 600,
                                            900, 1200, 1500, 1800};
  return sweep;
}

const std::vector<double>& compromise_sweep() {
  static const std::vector<double> sweep = {0.10, 0.20, 0.30, 0.40, 0.50};
  return sweep;
}

}  // namespace odtn::bench
