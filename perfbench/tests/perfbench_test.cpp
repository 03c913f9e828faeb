// Unit tests for the benchmark's own machinery: the ContactModel decorator,
// the span self-time arithmetic and the strict argument parser.
#include <gtest/gtest.h>

#include "args.hpp"
#include "counting_model.hpp"
#include "graph/contact_graph.hpp"
#include "groups/group_directory.hpp"
#include "groups/key_manager.hpp"
#include "onion/onion.hpp"
#include "routing/onion_routing.hpp"
#include "sim/contact_model.hpp"
#include "spans.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace {

using namespace odtn;

// Routes one message through `contacts` (optionally wrapped in the
// decorator) from a fixed seed.
routing::DeliveryResult route_once(std::size_t copies, bool decorate,
                                   perfbench::ContactCalls* calls) {
  util::Rng rng(util::derive_seed(7, copies));
  graph::ContactGraph graph = graph::random_contact_graph(60, rng, 10, 360);
  sim::PoissonContactModel poisson(graph, rng);
  groups::GroupDirectory directory(60, 5, &rng);
  groups::KeyManager keys(directory, rng.next());
  onion::OnionCodec codec;
  routing::OnionContext ctx;
  ctx.directory = &directory;
  ctx.keys = &keys;
  ctx.codec = &codec;

  routing::MessageSpec spec;
  spec.src = 3;
  spec.dst = 41;
  spec.ttl = 900.0;
  spec.num_relays = 3;
  spec.copies = copies;

  perfbench::ContactCalls local;
  perfbench::CountingContactModel counted(poisson, calls ? *calls : local,
                                          nullptr);
  sim::ContactModel& model =
      decorate ? static_cast<sim::ContactModel&>(counted) : poisson;
  if (copies == 1) {
    return routing::SingleCopyOnionRouting(ctx).route(model, spec, rng);
  }
  return routing::MultiCopyOnionRouting(ctx, routing::SprayMode::kSprayAndWait)
      .route(model, spec, rng);
}

TEST(CountingContactModel, RoutingResultsAreIdenticalWithAndWithoutIt) {
  for (std::size_t copies : {1u, 3u}) {
    perfbench::ContactCalls calls;
    const auto plain = route_once(copies, false, nullptr);
    const auto counted = route_once(copies, true, &calls);
    EXPECT_EQ(plain.delivered, counted.delivered);
    EXPECT_EQ(plain.delay, counted.delay);
    EXPECT_EQ(plain.transmissions, counted.transmissions);
    EXPECT_EQ(plain.relay_path, counted.relay_path);
    EXPECT_EQ(plain.relays_per_hop, counted.relays_per_hop);
    EXPECT_GT(calls.prepare_calls, 0u);
    EXPECT_GT(calls.query_calls, 0u);
  }
}

TEST(CountingContactModel, TraceModelAnswersAreIdentical) {
  trace::ContactTrace trace = trace::make_cambridge_like(5);
  sim::TraceContactModel plain(trace);
  sim::TraceContactModel inner(trace);
  perfbench::ContactCalls calls;
  perfbench::CountingContactModel counted(inner, calls, nullptr);
  const NodeId from[] = {0, 1, 2};
  const NodeId to[] = {5, 6, 7, 8};
  for (Time after : {0.0, 3600.0, 40000.0}) {
    auto a = plain.first_cross_contact(from, to, after, after + 86400.0);
    auto b = counted.first_cross_contact(from, to, after, after + 86400.0);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(a->time, b->time);
      EXPECT_EQ(a->a, b->a);
      EXPECT_EQ(a->b, b->b);
    }
  }
  EXPECT_EQ(calls.prepare_calls, 3u);
  EXPECT_EQ(calls.query_calls, 3u);
}

TEST(Replay, ReproducesExperimentRunBitForBit) {
  perfbench::Workload w = perfbench::make_workload("wire_onion", 3);
  for (auto& p : w.points) p.cfg.runs = 12;
  const auto untraced = perfbench::run_untraced(w, false, 2);
  perfbench::SpanLog log;
  const auto traced = perfbench::replay(w, &log);
  ASSERT_EQ(untraced.size(), traced.results.size());
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    EXPECT_TRUE(perfbench::identical(untraced[i], traced.results[i]));
  }
  EXPECT_GT(traced.ledger.wire_cells, 0u);
}

TEST(SelfSeconds, SubtractsDirectChildrenAndLeafTime) {
  // root [0, 100) with children a [10, 40) and b [50, 90); a has a child
  // c [15, 25) and 5 ns of leaf calls; b has 8 ns of leaf calls.
  std::vector<perfbench::Span> spans = {
      {"root", -1, 0, 0, 100, 0},
      {"a", 0, 0, 10, 40, 5},
      {"c", 1, 0, 15, 25, 0},
      {"b", 0, 0, 50, 90, 8},
  };
  const auto self = perfbench::self_seconds(spans, {{"leaf", 13e-9}});
  EXPECT_NEAR(self.at("root"), 30e-9, 1e-15);  // 100 - 30 - 40
  EXPECT_NEAR(self.at("a"), 15e-9, 1e-15);     // 30 - 10 - 5
  EXPECT_NEAR(self.at("c"), 10e-9, 1e-15);
  EXPECT_NEAR(self.at("b"), 32e-9, 1e-15);     // 40 - 8
  EXPECT_NEAR(self.at("leaf"), 13e-9, 1e-15);
  double total = 0.0;
  for (const auto& [layer, s] : self) total += s;
  EXPECT_NEAR(total, 100e-9, 1e-15);  // self times partition the root
}

TEST(SelfSeconds, SpansOfOneLayerAccumulate) {
  std::vector<perfbench::Span> spans = {
      {"graph", -1, 0, 0, 10, 0},
      {"graph", -1, 1, 20, 35, 0},
  };
  EXPECT_NEAR(perfbench::self_seconds(spans).at("graph"), 25e-9, 1e-15);
}

TEST(SpanLog, NestedScopesAndLeavesPartitionTheWall) {
  perfbench::SpanLog log;
  {
    perfbench::Scope outer(&log, "outer", 0);
    { perfbench::Scope inner(&log, "inner", 0); }
    log.add_leaf("leaf", 1000);
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[0].leaf_ns, 1000);
  const auto self = log.self_seconds();
  EXPECT_NEAR(self.at("outer") + self.at("inner") + self.at("leaf"),
              log.spans()[0].duration_s(), 1e-12);
}

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ' ') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

perfbench::Options parse(const std::string& line) {
  return perfbench::parse_args(split(line), perfbench::workload_names());
}

TEST(ParseArgs, AcceptsBothFlagForms) {
  auto o = parse("--workload paper_sweep --seed=42 --seconds 5 --trace=1");
  EXPECT_EQ(o.workload, "paper_sweep");
  EXPECT_EQ(o.seed, 42u);
  EXPECT_EQ(o.seconds, 5u);
  EXPECT_TRUE(o.trace);
}

TEST(ParseArgs, RejectsUnknownFlag) {
  EXPECT_THROW(parse("--workload paper_sweep --sed 1"), perfbench::ArgError);
  EXPECT_THROW(parse("--workload paper_sweep stray"), perfbench::ArgError);
}

TEST(ParseArgs, RejectsUnknownWorkload) {
  EXPECT_THROW(parse("--workload paper"), perfbench::ArgError);
  EXPECT_THROW(parse("--seed 1"), perfbench::ArgError);  // missing
}

TEST(ParseArgs, RejectsPartialNumbers) {
  EXPECT_THROW(parse("--workload wire_onion --seed=1x"), perfbench::ArgError);
  EXPECT_THROW(parse("--workload wire_onion --seconds 2.5"),
               perfbench::ArgError);
  EXPECT_THROW(parse("--workload wire_onion --seed -1"), perfbench::ArgError);
  EXPECT_THROW(parse("--workload wire_onion --trace 2"), perfbench::ArgError);
  EXPECT_THROW(parse("--workload wire_onion --seed"), perfbench::ArgError);
}

TEST(ParseArgs, DiagnosticsAreOneLine) {
  try {
    parse("--workload wire_onion --seed=1x");
    FAIL() << "expected ArgError";
  } catch (const perfbench::ArgError& e) {
    EXPECT_EQ(std::string(e.what()).find('\n'), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1x"), std::string::npos);
  }
}

}  // namespace
