// A forwarding sim::ContactModel that counts and times every call into the
// model it wraps. Plans are prepared by (and stay owned by) the inner
// model, so the decorator changes no result: it is how the traced replay
// measures the sim.contact layer from outside the library.
#pragma once

#include <cstdint>

#include "sim/contact_model.hpp"
#include "spans.hpp"

namespace perfbench {

struct ContactCalls {
  std::uint64_t prepare_calls = 0;  // prepare() and prepare_complement()
  std::uint64_t query_calls = 0;
};

class CountingContactModel final : public odtn::sim::ContactModel {
 public:
  /// `inner` and `calls` must outlive the decorator; `log` may be null.
  CountingContactModel(odtn::sim::ContactModel& inner, ContactCalls& calls,
                       SpanLog* log)
      : inner_(&inner), calls_(&calls), log_(log) {}

  std::size_t node_count() const override { return inner_->node_count(); }

  using ContactModel::first_cross_contact;
  using ContactModel::prepare;
  using ContactModel::prepare_complement;

  void prepare(odtn::sim::ContactQuery& q, std::span<const odtn::NodeId> from,
               std::span<const odtn::NodeId> to) override {
    const std::int64_t t0 = steady_ns();
    inner_->prepare(q, from, to);
    note(t0, calls_->prepare_calls, "sim.contact.prepare");
  }

  void prepare_complement(odtn::sim::ContactQuery& q,
                          std::span<const odtn::NodeId> from,
                          std::span<const odtn::NodeId> excluded) override {
    const std::int64_t t0 = steady_ns();
    inner_->prepare_complement(q, from, excluded);
    note(t0, calls_->prepare_calls, "sim.contact.prepare");
  }

  std::optional<odtn::sim::CrossContact> first_cross_contact(
      const odtn::sim::ContactQuery& q, odtn::Time after,
      odtn::Time horizon) override {
    const std::int64_t t0 = steady_ns();
    auto hit = inner_->first_cross_contact(q, after, horizon);
    note(t0, calls_->query_calls, "sim.contact.query");
    return hit;
  }

 private:
  void note(std::int64_t t0, std::uint64_t& calls, const char* layer) {
    ++calls;
    if (log_) log_->add_leaf(layer, steady_ns() - t0);
  }

  odtn::sim::ContactModel* inner_;
  ContactCalls* calls_;
  SpanLog* log_;
};

}  // namespace perfbench
