#include "sim/network_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "faults/faults.hpp"
#include "recovery/recovery.hpp"
#include "routing/utility_forwarder.hpp"

namespace odtn::sim {

void ContactBandwidth::validate() const {
  if (mean_duration < 0.0 || transfer_time < 0.0) {
    throw std::invalid_argument(
        "bandwidth: duration model fields must be >= 0");
  }
  if ((mean_duration > 0.0) != (transfer_time > 0.0)) {
    throw std::invalid_argument(
        "bandwidth: mean_duration and transfer_time must be set together");
  }
}

double NetworkSimReport::delivery_rate() const {
  if (outcomes.empty()) return 0.0;
  std::size_t delivered = 0;
  for (const auto& o : outcomes) delivered += o.delivered;
  return static_cast<double>(delivered) / static_cast<double>(outcomes.size());
}

double NetworkSimReport::mean_delay() const {
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& o : outcomes) {
    if (o.delivered) {
      sum += o.delay;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

namespace {

constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();

// One buffered copy of a message. The source's own spray state is a
// hop-0 copy holding the message's spray tickets; a relayed copy holds one
// ticket (onion mode) or its share of the binary split (utility mode).
struct Copy {
  std::size_t msg;
  std::size_t hop;  // onion groups traversed so far (0 = at the source)
  NodeId holder;
  Time arrival = 0.0;  // when the current holder received it
  bool alive = true;
  /// Spray tickets this copy still owns.
  std::size_t tickets = 1;
  /// First time an eligible transfer of this copy was deferred by contact
  /// bandwidth; kTimeInfinity = not queued (feeds "sim.queue_wait").
  Time queued_since = kTimeInfinity;
  /// Recovery generation that sent this copy: 0 = the original send, n =
  /// the n-th retransmission. Each generation routes through its own
  /// freshly sampled relay groups; in-flight copies keep theirs.
  std::uint32_t gen = 0;
};

struct Engine {
  const trace::ContactTrace* trace;
  const groups::GroupDirectory* directory;
  const NetworkSimConfig* config;

  std::vector<InjectedMessage> messages;
  std::vector<std::uint8_t> priorities;  // empty = all class 0
  std::vector<std::vector<GroupId>> relay_groups;  // per message
  std::vector<std::unordered_set<NodeId>> seen;    // per message

  std::vector<Copy> copies;
  std::vector<std::vector<NodeId>> copy_paths;  // record_paths only
  std::vector<std::set<std::size_t>> holdings;  // node -> live copy ids

  routing::UtilityForwarder* utility = nullptr;
  // Budget units one executed transfer consumes: 1 normally,
  // cells_per_message in wire mode (the budget is then cell-denominated).
  std::size_t cell_cost = 1;

  // Recovery layer (null = off; every recovery branch below is guarded on
  // this pointer so the zero-knob path is byte-identical to pre-recovery
  // builds: no RNG draws, no metrics entries, no behavior change).
  const recovery::RecoveryConfig* rec = nullptr;
  recovery::SuspicionTracker* suspicion = nullptr;
  std::optional<recovery::SuspicionTracker> own_tracker;
  std::size_t tracker_flips_at_start = 0;
  /// Delivery ACKs known per node: a flat node-major bitset, bit m of row
  /// v (ack_words words per row) set once v knows message m's ACK. Costs
  /// n * ceil(M/64) * 8 bytes; a std::set node is ~40 B per known ACK, so
  /// the bitset is smaller once a node knows more than ~1 in 320 messages.
  /// An exchange costs O(M/64) words per contact.
  std::vector<std::uint64_t> ack_known;
  std::size_t ack_words = 0;
  std::vector<std::uint8_t> ack_exists;  // msg -> ACK record born at dst
  std::vector<std::uint8_t> src_acked;   // msg -> source learned the ACK
  std::vector<std::size_t> retx_attempts;      // msg -> retransmissions so far
  std::vector<double> retx_interval;           // msg -> current backoff interval
  std::vector<std::uint32_t> delivered_gen;    // msg -> generation that delivered
  /// msg -> relay groups of generation n at [n-1] (generation 0 lives in
  /// relay_groups, untouched by recovery).
  std::vector<std::vector<std::vector<GroupId>>> retx_groups;
  /// Per-message recovery RNG sub-streams: jitter and retry group
  /// resampling draw from derive_seed(recovery_seed, msg index), so the
  /// draw sequence is independent of event interleaving across messages
  /// and the main simulation RNG is never consulted.
  std::vector<util::Rng> msg_rng;
  // (due time, msg); at most one outstanding entry per message.
  std::priority_queue<std::pair<Time, std::size_t>,
                      std::vector<std::pair<Time, std::size_t>>,
                      std::greater<>>
      retx_due;
  recovery::SaturationWindow sat_window;

  // Observability handles (inert when config->metrics is null).
  metrics::CounterHandle m_transfers;
  metrics::CounterHandle m_rejections;
  metrics::CounterHandle m_evictions;
  metrics::CounterHandle m_expirations;
  metrics::CounterHandle m_injection_failures;
  metrics::CounterHandle m_deliveries;
  metrics::HistogramHandle m_hop_delay;
  metrics::HistogramHandle m_delivery_delay;
  // Fault accounting (resolved only when a FaultPlan is attached, so the
  // fault-free metrics export stays byte-identical).
  metrics::CounterHandle m_suppressed;
  metrics::CounterHandle m_transfer_failures;
  metrics::CounterHandle m_crash_flushed;
  metrics::CounterHandle m_blackhole_absorbed;
  // Congestion accounting (resolved only under load — bandwidth,
  // priorities, utility forwarder or wire cells — same byte-identity
  // contract as the fault handles).
  metrics::CounterHandle m_queue_deferred;
  metrics::CounterHandle m_contacts_saturated;
  metrics::HistogramHandle m_queue_wait;
  metrics::HistogramHandle m_contact_capacity;
  // Recovery accounting (resolved only when the recovery layer is
  // enabled — same byte-identity contract again).
  // Wire accounting (resolved only in wire mode — same contract).
  metrics::CounterHandle m_wire_cells;
  metrics::CounterHandle m_wire_bytes;
  metrics::CounterHandle m_retransmits;
  metrics::HistogramHandle m_ack_delay;
  metrics::CounterHandle m_shed;
  metrics::CounterHandle m_acks_created;
  metrics::CounterHandle m_acked_at_source;
  metrics::CounterHandle m_ack_gc;
  metrics::CounterHandle m_suspicion_flips;
  std::size_t crash_cursor = 0;

  // (deadline, copy id).
  using Expiry = std::pair<Time, std::size_t>;
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<>> expiries;

  // One contact's transfer candidates, reused. `order` is the execution
  // order key (see transfer_scheduled).
  struct Cand {
    std::uint64_t order;
    std::size_t id;  // copy id
    NodeId sender;
    NodeId receiver;
  };
  std::vector<Cand> cand_scratch;

  NetworkSimReport report;

  std::uint8_t pri(std::size_t m) const {
    return priorities.empty() ? 0 : priorities[m];
  }

  bool buffer_full(NodeId v) const {
    return config->buffer_capacity != 0 &&
           holdings[v].size() >= config->buffer_capacity;
  }

  // Tries to admit one more item at `v`, applying the buffer policy.
  // Returns false if the node stays full (transfer must be refused).
  bool make_room(NodeId v, std::size_t msg) {
    if (!buffer_full(v)) return true;
    if (config->policy == BufferPolicy::kRejectNew) {
      ++report.outcomes[msg].buffer_rejections;
      ++report.total_buffer_rejections;
      m_rejections.inc();
      return false;
    }
    // kDropOldest: evict the relayed copy that has waited longest.
    // Locally-originated state is never evicted: a copy still held by its
    // own source is skipped. Tie-break on equal arrival times: the scan
    // walks the ordered holdings set and keeps the *first* minimum, so the
    // lowest copy id — the earliest-created copy — wins deterministically.
    std::size_t victim = SIZE_MAX;
    Time oldest = kTimeInfinity;
    for (std::size_t id : holdings[v]) {
      if (copies[id].holder == messages[copies[id].msg].src) continue;
      if (copies[id].arrival < oldest) {
        oldest = copies[id].arrival;
        victim = id;
      }
    }
    if (victim == SIZE_MAX) {
      ++report.outcomes[msg].buffer_rejections;
      ++report.total_buffer_rejections;
      m_rejections.inc();
      return false;
    }
    drop(victim);
    ++report.evicted_copies;
    m_evictions.inc();
    return true;
  }

  Time deadline_of(std::size_t msg) const {
    return messages[msg].start + messages[msg].ttl;
  }

  /// Relay groups of one recovery generation of message m (generation 0
  /// is the original selection; later generations were freshly sampled at
  /// retransmission time).
  const std::vector<GroupId>& groups_of(std::size_t m,
                                        std::uint32_t gen) const {
    return gen == 0 ? relay_groups[m] : retx_groups[m][gen - 1];
  }

  /// Overload shedding (recovery layer): admission control may refuse a
  /// sheddable-priority message when either congestion signal crossed its
  /// threshold. Pure function of simulated state — no RNG.
  bool should_shed(std::size_t m) const {
    if (rec == nullptr || !rec->shedding()) return false;
    if (pri(m) < rec->shed_priority_floor) return false;
    if (rec->shed_occupancy > 0.0 && config->buffer_capacity > 0 &&
        static_cast<double>(holdings[messages[m].src].size()) >=
            rec->shed_occupancy *
                static_cast<double>(config->buffer_capacity)) {
      return true;
    }
    return rec->shed_saturation > 0.0 &&
           sat_window.fraction() >= rec->shed_saturation;
  }

  void inject(std::size_t m) {
    const auto& msg = messages[m];
    if (should_shed(m)) {
      report.outcomes[m].shed = true;
      ++report.shed_messages;
      m_shed.inc();
      return;
    }
    if (buffer_full(msg.src)) {
      report.outcomes[m].injection_failed = true;
      m_injection_failures.inc();
      return;
    }
    if (rec != nullptr && rec->retx_timeout > 0.0) {
      retx_interval[m] = rec->retx_timeout;
      schedule_retx(m, msg.start);
    }
    seen[m].insert(msg.src);
    add_source_copy(m, 0, msg.start);
  }

  // Puts a fresh hop-0 copy of message m of generation `gen`, carrying
  // all its spray tickets, into the source's buffer.
  void add_source_copy(std::size_t m, std::uint32_t gen, Time arrival) {
    const auto& msg = messages[m];
    std::size_t id = copies.size();
    copies.push_back({m, 0, msg.src, arrival, true, msg.copies,
                      kTimeInfinity, gen});
    if (config->record_paths) copy_paths.emplace_back();
    holdings[msg.src].insert(id);
    expiries.emplace(deadline_of(m), id);
  }

  // Removes a live copy from its holder's buffer.
  void drop(std::size_t id) {
    copies[id].alive = false;
    holdings[copies[id].holder].erase(id);
  }

  // Pops exactly one expiry-heap entry (the caller checked it is due).
  void expire_one() {
    const std::size_t id = expiries.top().second;
    expiries.pop();
    if (copies[id].alive) {
      drop(id);
      ++report.expired_copies;
      m_expirations.inc();
    }
  }

  // Processes exactly one crash-reboot event (the caller checked it is
  // due): the crashed node's buffered copies — relayed copies and its own
  // hop-0 source copies — are flushed. Lost, not leaked: a flushed copy
  // simply ceases to exist. The node's learned ACK set survives (it is
  // durable metadata, not buffered payload).
  void flush_one_crash() {
    const auto& events = config->faults->crashes();
    NodeId v = events[crash_cursor].node;
    ++crash_cursor;
    for (std::size_t id : holdings[v]) copies[id].alive = false;
    report.crash_flushed_copies += holdings[v].size();
    m_crash_flushed.inc(holdings[v].size());
    holdings[v].clear();
  }

  // Advances simulated time to t, interleaving TTL expirations (due
  // strictly before t) and crash-reboots (due at or before t) in global
  // timestamp order. The interleave matters under churn: a copy whose
  // holder crash-reboots at c and whose TTL runs out at e > c must be
  // reclaimed by the crash (crash_flushed_copies), not counted as expired
  // — and vice versa — so buffer-occupancy metrics and kDropOldest
  // pressure stay accurate between events. Ties (expiry == crash time)
  // expire first, matching the historical all-expiries-then-crashes pass.
  void advance_time(Time t) {
    if (config->faults == nullptr) {
      while (!expiries.empty() && expiries.top().first < t) {
        expire_one();
      }
      return;
    }
    const auto& crashes = config->faults->crashes();
    for (;;) {
      const Time next_expiry = expiries.empty()
                                   ? kTimeInfinity
                                   : expiries.top().first;
      const Time next_crash = crash_cursor < crashes.size()
                                  ? crashes[crash_cursor].time
                                  : kTimeInfinity;
      if (next_expiry < t && next_expiry <= next_crash) {
        expire_one();
      } else if (next_crash <= t) {
        flush_one_crash();
      } else {
        return;
      }
    }
  }

  // --- recovery layer -------------------------------------------------
  // Every method below is reached only with the layer enabled (rec !=
  // nullptr); the zero-knob engine never calls them.

  /// A copy of generation `gen` just delivered message m to `dst` via the
  /// final relay `sender`: the ACK record is born (exactly once per
  /// message) and both contact endpoints learn it immediately.
  void born_ack(std::size_t m, std::uint32_t gen, NodeId sender, NodeId dst,
                Time t) {
    if (rec == nullptr || !rec->acks || ack_exists[m]) return;
    ack_exists[m] = 1;
    delivered_gen[m] = gen;
    ++report.acks_created;
    m_acks_created.inc();
    learn_ack(dst, m, t);
    learn_ack(sender, m, t);
  }

  /// Node v learns the delivery ACK of message m: its outstanding copies
  /// of m are garbage-collected (vaccine), and — at the source — the
  /// pending retransmission is canceled, the ack delay recorded, and the
  /// delivering generation's groups exonerated in the suspicion tracker.
  void learn_ack(NodeId v, std::size_t m, Time t) {
    std::uint64_t& word = ack_known[v * ack_words + m / 64];
    const std::uint64_t bit = std::uint64_t{1} << (m % 64);
    if ((word & bit) != 0) return;
    word |= bit;
    // At the source this also ends the spray: its hop-0 copy goes too.
    auto& held = holdings[v];
    for (auto it = held.begin(); it != held.end();) {
      if (copies[*it].msg != m) {
        ++it;
        continue;
      }
      copies[*it].alive = false;
      it = held.erase(it);
      ++report.ack_gc_copies;
      m_ack_gc.inc();
    }
    if (messages[m].src != v || src_acked[m]) return;
    src_acked[m] = 1;
    ++report.acked_at_source;
    m_acked_at_source.inc();
    m_ack_delay.observe(t - messages[m].start);
    if (suspicion != nullptr && utility == nullptr) {
      for (GroupId g : groups_of(m, delivered_gen[m])) {
        suspicion->record(g, /*acked=*/true);
      }
    }
  }

  /// Anti-packet exchange at a surviving contact: both endpoints end up
  /// knowing the union of their ACK sets. Metadata-sized, so it consumes
  /// no contact bandwidth budget. `to` learns the ACKs only `from` knows
  /// in ascending message id, a then b, so learn_ack's side effects keep
  /// a fixed order.
  void exchange_acks(NodeId a, NodeId b, Time t) {
    auto pull = [&](NodeId to, NodeId from) {
      const std::uint64_t* from_row = ack_known.data() + from * ack_words;
      const std::uint64_t* to_row = ack_known.data() + to * ack_words;
      for (std::size_t w = 0; w < ack_words; ++w) {
        // learn_ack only sets bits of this very word of `to`, all of them
        // already in `fresh`, so the snapshot stays exact.
        for (std::uint64_t fresh = from_row[w] & ~to_row[w]; fresh != 0;
             fresh &= fresh - 1) {
          learn_ack(to, w * 64 + std::countr_zero(fresh), t);
        }
      }
    };
    pull(a, b);
    pull(b, a);
  }

  /// Arms the next retransmission timer for m from `from`, consuming one
  /// jitter draw from the message's recovery sub-stream. The interval
  /// grows by retx_backoff per attempt; timers past the message deadline
  /// or the attempt cap are not armed.
  void schedule_retx(std::size_t m, Time from) {
    double interval = retx_interval[m];
    if (rec->retx_jitter > 0.0) {
      interval *= 1.0 + rec->retx_jitter * (2.0 * msg_rng[m].uniform01() - 1.0);
    }
    retx_interval[m] *= rec->retx_backoff;
    const Time due = from + interval;
    if (due <= deadline_of(m) && retx_attempts[m] < rec->retx_max) {
      retx_due.emplace(due, m);
    }
  }

  /// Fires every due retransmission timer up to time t, in due-time order
  /// (ties by message index — the pair ordering of the heap).
  void process_retx_until(Time t) {
    while (!retx_due.empty() && retx_due.top().first <= t) {
      auto [due, m] = retx_due.top();
      retx_due.pop();
      if (src_acked[m]) continue;  // ACK arrived: retransmission canceled
      // The timeout is the sender's failure signal: the timed-out
      // generation's relay groups take a suspicion penalty.
      if (suspicion != nullptr && utility == nullptr) {
        const auto gen = static_cast<std::uint32_t>(retx_groups[m].size());
        for (GroupId g : groups_of(m, gen)) {
          suspicion->record(g, /*acked=*/false);
        }
      }
      if (retx_attempts[m] >= rec->retx_max) continue;
      retransmit(m, due);
      schedule_retx(m, due);
    }
  }

  /// Re-onions message m at time t: a fresh generation through freshly
  /// sampled relay groups (suspicion-biased when the tracker is on), and
  /// a full ticket allotment at the source's hop-0 copy (re-created if it
  /// was lost). Utility mode re-injects a fresh spray copy instead (no
  /// relay groups to sample).
  void retransmit(std::size_t m, Time t) {
    const auto& msg = messages[m];
    ++retx_attempts[m];
    ++report.retransmissions;
    ++report.outcomes[m].retransmissions;
    m_retransmits.inc();
    if (utility != nullptr) {
      if (buffer_full(msg.src)) return;  // no room: the attempt is spent
      add_source_copy(m, 0, t);
      return;
    }
    retx_groups[m].push_back(
        suspicion != nullptr
            ? recovery::select_relay_groups_avoiding(
                  *directory, *suspicion, msg.src, msg.dst, msg.num_relays,
                  msg_rng[m])
            : directory->select_relay_groups(msg.src, msg.dst,
                                             msg.num_relays, msg_rng[m]));
    const auto gen = static_cast<std::uint32_t>(retx_groups[m].size());
    for (std::size_t id : holdings[msg.src]) {
      Copy& c = copies[id];
      if (c.msg == m && c.hop == 0) {  // still spraying: re-arm in place
        c.gen = gen;
        c.tickets = msg.copies;
        return;
      }
    }
    if (buffer_full(msg.src)) return;  // no room: the attempt is spent
    // Onion sprays measure "sim.hop_delay" from the message start.
    add_source_copy(m, gen, msg.start);
  }

  // Whether `receiver` is a valid next hop for message m at `hop` of
  // recovery generation `gen` (always 0 without the recovery layer).
  bool qualifies(std::size_t m, std::uint32_t gen, std::size_t hop,
                 NodeId receiver) const {
    const auto& msg = messages[m];
    if (seen[m].count(receiver) > 0) return false;  // Forward() dedup
    if (hop < msg.num_relays) {
      return directory->in_group(receiver, groups_of(m, gen)[hop]);
    }
    return receiver == msg.dst;
  }

  // Flushes a completed queue-wait interval into "sim.queue_wait".
  void note_served(Time& queued_since, Time t) {
    if (queued_since != kTimeInfinity) {
      m_queue_wait.observe(t - queued_since);
      queued_since = kTimeInfinity;
    }
  }

  // record_paths bookkeeping: `receiver` just became the relay at 0-based
  // hop position `pos` for message m (one copy's path extends; the
  // per-message hop set dedups across copies).
  void record_relay(std::size_t m, std::size_t pos, NodeId receiver) {
    auto& rph = report.outcomes[m].relays_per_hop;
    if (rph.size() <= pos) rph.resize(pos + 1);
    auto& at = rph[pos];
    if (std::find(at.begin(), at.end(), receiver) == at.end()) {
      at.push_back(receiver);
    }
  }

  // --- transfer eligibility + execution ------------------------------

  // Whether copy `id` may move from `sender` to `receiver` at time t.
  // Onion mode: `receiver` qualifies for the copy's next hop. Utility mode:
  // a copy may deliver to the destination or binary-split its spray
  // tickets toward a higher-utility, uncongested custodian (pure functions
  // of simulated state, no RNG).
  bool eligible(std::size_t id, NodeId sender, NodeId receiver,
                Time t) const {
    const Copy& c = copies[id];
    if (!c.alive || c.holder != sender || t > deadline_of(c.msg)) {
      return false;
    }
    if (utility == nullptr) return qualifies(c.msg, c.gen, c.hop, receiver);
    const std::size_t m = c.msg;
    if (seen[m].count(receiver) > 0) return false;
    if (receiver == messages[m].dst) return true;
    return c.tickets > 1 &&
           utility->should_replicate(sender, receiver, messages[m].dst,
                                     holdings[receiver].size(),
                                     config->buffer_capacity);
  }

  // Executes one transfer of copy `id`, whose eligibility was just
  // checked: deliver to the destination, spray (a hop-0 onion copy hands
  // one ticket into R_1; a utility copy gives away half its tickets), or
  // forward the whole copy one onion hop. Returns true iff a transfer
  // executed — the unit that consumes contact bandwidth. A mid-contact
  // fault or a buffer refusal returns false and consumes nothing: the
  // sender keeps its copy and its tickets, and may retry later.
  bool attempt(std::size_t id, NodeId sender, NodeId receiver, Time t) {
    faults::FaultPlan* fp = config->faults;
    const std::size_t m = copies[id].msg;
    if (fp != nullptr && fp->transfer_fails(sender, receiver)) {
      ++report.transfer_failures;
      m_transfer_failures.inc();
      if (utility != nullptr) {
        utility->observe_transfer_outcome(receiver, false);
      }
      return false;
    }
    const bool deliver =
        receiver == messages[m].dst &&
        (utility != nullptr || copies[id].hop == messages[m].num_relays);
    // The destination consumes the message at no buffer cost.
    if (!deliver && !make_room(receiver, m)) return false;
    ++report.outcomes[m].transmissions;
    ++report.total_transmissions;
    m_transfers.inc();
    m_hop_delay.observe(t - copies[id].arrival);
    seen[m].insert(receiver);

    if (deliver) {
      if (!report.outcomes[m].delivered) {
        report.outcomes[m].delivered = true;
        report.outcomes[m].delay = t - messages[m].start;
        m_deliveries.inc();
        m_delivery_delay.observe(t - messages[m].start);
        if (config->record_paths) {
          report.outcomes[m].relay_path = copy_paths[id];
        }
      }
      drop(id);
      born_ack(m, copies[id].gen, sender, receiver, t);
    } else if (utility != nullptr || copies[id].hop == 0) {
      // Spray: the receiver gets a new copy one hop further on.
      const std::size_t give =
          utility != nullptr ? copies[id].tickets / 2 : 1;  // >= 1
      const std::size_t hop = copies[id].hop;
      const std::size_t id2 = copies.size();
      copies.push_back({m, hop + 1, receiver, t, true, give, kTimeInfinity,
                        copies[id].gen});
      if (config->record_paths) {
        copy_paths.push_back(copy_paths[id]);
        copy_paths[id2].push_back(receiver);
        record_relay(m, hop, receiver);
      }
      holdings[receiver].insert(id2);
      expiries.emplace(deadline_of(m), id2);
      copies[id].tickets -= give;  // re-resolved: push_back may reallocate
      if (copies[id].tickets == 0) drop(id);
    } else {
      // Forward: the whole copy moves one onion hop on.
      Copy& c = copies[id];
      holdings[sender].erase(id);
      c.holder = receiver;
      c.arrival = t;
      if (config->record_paths) {
        record_relay(m, c.hop, receiver);
        copy_paths[id].push_back(receiver);
      }
      ++c.hop;
      holdings[receiver].insert(id);
    }
    note_served(copies[id].queued_since, t);
    if (!deliver && fp != nullptr && fp->is_blackhole(receiver)) {
      ++report.blackhole_absorbed;
      m_blackhole_absorbed.inc();
    }
    if (utility != nullptr) utility->observe_transfer_outcome(receiver, true);
    return true;
  }

  // Contact drainage: both directions' candidates are collected against
  // the state at contact start, sorted by the order key, and executed
  // within the shared bandwidth budget. The key is (priority, direction
  // a->b before b->a, then hop-0 onion source copies by message index
  // before every other copy by copy id). Eligibility is re-checked at
  // execution — earlier transfers may have evicted a candidate, spent a
  // source's last ticket or garbage-collected it with an ACK — and
  // eligible candidates past the budget are deferred to a later contact
  // (that wait is "sim.queue_wait"). In wire mode each executed transfer
  // spends cell_cost budget units (the budget is cell-denominated) and
  // lands in the sim.wire_* accounting.
  void transfer_scheduled(NodeId a, NodeId b, Time t, std::size_t budget) {
    faults::FaultPlan* fp = config->faults;
    cand_scratch.clear();
    auto collect = [&](NodeId sender, NodeId receiver, std::uint64_t dir) {
      // Blackholes accept copies but never forward them.
      if (fp != nullptr && fp->is_blackhole(sender)) return;
      for (std::size_t id : holdings[sender]) {
        if (!eligible(id, sender, receiver, t)) continue;
        const Copy& c = copies[id];
        const std::uint64_t rank = utility == nullptr && c.hop == 0
                                       ? c.msg
                                       : (std::uint64_t{1} << 54) | id;
        cand_scratch.push_back(
            {(std::uint64_t{pri(c.msg)} << 56) | (dir << 55) | rank, id,
             sender, receiver});
      }
    };
    collect(a, b, 0);
    collect(b, a, 1);
    // Order keys are unique (one live hop-0 copy per message), so plain
    // sort is a total order.
    std::sort(cand_scratch.begin(), cand_scratch.end(),
              [](const Cand& x, const Cand& y) { return x.order < y.order; });

    std::size_t executed = 0;
    bool saturated = false;
    for (const Cand& c : cand_scratch) {
      if (!eligible(c.id, c.sender, c.receiver, t)) continue;
      if (executed + cell_cost > budget) {
        // Out of bandwidth: the copy starts (or continues) queueing.
        saturated = true;
        ++report.queue_deferred;
        m_queue_deferred.inc();
        Time& qs = copies[c.id].queued_since;
        if (qs == kTimeInfinity) qs = t;
        continue;
      }
      if (attempt(c.id, c.sender, c.receiver, t)) {
        executed += cell_cost;
        if (config->cells_per_message > 0) {
          report.wire_cells += config->cells_per_message;
          report.wire_bytes += config->cells_per_message * config->cell_size;
          m_wire_cells.inc(config->cells_per_message);
          m_wire_bytes.inc(config->cells_per_message * config->cell_size);
        }
      }
    }
    if (executed > report.max_contact_transfers) {
      report.max_contact_transfers = executed;
    }
    if (saturated) {
      ++report.contacts_saturated;
      m_contacts_saturated.inc();
    }
    if (rec != nullptr && rec->shed_saturation > 0.0) {
      sat_window.record(saturated);
    }
  }

  NetworkSimReport run(util::Rng& rng) {
    utility = config->utility;
    const bool bandwidth_on = config->bandwidth.enabled();
    const bool wire_on = config->cells_per_message > 0;
    if (wire_on) cell_cost = config->cells_per_message;
    bool priorities_on = false;
    for (std::uint8_t p : priorities) priorities_on |= (p != 0);
    rec = (config->recovery != nullptr && config->recovery->enabled())
              ? config->recovery
              : nullptr;

    metrics::Registry* reg = config->metrics;
    m_transfers = metrics::counter(reg, "sim.transfers");
    m_rejections = metrics::counter(reg, "sim.buffer_rejections");
    m_evictions = metrics::counter(reg, "sim.evictions");
    m_expirations = metrics::counter(reg, "sim.expirations");
    m_injection_failures = metrics::counter(reg, "sim.injection_failures");
    m_deliveries = metrics::counter(reg, "sim.deliveries");
    m_hop_delay = metrics::histogram(reg, "sim.hop_delay");
    m_delivery_delay = metrics::histogram(reg, "sim.delivery_delay");
    metrics::counter(reg, "sim.messages").inc(messages.size());
    if (config->faults != nullptr) {
      // Resolved only under an active fault plan so the fault-free metrics
      // export carries no faults.* entries (byte-identity contract).
      m_suppressed = metrics::counter(reg, "faults.contacts_suppressed");
      m_transfer_failures = metrics::counter(reg, "faults.transfer_failures");
      m_crash_flushed = metrics::counter(reg, "faults.crash_flushed_copies");
      m_blackhole_absorbed = metrics::counter(reg, "faults.blackhole_absorbed");
      metrics::counter(reg, "faults.blackhole_nodes")
          .inc(config->faults->blackhole_count());
    }
    if (bandwidth_on || priorities_on || utility != nullptr || wire_on) {
      // Same contract: the unloaded export carries no sim.queue_* entries.
      m_queue_deferred = metrics::counter(reg, "sim.queue_deferred");
      m_contacts_saturated = metrics::counter(reg, "sim.contacts_saturated");
      m_queue_wait = metrics::histogram(reg, "sim.queue_wait");
      if (bandwidth_on) {
        m_contact_capacity = metrics::histogram(reg, "sim.contact_capacity");
      }
      if (wire_on) {
        // And once more: the wire-off export carries no sim.wire_* entries.
        m_wire_cells = metrics::counter(reg, "sim.wire_cells");
        m_wire_bytes = metrics::counter(reg, "sim.wire_bytes");
      }
    }
    if (rec != nullptr) {
      // Same contract once more: the recovery-free export carries no
      // recovery.* entries.
      m_retransmits = metrics::counter(reg, "recovery.retransmits");
      m_ack_delay = metrics::histogram(reg, "recovery.ack_delay");
      m_shed = metrics::counter(reg, "recovery.shed_messages");
      m_acks_created = metrics::counter(reg, "recovery.acks_created");
      m_acked_at_source = metrics::counter(reg, "recovery.acked_at_source");
      m_ack_gc = metrics::counter(reg, "recovery.ack_gc_copies");
      m_suspicion_flips = metrics::counter(reg, "recovery.suspicion_flips");

      ack_words = (messages.size() + 63) / 64;
      ack_known.assign(trace->node_count() * ack_words, 0);
      ack_exists.assign(messages.size(), 0);
      src_acked.assign(messages.size(), 0);
      delivered_gen.assign(messages.size(), 0);
      if (rec->retx_timeout > 0.0) {
        retx_attempts.assign(messages.size(), 0);
        retx_interval.assign(messages.size(), 0.0);
        retx_groups.assign(messages.size(), {});
        msg_rng.reserve(messages.size());
        for (std::size_t m = 0; m < messages.size(); ++m) {
          msg_rng.emplace_back(util::derive_seed(config->recovery_seed, m));
        }
      }
      if (rec->suspicion_alpha > 0.0) {
        suspicion = config->suspicion;
        if (suspicion == nullptr) {
          own_tracker.emplace(rec->suspicion_alpha, rec->suspicion_threshold);
          suspicion = &*own_tracker;
        }
        tracker_flips_at_start = suspicion->flips();
      }
      if (rec->shed_saturation > 0.0) {
        sat_window = recovery::SaturationWindow();
      }
    }

    report.outcomes.assign(messages.size(), {});
    seen.assign(messages.size(), {});
    holdings.assign(trace->node_count(), {});

    // Select relay groups per message (skipped — with no RNG drawn — in
    // utility-forwarder mode, which routes without onion groups).
    if (utility == nullptr) {
      relay_groups.resize(messages.size());
      for (std::size_t m = 0; m < messages.size(); ++m) {
        relay_groups[m] = directory->select_relay_groups(
            messages[m].src, messages[m].dst, messages[m].num_relays, rng);
      }
    }

    // Injection order by start time.
    std::vector<std::size_t> order(messages.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return messages[a].start < messages[b].start;
    });

    faults::FaultPlan* fp = config->faults;
    std::size_t next_injection = 0;
    for (const auto& event : trace->events()) {
      while (next_injection < order.size() &&
             messages[order[next_injection]].start <= event.time) {
        advance_time(messages[order[next_injection]].start);
        if (rec != nullptr && rec->retx_timeout > 0.0) {
          process_retx_until(messages[order[next_injection]].start);
        }
        inject(order[next_injection]);
        ++next_injection;
      }
      advance_time(event.time);
      if (rec != nullptr && rec->retx_timeout > 0.0) {
        process_retx_until(event.time);
      }
      if (fp != nullptr) {
        if (!fp->node_up(event.a, event.time) ||
            !fp->node_up(event.b, event.time)) {
          ++report.suppressed_contacts;
          m_suppressed.inc();
          continue;
        }
      }
      if (rec != nullptr && rec->acks) {
        // Anti-packets ride every surviving contact, ahead of payload
        // transfers: a vaccine may free buffer space the transfers below
        // then use.
        exchange_acks(event.a, event.b, event.time);
      }
      if (utility != nullptr) {
        // The forwarder learns from every surviving contact, including
        // the one it is about to route over.
        utility->observe_contact(event.a, event.b, event.time);
      }
      std::size_t budget = kUnlimited;
      if (bandwidth_on) {
        const auto& bw = config->bandwidth;
        if (bw.mean_duration > 0.0) {
          const double duration = rng.exponential(1.0 / bw.mean_duration);
          budget = static_cast<std::size_t>(duration / bw.transfer_time);
        } else {
          budget = bw.messages_per_contact;
        }
        m_contact_capacity.observe(static_cast<double>(budget));
      }
      transfer_scheduled(event.a, event.b, event.time, budget);
    }
    // Messages injected after the last event never move, but simulated
    // time still advances to each injection instant: expired and
    // crash-flushed copies are reclaimed first, so the source's
    // buffer-occupancy check sees live copies only (a stale-buffer
    // injection failure here would be an accounting artifact).
    while (next_injection < order.size()) {
      advance_time(messages[order[next_injection]].start);
      inject(order[next_injection]);
      ++next_injection;
    }
    if (suspicion != nullptr) {
      report.suspicion_flips = suspicion->flips() - tracker_flips_at_start;
      m_suspicion_flips.inc(report.suspicion_flips);
    }
    return std::move(report);
  }
};

}  // namespace

NetworkSimReport run_network_sim(const trace::ContactTrace& trace,
                                 const groups::GroupDirectory& directory,
                                 std::vector<InjectedMessage> messages,
                                 const NetworkSimConfig& config,
                                 util::Rng& rng) {
  return run_network_sim(trace, directory, std::move(messages), {}, config,
                         rng);
}

NetworkSimReport run_network_sim(const trace::ContactTrace& trace,
                                 const groups::GroupDirectory& directory,
                                 std::vector<InjectedMessage> messages,
                                 std::vector<std::uint8_t> priorities,
                                 const NetworkSimConfig& config,
                                 util::Rng& rng) {
  if (trace.node_count() != directory.node_count()) {
    throw std::invalid_argument("run_network_sim: node count mismatch");
  }
  if (config.faults != nullptr &&
      config.faults->node_count() != trace.node_count()) {
    throw std::invalid_argument("run_network_sim: fault plan node count mismatch");
  }
  if (!priorities.empty() && priorities.size() != messages.size()) {
    throw std::invalid_argument(
        "run_network_sim: priorities must be empty or parallel to messages");
  }
  if (config.cells_per_message > 0 && config.cell_size == 0) {
    throw std::invalid_argument(
        "run_network_sim: wire mode needs cell_size > 0");
  }
  config.bandwidth.validate();
  if (config.recovery != nullptr) {
    config.recovery->validate();
  }
  const bool utility_mode = config.utility != nullptr;
  if (utility_mode &&
      config.utility->node_count() != trace.node_count()) {
    throw std::invalid_argument(
        "run_network_sim: utility forwarder node count mismatch");
  }
  for (const auto& m : messages) {
    if (m.src == m.dst) {
      throw std::invalid_argument("run_network_sim: src == dst");
    }
    if (m.src >= trace.node_count() || m.dst >= trace.node_count()) {
      throw std::invalid_argument("run_network_sim: unknown endpoint");
    }
    if (!utility_mode && m.num_relays == 0) {
      throw std::invalid_argument("run_network_sim: need >= 1 relay group");
    }
    if (m.copies == 0) {
      throw std::invalid_argument("run_network_sim: copies must be >= 1");
    }
  }
  Engine engine;
  engine.trace = &trace;
  engine.directory = &directory;
  engine.config = &config;
  engine.messages = std::move(messages);
  engine.priorities = std::move(priorities);
  return engine.run(rng);
}

}  // namespace odtn::sim
