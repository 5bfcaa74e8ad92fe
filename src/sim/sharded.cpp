#include "src/sim/sharded.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace peel {

namespace {

constexpr SimTime kNoHorizon = SimTime{1} << 62;

/// Spin-with-backoff used at both barrier edges: short windows make a
/// condvar round-trip per window more expensive than the window itself.
inline void relax(int& spins) {
  if (++spins >= 256) {
    std::this_thread::yield();
    spins = 0;
  }
}

}  // namespace

bool ShardedNetwork::DomainHook::post(SimTime t, const SimEvent& ev) {
  return owner->route(domain, t, ev);
}

void ShardedNetwork::DeliverySink::on_sim_event(const SimEvent& ev) {
  if (ev.kind != SimEventKind::Deliver) {
    throw std::logic_error("sharded engine: control queue fired a non-Deliver "
                           "SimEvent");
  }
  if (owner->on_delivery_) {
    owner->on_delivery_(DeliveryEvent{
        ev.a, owner->streams_[static_cast<std::size_t>(ev.a)].tag, ev.b,
        ev.c});
  }
}

ShardedNetwork::ShardedNetwork(const Topology& topo, const SimConfig& config,
                               int threads)
    : topo_(&topo),
      plan_(std::make_shared<const ShardPlan>(build_shard_plan(topo))),
      config_(config) {
  delivery_sink_.owner = this;
  control_.bind_sink(&delivery_sink_);
  domain_total_ = plan_->domains;
  if (plan_->cross_links > 0) {
    if (plan_->lookahead <= 0) {
      throw std::invalid_argument(
          "sharded engine: a cross-domain link has zero propagation, which "
          "defeats the conservative lookahead");
    }
    xdelay_ = plan_->lookahead;
    if (config.congestion_control && config.cnp_delay < plan_->lookahead) {
      throw std::invalid_argument(
          "sharded engine: cnp_delay (" + std::to_string(config.cnp_delay) +
          " ns) is below the cross-domain lookahead (" +
          std::to_string(plan_->lookahead) +
          " ns); CNP feedback would violate causality");
    }
  }

  domains_.reserve(static_cast<std::size_t>(domain_total_));
  for (int d = 0; d < domain_total_; ++d) {
    auto dom = std::make_unique<Domain>();
    SimConfig dc = config;
    // Per-domain RNG stream, a pure function of (scenario seed, domain id):
    // the decomposition is fixed, so ECN draws are thread-count invariant.
    dc.seed = config.seed +
              0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(d + 1);
    dom->net = std::make_unique<Network>(topo, dc, dom->queue, plan_, d);
    dom->hook.owner = this;
    dom->hook.domain = d;
    dom->net->set_cross_domain_hook(&dom->hook);
    dom->outbox.resize(static_cast<std::size_t>(domain_total_));
    dom->net->set_delivery_handler([this, d](const DeliveryEvent& ev) {
      Domain& mine = *domains_[static_cast<std::size_t>(d)];
      SimEvent deliver;
      deliver.kind = SimEventKind::Deliver;
      deliver.a = ev.stream;
      deliver.b = ev.receiver;
      deliver.c = ev.chunk;
      mine.deliveries.push_back(Mail{mine.queue.now(), deliver});
    });
    domains_.push_back(std::move(dom));
  }

  workers_ = std::clamp(threads, 1, domain_total_);
  if (workers_ > 1) {
    threads_.reserve(static_cast<std::size_t>(workers_));
    for (int w = 0; w < workers_; ++w) {
      threads_.emplace_back([this] { worker_main(); });
    }
  }
}

ShardedNetwork::~ShardedNetwork() {
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) t.join();
}

// ---------------------------------------------------------------------------
// Cross-domain routing

bool ShardedNetwork::route(int from, SimTime t, const SimEvent& ev) {
  int target;
  switch (ev.kind) {
    case SimEventKind::Arrive:
      target = plan_->domain_of_node(topo_->link(ev.a).dst);
      break;
    case SimEventKind::CnpRate:
      // ev.b names the injector; its rate limiter lives with its endpoint.
      target = streams_[static_cast<std::size_t>(ev.a)]
                   .injector_domain[static_cast<std::size_t>(ev.b)];
      break;
    case SimEventKind::PfcPause:
    case SimEventKind::PfcResume:
      target = plan_->domain_of_node(topo_->link(ev.a).src);
      break;
    default:
      return false;  // pump/finish/sample never leave their domain
  }
  Domain& mine = *domains_[static_cast<std::size_t>(from)];
  if (target == from) {
    // A local CNP draws its sequence number now, where scheduling it would
    // have, and waits for the merge-time admission with the remote ones
    // (drain_windows). With no cross-domain link there are no remote CNPs,
    // and no window horizon keeps it from firing inside this window: it is
    // admitted at once, as on the single queue (return false).
    if (ev.kind == SimEventKind::CnpRate && xdelay_ > 0) {
      mine.cnps.push_back(HeldCnp{t, mine.queue.reserve_seq(), ev});
      return true;
    }
    // Arrive goes back onto the local queue (return false); a PFC frame to
    // ourselves is swallowed — the decision site's state flip already IS
    // the real serializer state.
    return ev.kind == SimEventKind::PfcPause ||
           ev.kind == SimEventKind::PfcResume;
  }
  mine.outbox[static_cast<std::size_t>(target)].push_back(Mail{t, ev});
  return true;
}

void ShardedNetwork::drain_windows() {
  // Destination-major, source-domain-minor, FIFO within a mailbox: the
  // destination queue's own sequence counter then realizes exactly the
  // (t, source domain, seq) deterministic cross-domain merge.
  for (int dst = 0; dst < domain_total_; ++dst) {
    Domain& target = *domains_[static_cast<std::size_t>(dst)];
    bool delivered = false;
    for (int src = 0; src < domain_total_; ++src) {
      auto& box =
          domains_[static_cast<std::size_t>(src)]->outbox[static_cast<std::size_t>(dst)];
      for (const Mail& m : box) {
        if (m.ev.kind == SimEventKind::CnpRate) {
          target.cnps.push_back(HeldCnp{m.t, target.queue.reserve_seq(), m.ev});
        } else {
          target.queue.at(m.t, m.ev);
        }
      }
      delivered = delivered || !box.empty();
      box.clear();
    }
    // Merge-time CNP admission. Every CNP posted in a window arrives at or
    // after its horizon (cnp_delay >= lookahead), so none of this batch has
    // fired yet, and each batch arrives after the previous one; sorted by
    // (t, seq), the batch is the order the CNPs fire in. Each injector's
    // controller thus sees its CNPs in firing order, the condition under
    // which Dcqcn::admit_cnp is exact.
    if (!target.cnps.empty()) {
      std::sort(target.cnps.begin(), target.cnps.end(),
                [](const HeldCnp& a, const HeldCnp& b) {
                  return a.t != b.t ? a.t < b.t : a.seq < b.seq;
                });
      for (const HeldCnp& c : target.cnps) {
        target.net->admit_cnp(c.t, c.seq, c.ev);
      }
      target.cnps.clear();
    }
    // Fresh cross-domain work restarts a lapsed telemetry sampler, the same
    // way send_chunk does on the source domain.
    if (delivered) target.net->rearm_sampler();
  }
  // Delivery callbacks replay sequentially on the control queue, one
  // lookahead later (the notification's wire delay), in (t, domain,
  // collection order) — deterministic at any thread count. Each is a packed
  // Deliver event, not a boxed closure: closures and PODs draw from one
  // sequence counter and fire in one (t, seq) order, so every delivery
  // keeps the place a closure scheduled here would have had.
  for (int d = 0; d < domain_total_; ++d) {
    Domain& dom = *domains_[static_cast<std::size_t>(d)];
    if (on_delivery_) {
      for (const Mail& m : dom.deliveries) control_.at(m.t + xdelay_, m.ev);
    }
    dom.deliveries.clear();
  }
}

// ---------------------------------------------------------------------------
// Window loop

void ShardedNetwork::run_domains(SimTime horizon) {
  if (workers_ <= 1) {
    for (int d : busy_) {
      domains_[static_cast<std::size_t>(d)]->queue.run_window(horizon);
    }
    return;
  }
  horizon_ = horizon;
  next_busy_.store(0, std::memory_order_relaxed);
  ++windows_issued_;
  go_.fetch_add(1, std::memory_order_release);
  run_claimed();  // the coordinator claims busy domains too
  const std::uint64_t want =
      windows_issued_ * static_cast<std::uint64_t>(workers_);
  int spins = 0;
  while (done_.load(std::memory_order_acquire) != want) relax(spins);
  for (auto& dom : domains_) {
    if (dom->error) {
      std::exception_ptr err = dom->error;
      dom->error = nullptr;
      std::rethrow_exception(err);
    }
  }
}

void ShardedNetwork::run_claimed() {
  const SimTime h = horizon_;  // ordered by the go_ release/acquire pair
  for (;;) {
    const std::size_t i = next_busy_.fetch_add(1, std::memory_order_relaxed);
    if (i >= busy_.size()) return;
    Domain& dom = *domains_[static_cast<std::size_t>(busy_[i])];
    try {
      dom.queue.run_window(h);
    } catch (...) {
      dom.error = std::current_exception();
    }
  }
}

void ShardedNetwork::worker_main() {
  std::uint64_t seen = 0;
  int spins = 0;
  for (;;) {
    while (go_.load(std::memory_order_acquire) == seen) {
      if (stop_.load(std::memory_order_acquire)) return;
      relax(spins);
    }
    ++seen;
    run_claimed();
    done_.fetch_add(1, std::memory_order_release);
  }
}

void ShardedNetwork::advance(bool bounded, SimTime deadline) {
  for (;;) {
    SimTime w = kNoHorizon;
    SimTime tc = kNoHorizon;
    bool any = false;
    if (SimTime t = 0; control_.next_event_time(t)) {
      tc = t;
      w = t;
      any = true;
    }
    for (auto& dom : domains_) {
      if (SimTime t = 0; dom->queue.next_event_time(t)) {
        w = std::min(w, t);
        any = true;
      }
    }
    if (!any) break;
    if (bounded && w > deadline) break;

    if (tc == w) {
      // Control step: run every control closure due at exactly W, with all
      // domain clocks advanced to W first so data-plane calls made from the
      // closures (send_chunk -> pump, fault application) land at W sharp.
      // Domains cannot hold an event earlier than the global minimum, so
      // advance_to's precondition holds.
      for (auto& dom : domains_) dom->queue.advance_to(w);
      control_.run_until(w);
      drain_windows();  // cross-domain posts made by the closures
      continue;
    }

    // Parallel window: no domain may run past the next control event (the
    // control plane has zero lookahead into the data plane), nor past
    // W + lookahead (the earliest instant a cross-domain message generated
    // this window could be due).
    SimTime horizon = xdelay_ > 0 ? w + xdelay_ : kNoHorizon;
    horizon = std::min(horizon, tc);
    if (bounded) horizon = std::min(horizon, deadline + 1);

    // Only busy domains (an event or slot before the horizon) run: every
    // other domain's next event is >= horizon, so its run_window(horizon)
    // would process nothing (and run_window never advances a clock past
    // what it runs). Adaptive window execution: a dense control plane
    // clamps `horizon` to the next control event, shrinking windows until
    // most carry events in one domain only. Waking the pool for such a
    // window pays a barrier round-trip for zero parallelism, so a lone busy
    // domain runs inline.
    busy_.clear();
    for (int d = 0; d < domain_total_; ++d) {
      if (SimTime t = 0;
          domains_[static_cast<std::size_t>(d)]->queue.next_event_time(t) &&
          t < horizon) {
        busy_.push_back(d);
      }
    }
    if (busy_.size() == 1) {
      ++windows_inline_;
      domains_[static_cast<std::size_t>(busy_.front())]->queue.run_window(
          horizon);
    } else {
      ++windows_parallel_;
      run_domains(horizon);
    }
    drain_windows();
  }

  // Every clock ends at the deadline or, after a drain, at the last event:
  // a drain leaves each domain at its own last event, and a send made after
  // the run must not pump a segment into another domain's past.
  const SimTime end = bounded ? deadline : now();
  control_.run_until(end);
  for (auto& dom : domains_) dom->queue.advance_to(end);
}

void ShardedNetwork::run() { advance(false, 0); }

void ShardedNetwork::run_until(SimTime t) { advance(true, t); }

// ---------------------------------------------------------------------------
// DataPlane

StreamId ShardedNetwork::open_stream(StreamSpec spec) {
  // Compiled once, before any replica is touched: a rejected spec leaves
  // every domain (and the StreamId sequence) unchanged.
  std::shared_ptr<const StreamTree> tree = compile_stream(*topo_, spec);
  const auto id = static_cast<StreamId>(streams_.size());

  // Footprint: every domain that pumps, forwards, terminates a forwarded
  // link, or receives. Those open a replica (the shared tree and chunk
  // table, receivers filtered to domain-owned nodes); the rest never hear
  // of the stream, as no event of it reaches them.
  std::vector<char> in_footprint(static_cast<std::size_t>(domain_total_), 0);
  const auto mark = [&](NodeId n) {
    in_footprint[static_cast<std::size_t>(plan_->domain_of_node(n))] = 1;
  };
  for (const StreamTree::Node& tn : tree->nodes) mark(tn.node);
  for (NodeId r : tree->receivers) mark(r);

  StreamInfo info;
  info.src_domain = plan_->domain_of_node(tree->source);
  info.tag = tree->tag;
  info.chunks = &chunk_tables_.emplace_back();
  for (const StreamTree::Injector& inj : tree->injectors) {
    info.injector_domain.push_back(plan_->domain_of_node(inj.node));
  }
  std::vector<NodeId> receivers;
  std::vector<std::uint8_t> local(info.injector_domain.size());
  for (int d = 0; d < domain_total_; ++d) {
    if (in_footprint[static_cast<std::size_t>(d)] == 0) continue;
    receivers.clear();
    for (NodeId r : tree->receivers) {
      if (plan_->domain_of_node(r) == d) receivers.push_back(r);
    }
    // Every replica keeps the full injector list (combiner child slots and
    // CNP injector indices must align across domains); the mask says which
    // injectors THIS replica paces.
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = static_cast<std::uint8_t>(info.injector_domain[i] == d);
    }
    domains_[static_cast<std::size_t>(d)]->net->open_replica(
        id, tree, *info.chunks, receivers, local);
    info.footprint.push_back(d);
  }
  streams_.push_back(std::move(info));
  return id;
}

void ShardedNetwork::send_chunk(StreamId stream, int chunk_index, Bytes bytes) {
  const StreamInfo& info = streams_[static_cast<std::size_t>(stream)];
  // Checked and recorded once, in the table every replica reads: a rejected
  // send leaves every domain unchanged. Pacing state lives with the
  // injecting endpoints: the source domain for a multicast, every
  // contributor-owning domain for a reduce stream.
  info.chunks->send(chunk_index, bytes);
  for (int d : info.footprint) {
    if (std::find(info.injector_domain.begin(), info.injector_domain.end(),
                  d) != info.injector_domain.end()) {
      domains_[static_cast<std::size_t>(d)]->net->queue_chunk(
          stream, chunk_index, bytes);
    }
  }
}

std::vector<int> ShardedNetwork::cancel_unsent_chunks(StreamId stream) {
  // The source replica clears the targets in the table every replica reads.
  const StreamInfo& info = streams_[static_cast<std::size_t>(stream)];
  return domains_[static_cast<std::size_t>(info.src_domain)]
      ->net->cancel_unsent_chunks(stream);
}

void ShardedNetwork::close_stream(StreamId stream) {
  const StreamInfo& info = streams_[static_cast<std::size_t>(stream)];
  // Each replica reports its receivers' completeness to its telemetry from
  // the table first, so the table closes last.
  for (int d : info.footprint) {
    domains_[static_cast<std::size_t>(d)]->net->close_replica(stream);
  }
  info.chunks->close();
}

void ShardedNetwork::on_duplex_failed(LinkId l) {
  on_pair_ends(l, &Network::on_duplex_failed);
}

void ShardedNetwork::on_duplex_restored(LinkId l) {
  on_pair_ends(l, &Network::on_duplex_restored);
}

void ShardedNetwork::on_pair_ends(LinkId l, void (Network::*apply)(LinkId)) {
  // Only the domains of the pair's two ends hold its state: each direction's
  // serializer and queued segments live with its source, its fail epoch and
  // pause mirror with its destination. Each domain changes only its own
  // tables and mail, so the order of the two calls cannot change a result.
  const Link& lk = topo_->link(l);
  const int src = plan_->domain_of_node(lk.src);
  const int dst = plan_->domain_of_node(lk.dst);
  (domains_[static_cast<std::size_t>(src)]->net.get()->*apply)(l);
  if (dst != src) {
    (domains_[static_cast<std::size_t>(dst)]->net.get()->*apply)(l);
  }
}

bool ShardedNetwork::stream_uses_link(StreamId s, LinkId l) const {
  const StreamInfo& info = streams_[static_cast<std::size_t>(s)];
  // Any footprint replica holds the full forwarding table; the source
  // domain's is always real.
  return domains_[static_cast<std::size_t>(info.src_domain)]
      ->net->stream_uses_link(s, l);
}

StreamDiagnostic ShardedNetwork::stream_diagnostic(StreamId s) const {
  const StreamInfo& info = streams_[static_cast<std::size_t>(s)];
  StreamDiagnostic d = domains_[static_cast<std::size_t>(info.src_domain)]
                           ->net->stream_diagnostic(s);
  // Receiver progress is partitioned across the footprint (each replica
  // tracks only domain-owned receivers), and injector pending state is
  // partitioned across the injector domains (a multicast's one injector
  // lives at the source; other replicas report zeros).
  for (int fd : info.footprint) {
    if (fd == info.src_domain) continue;
    const StreamDiagnostic part =
        domains_[static_cast<std::size_t>(fd)]->net->stream_diagnostic(s);
    d.incomplete_deliveries += part.incomplete_deliveries;
    d.pending_chunks += part.pending_chunks;
    d.bytes_pending_injection += part.bytes_pending_injection;
    d.pump_blocked |= part.pump_blocked;
    d.pump_scheduled |= part.pump_scheduled;
  }
  return d;
}

Bytes ShardedNetwork::link_bytes(LinkId l) const {
  return domains_[static_cast<std::size_t>(plan_->domain_of_link(l))]
      ->net->link_bytes(l);
}

// ---------------------------------------------------------------------------
// Merged views

bool ShardedNetwork::empty() const {
  if (!control_.empty()) return false;
  for (const auto& dom : domains_) {
    if (!dom->queue.empty()) return false;
  }
  return true;
}

SimTime ShardedNetwork::now() const {
  SimTime t = control_.now();
  for (const auto& dom : domains_) t = std::max(t, dom->queue.now());
  return t;
}

std::uint64_t ShardedNetwork::events_processed() const {
  std::uint64_t n = control_.processed();
  for (const auto& dom : domains_) n += dom->queue.processed();
  return n;
}

std::uint64_t ShardedNetwork::segments_serialized() const {
  std::uint64_t n = 0;
  for (const auto& dom : domains_) n += dom->net->segments_serialized();
  return n;
}

std::uint64_t ShardedNetwork::segments_marked() const {
  std::uint64_t n = 0;
  for (const auto& dom : domains_) n += dom->net->segments_marked();
  return n;
}

std::uint64_t ShardedNetwork::pfc_pauses() const {
  // Counted at the pause decision site (the buffer-owning domain) only; the
  // owner-side frame handlers deliberately skip counters.
  std::uint64_t n = 0;
  for (const auto& dom : domains_) n += dom->net->pfc_pauses();
  return n;
}

std::uint64_t ShardedNetwork::segments_lost() const {
  std::uint64_t n = 0;
  for (const auto& dom : domains_) n += dom->net->segments_lost();
  return n;
}

Bytes ShardedNetwork::reduce_sram_peak() const {
  Bytes n = 0;
  for (const auto& dom : domains_) n += dom->net->reduce_sram_peak();
  return n;
}

Bytes ShardedNetwork::reduce_sram_peak_max_domain() const {
  Bytes peak = 0;
  for (const auto& dom : domains_) {
    peak = std::max(peak, dom->net->reduce_sram_peak());
  }
  return peak;
}

bool ShardedNetwork::telemetry_enabled() const {
  return domains_.front()->net->telemetry() != nullptr;
}

void ShardedNetwork::reserve_series(std::size_t expected_samples) {
  for (auto& dom : domains_) {
    if (Telemetry* t = dom->net->telemetry()) {
      t->reserve_series(expected_samples);
    }
  }
}

const Telemetry* ShardedNetwork::merged_telemetry() const {
  if (!telemetry_enabled()) return nullptr;
  merged_telem_ = std::make_unique<Telemetry>(config_.telemetry, *topo_);
  for (const auto& dom : domains_) {
    merged_telem_->merge_from(*dom->net->telemetry());
  }
  return merged_telem_.get();
}

}  // namespace peel
