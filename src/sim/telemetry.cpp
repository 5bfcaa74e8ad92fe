#include "src/sim/telemetry.h"

#include <algorithm>
#include <cstdio>

namespace peel {

namespace {

std::string describe_stream(std::int32_t s, std::uint64_t tag) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "stream %d (collective %llu)", s,
                static_cast<unsigned long long>(tag));
  return buf;
}

}  // namespace

Telemetry::Telemetry(const TelemetryConfig& config, const Topology& topo)
    : config_(config),
      topo_(&topo),
      links_(topo.link_count()),
      nodes_(topo.node_count()) {}

Telemetry::StreamAccum& Telemetry::stream(std::int32_t s) {
  const auto idx = static_cast<std::size_t>(s);
  if (idx >= streams_.size()) streams_.resize(idx + 1);
  return streams_[idx];
}

void Telemetry::advance_depth(LinkAccum& a, Bytes new_depth, SimTime now) {
  a.depth_integral +=
      static_cast<double>(a.depth) * static_cast<double>(now - a.last_change);
  a.last_change = now;
  a.depth = new_depth;
  a.peak = std::max(a.peak, new_depth);
}

void Telemetry::on_stream_open(std::int32_t s, const StreamTree& tree,
                               std::span<const NodeId> receivers) {
  StreamAccum& st = stream(s);
  st.tag = tree.tag;
  for (const StreamTree::Injector& inj : tree.injectors) {
    st.accounts[{Account::Injector, inj.node}];
  }
  for (NodeId r : receivers) st.accounts[{Account::Receiver, r}];
}

void Telemetry::on_chunk_target(std::int32_t s, int chunk, Bytes bytes) {
  StreamAccum& st = stream(s);
  const auto c = static_cast<std::size_t>(chunk);
  if (st.target.size() <= c) st.target.resize(c + 1, 0);
  st.target[c] = bytes;
}

void Telemetry::on_contribute(std::int32_t s, NodeId node, int chunk,
                              Bytes bytes) {
  stream(s).credit({Account::Injector, node}, chunk, bytes);
}

void Telemetry::on_enqueue(LinkId l, std::int32_t s, Bytes bytes,
                           Bytes new_depth, SimTime now) {
  advance_depth(links_[static_cast<std::size_t>(l)], new_depth, now);
  stream(s).enqueued += bytes;
}

void Telemetry::on_ecn_mark(LinkId l) {
  ++links_[static_cast<std::size_t>(l)].ecn_marks;
}

void Telemetry::on_serialized(LinkId l, std::int32_t s, Bytes bytes,
                              Bytes new_depth, SimTime now) {
  LinkAccum& a = links_[static_cast<std::size_t>(l)];
  advance_depth(a, new_depth, now);
  a.bytes += bytes;
  ++a.segments;
  stream(s).serialized += bytes;
}

void Telemetry::on_queue_drop(LinkId l, std::int32_t s, Bytes bytes,
                              Bytes new_depth, SimTime now) {
  advance_depth(links_[static_cast<std::size_t>(l)], new_depth, now);
  stream(s).lost_queued += bytes;
}

void Telemetry::on_wire_drop(std::int32_t s, Bytes bytes) {
  stream(s).lost_wire += bytes;
}

void Telemetry::on_ingress_drop(std::int32_t s, Bytes bytes) {
  stream(s).lost_ingress += bytes;
}

void Telemetry::on_pause(LinkId l, SimTime now) {
  LinkAccum& a = links_[static_cast<std::size_t>(l)];
  ++a.pfc_pauses;
  if (a.pause_begin < 0) a.pause_begin = now;
}

void Telemetry::on_unpause(LinkId l, SimTime now) {
  LinkAccum& a = links_[static_cast<std::size_t>(l)];
  if (a.pause_begin < 0) return;
  a.pause_time += now - a.pause_begin;
  if (config_.record_trace) pauses_.push_back(PauseSpan{l, a.pause_begin, now});
  a.pause_begin = -1;
}

void Telemetry::on_node_buffer(NodeId n, Bytes depth) {
  NodeAccum& a = nodes_[static_cast<std::size_t>(n)];
  a.buffer_peak = std::max(a.buffer_peak, depth);
}

void Telemetry::on_cnp(std::int32_t s, NodeId receiver, SimTime now) {
  if (config_.record_trace) cnps_.push_back(CnpEvent{s, receiver, now});
}

void Telemetry::on_deliver(std::int32_t s, NodeId receiver, int chunk,
                           Bytes bytes) {
  stream(s).credit({Account::Receiver, receiver}, chunk, bytes);
}

void Telemetry::on_stream_close(std::int32_t s, bool complete) {
  if (!complete) stream(s).closed_incomplete = true;
}

void Telemetry::on_reduce_absorb(std::int32_t s, LinkId l, int chunk,
                                 Bytes bytes) {
  stream(s).credit({Account::ChildLink, l}, chunk, bytes);
}

void Telemetry::on_reduce_emit(std::int32_t s, NodeId node, int chunk,
                               Bytes bytes) {
  stream(s).credit({Account::Combiner, node}, chunk, bytes);
}

void Telemetry::sample(SimTime now) {
  QueueSample q;
  q.t = now;
  for (const LinkAccum& a : links_) {
    q.total_queued += a.depth;
    q.max_link_queued = std::max(q.max_link_queued, a.depth);
    if (a.depth > 0) ++q.queued_links;
    if (a.pause_begin >= 0) ++q.paused_links;
  }
  samples_.push_back(q);
}

const char* Telemetry::account_name(Account kind) {
  static constexpr const char* kNames[] = {"injector", "child link",
                                           "combiner", "receiver"};
  return kNames[static_cast<std::size_t>(kind)];
}

std::vector<std::string> Telemetry::over_delivery_violations() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const StreamAccum& st = streams_[i];
    // A receiver may hold no more of a chunk than its target and the least
    // any injector contributed of it (injector rows sort first).
    std::vector<Bytes> receiver_bound = st.target;
    for (const auto& [row, cells] : st.accounts) {
      if (row.first != Account::Injector) break;
      for (std::size_t c = 0; c < receiver_bound.size(); ++c) {
        receiver_bound[c] =
            std::min(receiver_bound[c], c < cells.size() ? cells[c] : 0);
      }
    }
    for (const auto& [row, cells] : st.accounts) {
      const std::vector<Bytes>& bound =
          row.first == Account::Receiver ? receiver_bound : st.target;
      for (std::size_t c = 0; c < cells.size(); ++c) {
        const Bytes most = c < bound.size() ? bound[c] : 0;
        if (cells[c] <= most) continue;
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "%s: %s %d accounts %lld bytes of chunk %d but may "
                      "hold at most %lld (duplicate replication)",
                      describe_stream(static_cast<std::int32_t>(i), st.tag)
                          .c_str(),
                      account_name(row.first), row.second,
                      static_cast<long long>(cells[c]), static_cast<int>(c),
                      static_cast<long long>(most));
        out.emplace_back(buf);
      }
    }
  }
  return out;
}

std::vector<std::string> Telemetry::conservation_violations() const {
  std::vector<std::string> out = over_delivery_violations();
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const StreamAccum& st = streams_[i];
    const auto id = static_cast<std::int32_t>(i);
    // Hop-by-hop replication: everything put on a link either crossed it or
    // was dropped from its queue by a failure. Anything else is a byte stuck
    // in (or vanished from) an egress queue.
    if (st.enqueued != st.serialized + st.lost_queued) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "%s: %lld bytes enqueued on links but %lld serialized + "
                    "%lld dropped — %lld bytes unaccounted in egress queues",
                    describe_stream(id, st.tag).c_str(),
                    static_cast<long long>(st.enqueued),
                    static_cast<long long>(st.serialized),
                    static_cast<long long>(st.lost_queued),
                    static_cast<long long>(st.enqueued - st.serialized -
                                           st.lost_queued));
      out.emplace_back(buf);
    }
    // Exactly once at drain: every account reaches the target of every
    // chunk. Two legitimate exemptions: streams that lost segments to
    // failures (recovery runs on new streams) and streams their owner
    // closed before completion (superseded — the collective finished
    // through another stream). Accounts past the target were reported
    // above; this reports the short ones.
    const bool lossy =
        st.lost_queued > 0 || st.lost_wire > 0 || st.lost_ingress > 0;
    if (lossy || st.closed_incomplete) continue;
    for (const auto& [row, cells] : st.accounts) {
      for (std::size_t c = 0; c < st.target.size(); ++c) {
        const Bytes want = st.target[c];
        const Bytes got = c < cells.size() ? cells[c] : 0;
        if (want <= 0 || got >= want) continue;
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "%s: %s %d accounts %lld of %lld target bytes of chunk "
                      "%d with no segment losses",
                      describe_stream(id, st.tag).c_str(),
                      account_name(row.first), row.second,
                      static_cast<long long>(got), static_cast<long long>(want),
                      static_cast<int>(c));
        out.emplace_back(buf);
      }
    }
  }
  return out;
}

void Telemetry::merge_from(const Telemetry& other) {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    LinkAccum& a = links_[i];
    const LinkAccum& b = other.links_[i];
    a.bytes += b.bytes;
    a.segments += b.segments;
    a.ecn_marks += b.ecn_marks;
    a.pfc_pauses += b.pfc_pauses;
    a.pause_time += b.pause_time;
    if (b.pause_begin >= 0) a.pause_begin = b.pause_begin;
    a.depth += b.depth;
    a.peak = std::max(a.peak, b.peak);
    a.depth_integral += b.depth_integral;
    a.last_change = std::max(a.last_change, b.last_change);
  }

  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].buffer_peak =
        std::max(nodes_[i].buffer_peak, other.nodes_[i].buffer_peak);
  }

  if (other.streams_.size() > streams_.size()) {
    streams_.resize(other.streams_.size());
  }
  for (std::size_t i = 0; i < other.streams_.size(); ++i) {
    StreamAccum& a = streams_[i];
    const StreamAccum& b = other.streams_[i];
    // A domain outside the stream's footprint holds a default-constructed
    // stub accum (no on_stream_open); any domain that saw the open agrees on
    // the tag, so max() just skips the zeroed stubs.
    a.tag = std::max(a.tag, b.tag);
    if (a.target.size() < b.target.size()) a.target.resize(b.target.size());
    for (std::size_t c = 0; c < b.target.size(); ++c) {
      // Every domain that recorded a target agrees on it.
      a.target[c] = std::max(a.target[c], b.target[c]);
    }
    for (const auto& [row, cells] : b.accounts) {
      std::vector<Bytes>& mine = a.accounts[row];
      if (mine.size() < cells.size()) mine.resize(cells.size(), 0);
      for (std::size_t c = 0; c < cells.size(); ++c) mine[c] += cells[c];
    }
    a.enqueued += b.enqueued;
    a.serialized += b.serialized;
    a.lost_queued += b.lost_queued;
    a.lost_wire += b.lost_wire;
    a.lost_ingress += b.lost_ingress;
    a.closed_incomplete = a.closed_incomplete || b.closed_incomplete;
  }

  // Samples: merge-join on timestamp. Each link's depth (and pause state) is
  // tracked in exactly one domain, so same-instant samples add fieldwise.
  std::vector<QueueSample> merged;
  merged.reserve(samples_.size() + other.samples_.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < samples_.size() || j < other.samples_.size()) {
    const bool take_mine =
        j == other.samples_.size() ||
        (i < samples_.size() && samples_[i].t < other.samples_[j].t);
    const bool take_theirs =
        !take_mine &&
        (i == samples_.size() || other.samples_[j].t < samples_[i].t);
    if (take_mine) {
      merged.push_back(samples_[i++]);
    } else if (take_theirs) {
      merged.push_back(other.samples_[j++]);
    } else {
      QueueSample s = samples_[i++];
      const QueueSample& o = other.samples_[j++];
      s.total_queued += o.total_queued;
      s.max_link_queued = std::max(s.max_link_queued, o.max_link_queued);
      s.queued_links += o.queued_links;
      s.paused_links += o.paused_links;
      merged.push_back(s);
    }
  }
  samples_ = std::move(merged);

  pauses_.insert(pauses_.end(), other.pauses_.begin(), other.pauses_.end());
  cnps_.insert(cnps_.end(), other.cnps_.begin(), other.cnps_.end());
}

TelemetrySummary Telemetry::summary(SimTime now) const {
  TelemetrySummary s;
  s.duration = now;
  s.links.reserve(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const LinkAccum& a = links_[i];
    const Link& lk = topo_->link(static_cast<LinkId>(i));
    LinkTelemetry t;
    t.link = static_cast<LinkId>(i);
    t.src = lk.src;
    t.dst = lk.dst;
    t.kind = lk.kind;
    t.bytes = a.bytes;
    t.segments = a.segments;
    t.ecn_marks = a.ecn_marks;
    t.pfc_pauses = a.pfc_pauses;
    t.pfc_pause_time =
        a.pause_time + (a.pause_begin >= 0 ? now - a.pause_begin : 0);
    t.queue_peak = a.peak;
    const double closing =
        static_cast<double>(a.depth) * static_cast<double>(now - a.last_change);
    t.mean_queue_bytes =
        now > 0 ? (a.depth_integral + closing) / static_cast<double>(now) : 0.0;
    s.links.push_back(t);
  }

  for (NodeId n = 0; static_cast<std::size_t>(n) < topo_->node_count(); ++n) {
    if (!is_switch(topo_->kind(n))) continue;
    SwitchTelemetry t;
    t.node = n;
    t.kind = topo_->kind(n);
    t.buffer_peak = nodes_[static_cast<std::size_t>(n)].buffer_peak;
    for (LinkId l : topo_->out_links(n)) {
      const LinkTelemetry& lt = s.links[static_cast<std::size_t>(l)];
      t.forwarded_bytes += lt.bytes;
      t.forwarded_segments += lt.segments;
      t.ecn_marks += lt.ecn_marks;
      t.pfc_pauses += lt.pfc_pauses;
      t.pfc_pause_time += lt.pfc_pause_time;
    }
    s.switches.push_back(t);
  }

  s.samples = samples_;
  s.pauses = pauses_;
  // Close out still-open pause intervals so the trace shows them.
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (links_[i].pause_begin >= 0 && config_.record_trace) {
      s.pauses.push_back(
          PauseSpan{static_cast<LinkId>(i), links_[i].pause_begin, now});
    }
  }
  s.cnps = cnps_;
  return s;
}

}  // namespace peel
