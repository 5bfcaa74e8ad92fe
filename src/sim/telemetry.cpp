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
  st.receivers.assign(receivers.begin(), receivers.end());
  if (!tree.reduce()) return;
  st.reduce = true;
  for (const StreamTree::Injector& inj : tree.injectors) {
    st.contributors.push_back(inj.node);
  }
}

void Telemetry::on_inject(std::int32_t s, int chunk, Bytes bytes) {
  stream(s).injected[chunk] += bytes;
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
  stream(s).delivered[receiver][chunk] += bytes;
}

void Telemetry::on_stream_close(std::int32_t s, bool complete) {
  if (!complete) stream(s).closed_incomplete = true;
}

void Telemetry::on_reduce_target(std::int32_t s, int chunk, Bytes bytes) {
  StreamAccum& st = stream(s);
  st.reduce = true;  // note_chunk replicas may never see on_stream_open
  st.reduce_target[chunk] = bytes;
}

void Telemetry::on_reduce_contribute(std::int32_t s, NodeId contributor,
                                     int chunk, Bytes bytes) {
  stream(s).contributed[contributor][chunk] += bytes;
}

void Telemetry::on_reduce_absorb(std::int32_t s, LinkId l, int chunk,
                                 Bytes bytes) {
  stream(s).absorbed[l][chunk] += bytes;
}

void Telemetry::on_reduce_emit(std::int32_t s, NodeId node, int chunk,
                               Bytes bytes) {
  stream(s).emitted[node][chunk] += bytes;
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

namespace {

/// Anytime reduction-ledger checks: any account credited past the per-rank
/// target is a double-count (a rank contributing twice, a combiner absorbing
/// a duplicate child segment, or duplicate combined forwards).
void reduce_over_violations(std::int32_t id, std::uint64_t tag,
                            const std::unordered_map<int, Bytes>& target,
                            const char* what, NodeId where,
                            const std::unordered_map<int, Bytes>& account,
                            std::vector<std::string>& out) {
  for (const auto& [chunk, got] : account) {
    const auto t = target.find(chunk);
    const Bytes want = t == target.end() ? 0 : t->second;
    if (got <= want) continue;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s: %s %d accounts %lld bytes of chunk %d against a "
                  "per-rank target of %lld (reduction double-count)",
                  describe_stream(id, tag).c_str(), what, where,
                  static_cast<long long>(got), chunk,
                  static_cast<long long>(want));
    out.emplace_back(buf);
  }
}

}  // namespace

std::vector<std::string> Telemetry::over_delivery_violations() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const StreamAccum& st = streams_[i];
    const auto id = static_cast<std::int32_t>(i);
    if (st.reduce) {
      // Combining legitimately collapses k child segments into one, so the
      // injected-vs-delivered identity is replaced by the ledger: nothing —
      // contribution, absorption, combined forward, or a member's delivery
      // credit from the down multicast — may exceed the per-rank target.
      for (const auto& [node, chunks] : st.contributed) {
        reduce_over_violations(id, st.tag, st.reduce_target, "contributor",
                               node, chunks, out);
      }
      for (const auto& [link, chunks] : st.absorbed) {
        reduce_over_violations(id, st.tag, st.reduce_target, "child link",
                               static_cast<NodeId>(link), chunks, out);
      }
      for (const auto& [node, chunks] : st.emitted) {
        reduce_over_violations(id, st.tag, st.reduce_target, "combiner", node,
                               chunks, out);
      }
      for (const auto& [receiver, chunks] : st.delivered) {
        reduce_over_violations(id, st.tag, st.reduce_target, "receiver",
                               receiver, chunks, out);
      }
      continue;
    }
    for (const auto& [receiver, chunks] : st.delivered) {
      for (const auto& [chunk, got] : chunks) {
        const auto want = st.injected.find(chunk);
        const Bytes injected = want == st.injected.end() ? 0 : want->second;
        if (got > injected) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "%s: receiver %d got %lld bytes of chunk %d but only "
                        "%lld were injected (duplicate replication)",
                        describe_stream(static_cast<std::int32_t>(i), st.tag)
                            .c_str(),
                        receiver, static_cast<long long>(got), chunk,
                        static_cast<long long>(injected));
          out.emplace_back(buf);
        }
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
    // Exact delivery to the destination set. Two legitimate exemptions:
    // streams that lost segments to failures (recovery runs on new streams)
    // and streams their owner closed before completion (superseded — the
    // collective finished through another stream). Everything else must hit
    // the target exactly.
    const bool lossy =
        st.lost_queued > 0 || st.lost_wire > 0 || st.lost_ingress > 0;
    if (lossy || st.closed_incomplete) continue;
    if (st.reduce) {
      // Exactly-once at drain: every contributor injected its full share of
      // every chunk once, every observed ledger account (child absorption,
      // combined forward, member delivery credit) landed exactly on the
      // per-rank target. Under-absorption anywhere starves the pivot's down
      // multicast, so it shows up at every receiver, each of which is
      // checked against every target chunk.
      const auto expect = [&](const char* what, NodeId where, int chunk,
                              Bytes got, Bytes want) {
        if (got == want) return;
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "%s: %s %d accounts %lld of %lld target bytes of chunk "
                      "%d with no segment losses (reduction ledger)",
                      describe_stream(id, st.tag).c_str(), what, where,
                      static_cast<long long>(got), static_cast<long long>(want),
                      chunk);
        out.emplace_back(buf);
      };
      for (const auto& [chunk, want] : st.reduce_target) {
        if (want <= 0) continue;
        for (NodeId c : st.contributors) {
          Bytes got = 0;
          const auto rows = st.contributed.find(c);
          if (rows != st.contributed.end()) {
            const auto cell = rows->second.find(chunk);
            if (cell != rows->second.end()) got = cell->second;
          }
          expect("contributor", c, chunk, got, want);
        }
        for (NodeId r : st.receivers) {
          Bytes got = 0;
          const auto rows = st.delivered.find(r);
          if (rows != st.delivered.end()) {
            const auto cell = rows->second.find(chunk);
            if (cell != rows->second.end()) got = cell->second;
          }
          expect("receiver", r, chunk, got, want);
        }
      }
      for (const auto& [link, chunks] : st.absorbed) {
        for (const auto& [chunk, got] : chunks) {
          const auto t = st.reduce_target.find(chunk);
          expect("child link", static_cast<NodeId>(link), chunk, got,
                 t == st.reduce_target.end() ? 0 : t->second);
        }
      }
      for (const auto& [node, chunks] : st.emitted) {
        for (const auto& [chunk, got] : chunks) {
          const auto t = st.reduce_target.find(chunk);
          expect("combiner", node, chunk, got,
                 t == st.reduce_target.end() ? 0 : t->second);
        }
      }
      continue;
    }
    for (NodeId receiver : st.receivers) {
      const auto got_it = st.delivered.find(receiver);
      for (const auto& [chunk, injected] : st.injected) {
        Bytes got = 0;
        if (got_it != st.delivered.end()) {
          const auto c = got_it->second.find(chunk);
          if (c != got_it->second.end()) got = c->second;
        }
        if (got < injected) {
          char buf[180];
          std::snprintf(buf, sizeof buf,
                        "%s: receiver %d got %lld of %lld injected bytes of "
                        "chunk %d with no segment losses",
                        describe_stream(id, st.tag).c_str(), receiver,
                        static_cast<long long>(got),
                        static_cast<long long>(injected), chunk);
          out.emplace_back(buf);
        }
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
    a.receivers.insert(a.receivers.end(), b.receivers.begin(),
                       b.receivers.end());
    for (const auto& [chunk, bytes] : b.injected) a.injected[chunk] += bytes;
    for (const auto& [receiver, chunks] : b.delivered) {
      auto& mine = a.delivered[receiver];
      for (const auto& [chunk, bytes] : chunks) mine[chunk] += bytes;
    }
    a.enqueued += b.enqueued;
    a.serialized += b.serialized;
    a.lost_queued += b.lost_queued;
    a.lost_wire += b.lost_wire;
    a.lost_ingress += b.lost_ingress;
    a.closed_incomplete = a.closed_incomplete || b.closed_incomplete;
    // Reduction ledger: structure fields (contributor set, per-chunk target)
    // are identical in every domain that recorded them; accounts sum because
    // each (contributor / child link / combiner / root) has exactly one
    // writing domain.
    a.reduce = a.reduce || b.reduce;
    if (a.contributors.empty()) a.contributors = b.contributors;
    for (const auto& [chunk, bytes] : b.reduce_target) {
      a.reduce_target[chunk] = std::max(a.reduce_target[chunk], bytes);
    }
    for (const auto& [node, chunks] : b.contributed) {
      auto& mine = a.contributed[node];
      for (const auto& [chunk, bytes] : chunks) mine[chunk] += bytes;
    }
    for (const auto& [link, chunks] : b.absorbed) {
      auto& mine = a.absorbed[link];
      for (const auto& [chunk, bytes] : chunks) mine[chunk] += bytes;
    }
    for (const auto& [node, chunks] : b.emitted) {
      auto& mine = a.emitted[node];
      for (const auto& [chunk, bytes] : chunks) mine[chunk] += bytes;
    }
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
