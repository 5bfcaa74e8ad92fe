#include "src/harness/engine.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace peel::detail {

namespace {

/// Builds the summary for result consumers, attaching flow lifetimes from
/// collective records (the Network cannot know them).
std::shared_ptr<const TelemetrySummary> make_summary(
    const Telemetry& telem, const CollectiveRunner& runner, SimTime now) {
  auto summary = std::make_shared<TelemetrySummary>(telem.summary(now));
  summary->flows.reserve(runner.records().size());
  for (const CollectiveRecord& record : runner.records()) {
    FlowSpan f;
    f.id = record.id;
    f.name =
        std::string(to_string(record.scheme)) + " #" + std::to_string(record.id);
    f.begin = record.submit_time;
    f.end = record.finished ? record.finish_time : now;
    f.finished = record.finished;
    summary->flows.push_back(std::move(f));
  }
  return summary;
}

/// Counters of any of the three networks; `events` and the max-domain gauge
/// are the ones whose source differs between them.
template <typename Net>
EngineStats stats_of(const Net& net, std::uint64_t events,
                     Bytes reduce_sram_peak_max_domain) {
  return {.events = events,
          .segments = net.segments_serialized(),
          .segments_lost = net.segments_lost(),
          .pfc_pauses = net.pfc_pauses(),
          .ecn_marks = net.segments_marked(),
          .reduce_sram_peak = net.reduce_sram_peak(),
          .reduce_sram_peak_max_domain = reduce_sram_peak_max_domain};
}

}  // namespace

EngineStats Engine::stats() const {
  if (sharded_) {
    return stats_of(*sharded_, sharded_->events_processed(),
                    sharded_->reduce_sram_peak_max_domain());
  }
  if (packet_) {
    return stats_of(*packet_, queue_.processed(), packet_->reduce_sram_peak());
  }
  return stats_of(*flow_, queue_.processed(), flow_->reduce_sram_peak());
}

void Engine::reserve_series(std::size_t expected) {
  if (sharded_) {
    if (sharded_->telemetry_enabled()) sharded_->reserve_series(expected);
    return;
  }
  Telemetry* telem = packet_ ? packet_->telemetry() : flow_->telemetry();
  if (telem != nullptr) telem->reserve_series(expected);
}

const Telemetry* Engine::finished_telemetry() const {
  if (packet_) return packet_->telemetry();
  if (flow_) return flow_->telemetry();
  return sharded_->merged_telemetry();
}

std::unique_ptr<Engine> make_engine(const Topology& topo, SimConfig sim,
                                    Fidelity fidelity, int shards,
                                    bool byte_audit) {
  if (fidelity == Fidelity::Flow && shards > 0) {
    throw std::invalid_argument(
        "fidelity=flow runs on a single event queue; it does not combine "
        "with shards=" +
        std::to_string(shards) + " (use shards=0)");
  }
  if (byte_audit) sim.telemetry.enabled = true;  // audit needs accounting
  std::unique_ptr<Engine> engine(new Engine);
  if (fidelity == Fidelity::Flow) {
    engine->data_ = &engine->flow_.emplace(topo, sim, engine->queue_);
  } else if (shards > 0) {
    engine->data_ = &engine->sharded_.emplace(topo, sim, shards);
  } else {
    engine->data_ = &engine->packet_.emplace(topo, sim, engine->queue_);
  }
  return engine;
}

void submit_collective(CollectiveRunner& runner, CollectiveKind kind,
                       Scheme scheme, std::uint64_t id, std::uint64_t job,
                       NodeId source, std::vector<NodeId> dests, Bytes bytes) {
  if (kind == CollectiveKind::Broadcast) {
    runner.submit(scheme, {.id = id,
                           .source = source,
                           .destinations = std::move(dests),
                           .message_bytes = bytes,
                           .job = job});
    return;
  }
  std::vector<NodeId> members = std::move(dests);
  members.push_back(source);
  if (kind == CollectiveKind::AllGather) {
    runner.submit_allgather(scheme, {.id = id,
                                     .members = std::move(members),
                                     .total_bytes = bytes,
                                     .job = job});
  } else {
    runner.submit_allreduce(scheme, {.id = id,
                                     .members = std::move(members),
                                     .buffer_bytes = bytes,
                                     .job = job});
  }
}

ScenarioResult run_and_harvest(Engine& engine, const CollectiveRunner& runner,
                               const Topology& topo, const RunChecks& checks) {
  if (checks.deadline_seconds > 0.0) {
    engine.run_until(seconds_to_sim(checks.deadline_seconds));
  } else {
    engine.run();
  }

  if (checks.watchdog) {
    enforce_all_finished(runner, engine.empty()
                                     ? "event queue drained"
                                     : "deadline " +
                                           std::to_string(
                                               checks.deadline_seconds) +
                                           " s exceeded");
  }

  ScenarioResult result;
  result.cct_seconds.reserve(runner.records().size());
  for (const CollectiveRecord& record : runner.records()) {
    if (!record.finished) {
      ++result.unfinished;
      continue;
    }
    result.cct_seconds.add(record.cct_seconds());
  }

  if (const Telemetry* telem = engine.finished_telemetry()) {
    if (checks.byte_audit) {
      // The full conservation check only holds once everything drained and
      // finished; a deadline-truncated or unfinished run still must never
      // over-deliver (a byte credited twice is a bug at any point).
      const bool clean = result.unfinished == 0 && engine.empty();
      const std::vector<std::string> violations =
          clean ? telem->conservation_violations()
                : telem->over_delivery_violations();
      if (!violations.empty()) {
        std::string msg = "byte-conservation audit failed (";
        msg += clean ? checks.drain_context : checks.partial_context;
        msg += "):";
        for (const std::string& v : violations) msg += "\n  " + v;
        throw std::runtime_error(msg);
      }
    }
    result.telemetry = make_summary(*telem, runner, engine.now());
  }

  result.fabric_bytes = bytes_on_links(engine.data(), topo, true, true, false);
  result.core_bytes = bytes_on_links(engine.data(), topo, true, false, false);
  result.sim_seconds = sim_to_seconds(engine.now());
  const EngineStats stats = engine.stats();
  result.events = stats.events;
  result.segments = stats.segments;
  result.segments_lost = stats.segments_lost;
  result.pfc_pauses = stats.pfc_pauses;
  result.ecn_marks = stats.ecn_marks;
  result.reduce_sram_peak = stats.reduce_sram_peak;
  result.reduce_sram_peak_max_domain = stats.reduce_sram_peak_max_domain;
  result.plan_cache = runner.plan_cache().stats();
  const DeltaApplyStats& deltas = runner.delta_stats();
  result.delta_applies = deltas.deltas;
  result.delta_apply_total_us = deltas.total_us;
  result.delta_apply_max_us = deltas.max_us;
  result.delta_plans_repaired = deltas.plans_repaired;
  result.delta_plans_evicted = deltas.plans_evicted;
  return result;
}

}  // namespace peel::detail
