#include "perfbench/traced.h"

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/collectives/runner.h"
#include "src/faults/injector.h"
#include "src/routing/topology_events.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"
#include "src/sim/sharded.h"

namespace perfbench {

using namespace peel;

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case kEngineBuild: return "engine.build";
    case kHarvest: return "engine.harvest";
    case kSched: return "sched";
    case kPump: return "net.pump";
    case kFinishTx: return "net.finish_tx";
    case kArrive: return "net.arrive";
    case kCnp: return "net.cnp";
    case kSample: return "net.sample";
    case kReduceEmit: return "net.reduce_emit";
    case kPfc: return "net.pfc";
    case kOpenStream: return "dp.open_stream";
    case kSendChunk: return "dp.send_chunk";
    case kCloseStream: return "dp.close_stream";
    case kCancel: return "dp.cancel";
    case kInject: return "faults.inject";
    case kDelivery: return "coll.delivery";
    case kSubmit: return "coll.submit";
    case kRecover: return "coll.recover";
    case kDeltaApply: return "faults.delta_apply";
    case kArrivals: return "workload.arrivals";
    case kPlacement: return "workload.placement";
    case kChurn: return "workload.churn";
    case kLayerCount: break;
  }
  return "?";
}

namespace {

Layer layer_of(SimEventKind kind) noexcept {
  switch (kind) {
    case SimEventKind::Pump: return kPump;
    case SimEventKind::FinishTx: return kFinishTx;
    case SimEventKind::Arrive: return kArrive;
    case SimEventKind::CnpRate: return kCnp;
    case SimEventKind::SampleTick: return kSample;
    case SimEventKind::PfcPause:
    case SimEventKind::PfcResume: return kPfc;
    case SimEventKind::ReduceEmit: return kReduceEmit;
    case SimEventKind::None: break;
  }
  return kSched;
}

/// Forwarding sink rebound onto the queue after the Network bound itself:
/// times Network::on_sim_event per SimEventKind.
class TimedSink final : public SimEventSink {
 public:
  TimedSink(Network& net, Tracer* tracer, EngineCounts& counts)
      : net_(net), tracer_(tracer), counts_(counts) {}

  void on_sim_event(const SimEvent& ev) override {
    const Layer layer = layer_of(ev.kind);
    ++counts_.sink_events[layer];
    Span span(tracer_, layer);
    net_.on_sim_event(ev);
  }

 private:
  Network& net_;
  Tracer* tracer_;
  EngineCounts& counts_;
};

/// DataPlane decorator handed to the CollectiveRunner and FaultInjector.
/// Also wraps the runner's delivery handler.
class TimedDataPlane final : public DataPlane {
 public:
  TimedDataPlane(DataPlane& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void set_delivery_handler(
      std::function<void(const DeliveryEvent&)> handler) override {
    if (!handler) {
      inner_.set_delivery_handler({});
      return;
    }
    inner_.set_delivery_handler(
        [tracer = tracer_, handler = std::move(handler)](
            const DeliveryEvent& ev) {
          Span span(tracer, kDelivery);
          handler(ev);
        });
  }
  StreamId open_stream(StreamSpec spec) override {
    Span span(tracer_, kOpenStream);
    return inner_.open_stream(std::move(spec));
  }
  void send_chunk(StreamId stream, int chunk_index, Bytes bytes) override {
    Span span(tracer_, kSendChunk);
    inner_.send_chunk(stream, chunk_index, bytes);
  }
  std::vector<int> cancel_unsent_chunks(StreamId stream) override {
    Span span(tracer_, kCancel);
    return inner_.cancel_unsent_chunks(stream);
  }
  void close_stream(StreamId stream) override {
    Span span(tracer_, kCloseStream);
    inner_.close_stream(stream);
  }
  void on_duplex_failed(LinkId l) override {
    Span span(tracer_, kInject);
    inner_.on_duplex_failed(l);
  }
  void on_duplex_restored(LinkId l) override {
    Span span(tracer_, kInject);
    inner_.on_duplex_restored(l);
  }
  [[nodiscard]] bool stream_uses_link(StreamId s, LinkId l) const override {
    return inner_.stream_uses_link(s, l);
  }
  [[nodiscard]] StreamDiagnostic stream_diagnostic(StreamId s) const override {
    return inner_.stream_diagnostic(s);
  }
  [[nodiscard]] Bytes link_bytes(LinkId l) const override {
    return inner_.link_bytes(l);
  }

 private:
  DataPlane& inner_;
  Tracer* tracer_;
};

/// TopologyObserver wrapper subscribed to the bus in the runner's place.
class TimedObserver final : public TopologyObserver {
 public:
  TimedObserver(CollectiveRunner& runner, Tracer* tracer, EngineCounts& counts)
      : runner_(runner), tracer_(tracer), counts_(counts) {}

  void on_topology_delta(const TopologyDelta& delta) override {
    ++counts_.deltas;
    Span span(tracer_, kDeltaApply);
    runner_.on_topology_delta(delta);
  }

 private:
  CollectiveRunner& runner_;
  Tracer* tracer_;
  EngineCounts& counts_;
};

}  // namespace

PassOutcome run_assembled(const Fabric& fabric0, const ScenarioConfig& config,
                          const ScenarioInputs& inputs, Tracer* tracer,
                          EngineCounts& counts) {
  Span build(tracer, kEngineBuild);
  // Faulted scenarios run on a private deep copy of the fabric, as
  // run_scenario does.
  std::optional<BuiltFabric> fabric_copy;
  Fabric fabric = fabric0;
  Topology* faulty_topo = nullptr;
  if (config.faults.any()) {
    fabric_copy.emplace(fabric0);
    fabric = fabric_copy->view();
    faulty_topo = &fabric_copy->topo();
  }
  SimConfig sim = config.sim;
  if (config.byte_audit) sim.telemetry.enabled = true;

  std::unique_ptr<EventQueue> solo_queue;
  std::unique_ptr<Network> solo_net;
  std::unique_ptr<ShardedNetwork> sharded;
  if (config.shards > 0) {
    sharded = std::make_unique<ShardedNetwork>(fabric.topo(), sim,
                                               config.shards);
  } else {
    solo_queue = std::make_unique<EventQueue>();
    solo_net = std::make_unique<Network>(fabric.topo(), sim, *solo_queue);
  }
  counts.sharded = sharded != nullptr;
  EventQueue& queue = sharded ? sharded->control() : *solo_queue;
  DataPlane& raw = sharded ? static_cast<DataPlane&>(*sharded) : *solo_net;
  std::optional<TimedSink> sink;
  if (solo_net) {
    sink.emplace(*solo_net, tracer, counts);
    solo_queue->bind_sink(&*sink);
  }
  TimedDataPlane data(raw, tracer);

  const Rng rng(config.seed);
  CollectiveRunner runner(fabric, data, queue, rng.fork(0xc0'11ec),
                          config.runner);

  TopologyEventBus bus;
  TimedObserver observer(runner, tracer, counts);
  std::optional<FaultInjector> injector;
  std::size_t recovered = 0;
  if (faulty_topo != nullptr) {
    bus.subscribe(&observer);
    injector.emplace(*faulty_topo, data, queue, &bus);
    const SimTime detect = seconds_to_sim(config.faults.detection_delay_seconds);
    injector->set_handler([&, detect](const AppliedFault&) {
      if (!config.faults.auto_recover) return;
      queue.after(detect, [&] {
        ++counts.recover_passes;
        Span span(tracer, kRecover);
        recovered += runner.recover_all();
      });
    });
    injector->arm(inputs.faults);
  }

  for (int i = 0; i < config.collectives; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const GroupSelection& group = inputs.groups[idx];
    const auto id = static_cast<std::uint64_t>(i) + 1;
    const Scheme scheme = config.scheme;
    if (config.collective == CollectiveKind::Broadcast) {
      BroadcastRequest req;
      req.id = id;
      req.source = group.source;
      req.destinations = group.destinations;
      req.message_bytes = config.message_bytes;
      queue.at(inputs.arrivals[idx], [&runner, tracer, req, scheme]() mutable {
        Span span(tracer, kSubmit);
        runner.submit(scheme, std::move(req));
      });
    } else {
      std::vector<NodeId> members = group.destinations;
      members.push_back(group.source);
      if (config.collective == CollectiveKind::AllGather) {
        AllGatherRequest req;
        req.id = id;
        req.members = std::move(members);
        req.total_bytes = config.message_bytes;
        queue.at(inputs.arrivals[idx],
                 [&runner, tracer, req, scheme]() mutable {
                   Span span(tracer, kSubmit);
                   runner.submit_allgather(scheme, std::move(req));
                 });
      } else {
        AllReduceRequest req;
        req.id = id;
        req.members = std::move(members);
        req.buffer_bytes = config.message_bytes;
        queue.at(inputs.arrivals[idx],
                 [&runner, tracer, req, scheme]() mutable {
                   Span span(tracer, kSubmit);
                   runner.submit_allreduce(scheme, std::move(req));
                 });
      }
    }
  }
  build.close();

  {
    Span span(tracer, kSched);
    if (sharded) {
      sharded->run();
    } else {
      solo_queue->run();
    }
  }

  Span harvest(tracer, kHarvest);
  Samples cct;
  for (const CollectiveRecord& record : runner.records()) {
    if (record.finished) cct.add(record.cct_seconds());
  }
  PassOutcome o;
  o.attempted = static_cast<std::size_t>(config.collectives);
  o.finished = cct.count();
  o.cct_mean_s = cct.empty() ? 0.0 : cct.mean();
  o.fabric_bytes = bytes_on_links(raw, fabric.topo(), true, true, false);
  o.core_bytes = bytes_on_links(raw, fabric.topo(), true, false, false);
  if (sharded) {
    o.events = sharded->events_processed();
    o.segments = sharded->segments_serialized();
    o.segments_lost = sharded->segments_lost();
    o.ecn_marks = sharded->segments_marked();
    o.pfc_pauses = sharded->pfc_pauses();
    counts.windows_inline += sharded->windows_inline();
    counts.windows_parallel += sharded->windows_parallel();
  } else {
    o.events = solo_queue->processed();
    o.segments = solo_net->segments_serialized();
    o.segments_lost = solo_net->segments_lost();
    o.ecn_marks = solo_net->segments_marked();
    o.pfc_pauses = solo_net->pfc_pauses();
    solo_queue->bind_sink(solo_net.get());
  }
  o.plan_cache = runner.plan_cache().stats();
  if (injector) {
    o.fault_downs = injector->pairs_failed();
    o.fault_ups = injector->pairs_restored();
    o.recovered_deliveries = recovered;
  }
  return o;
}

}  // namespace perfbench
