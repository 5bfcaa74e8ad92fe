// Simulation parameters. Defaults follow the paper's §4 "Congestion control"
// setup: 12 MB switch buffers, ECN marking between 5 kB and 200 kB with 1%
// maximum probability, PFC Stop at 11% free buffer with a 5-MTU hysteresis,
// and DCQCN-style rate control with PEEL's 50 µs sender-side guard timer.
#pragma once

#include <cstdint>

#include "src/common/units.h"

namespace peel {

/// Opt-in observability for the data plane (src/sim/telemetry.h). Disabled
/// by default: the hooks are passive (never draw randomness or schedule
/// behavior-changing events), so enabling them does not perturb results,
/// but the per-link accounting costs memory and a little time.
struct TelemetryConfig {
  bool enabled = false;
  /// Fixed-interval time-series sampling of fabric queue state (0 = off).
  /// The sampler stops once the event queue has no other work, so it never
  /// keeps a finished simulation alive.
  SimTime sample_interval = 0;
  /// Record PFC pause spans and CNP emissions for the Chrome-trace exporter
  /// (src/sim/trace.h). Off by default: traces grow with congestion events.
  bool record_trace = false;
};

struct DcqcnParams {
  /// Alpha EWMA gain. The canonical 1/256 assumes per-MTU CNPs; our
  /// serialization unit is a (much larger) segment, so the gain is scaled up
  /// to keep the per-byte reaction strength comparable.
  double g = 1.0 / 16.0;
  SimTime alpha_timer = 55 * kMicrosecond;    ///< alpha decay period
  SimTime increase_timer = 55 * kMicrosecond; ///< rate recovery period
  int fast_recovery_stages = 5;               ///< hyper-increase after F stages
  double additive_increase_fraction = 0.005;  ///< Rai as a fraction of line rate
  double min_rate_fraction = 0.01;            ///< rate floor
};

/// How a stream's source reacts to congestion notifications (§4).
enum class CnpMode : std::uint8_t {
  /// Classic DCQCN: each receiver rate-limits its own CNPs to one per 50 µs;
  /// the sender reacts to every CNP it gets. Fine for unicast, but a
  /// multicast sender hears every receiver's timer — CNPs multiply.
  ReceiverTimer,
  /// PEEL's replacement: receivers signal freely, the sender reacts at most
  /// once per guard interval.
  SenderGuard,
  /// Ablation: no coalescing anywhere; sender reacts to every CNP.
  Unthrottled,
};

/// Knobs of the flow-level (fluid) fidelity mode (src/sim/flow_network.h).
/// Streams are single-rate max-min fair flows; DCQCN/ECN/PFC dynamics are
/// folded into per-mode utilization caps applied when a flow shares a
/// bottleneck link. The defaults are fitted from cnp_dynamics.csv — the
/// steady-state (> 2 ms) per-flow goodput of two contending broadcasts on a
/// 100 Gbps fabric, as a fraction of the 50 Gbps fair share:
///   sender guard 50 µs : 42.6 / 50 ≈ 0.85
///   receiver timers    : 25.7 / 50 ≈ 0.51 (multicast CNP fan-in)
///   unthrottled        : 25.9 / 50 ≈ 0.52
/// Uncontended flows run at their max-min rate unscaled (DCQCN only backs
/// off on marks, and an unshared path does not mark).
struct FlowModelConfig {
  double guard_utilization = 0.85;
  /// ReceiverTimer with a single receiver (unicast — Ring hops, Orca
  /// relays): one receiver's 50 µs CNP timer is the classic DCQCN setup,
  /// which tracks its fair share about as well as the sender guard.
  double receiver_timer_unicast_utilization = 0.85;
  /// ReceiverTimer with multiple receivers: every receiver's timer fires
  /// independently, so the sender hears a multiplied CNP stream (the §4
  /// pathology the guard timer exists to fix).
  double receiver_timer_multicast_utilization = 0.51;
  double unthrottled_utilization = 0.52;
};

struct SimConfig {
  /// Serialization/queueing granularity. Smaller = higher fidelity, more
  /// events; 64 KiB keeps ECN behaviour meaningful against the 5–200 kB
  /// marking band.
  Bytes segment_bytes = 64 * kKiB;

  /// Shared buffer per switch (paper: 12 MB).
  Bytes switch_buffer_bytes = 12 * kMiB;

  // ECN / RED marking at egress enqueue (paper: 5 kB .. 200 kB, 1%).
  Bytes ecn_kmin = 5 * 1000;
  Bytes ecn_kmax = 200 * 1000;
  double ecn_pmax = 0.01;

  // PFC: pause upstream when free shared buffer < 11%, resume with a 5-MTU
  // hysteresis (MTU taken as 4096 B RoCE).
  double pfc_pause_free_fraction = 0.11;
  Bytes pfc_hysteresis = 5 * 4096;

  /// One-way latency of a CNP control message back to the sender.
  SimTime cnp_delay = 5 * kMicrosecond;
  /// Receiver-side minimum CNP spacing (CnpMode::ReceiverTimer).
  SimTime receiver_cnp_interval = 50 * kMicrosecond;
  /// PEEL's sender-side guard timer (CnpMode::SenderGuard).
  SimTime sender_guard_interval = 50 * kMicrosecond;

  DcqcnParams dcqcn;

  /// In-network reduction: delay between the moment a combiner has every
  /// expected child's next bytes of a chunk and the combined segment entering
  /// the upstream egress queue (switch ALU + SRAM read-out; SHArP-class
  /// hardware quotes sub-microsecond combine stages).
  SimTime reduce_combine_latency = 200;  // ns

  /// Disables rate control entirely (links still serialize FIFO). In the
  /// flow-level fidelity it disables the fitted utilization caps, so flows
  /// run at their unscaled max-min rates.
  bool congestion_control = true;

  /// Flow-level fidelity knobs (ignored by the packet-level engines).
  FlowModelConfig flow;

  TelemetryConfig telemetry;

  std::uint64_t seed = 1;

  /// Throws std::invalid_argument on configurations the data plane cannot
  /// execute meaningfully: non-positive segment or buffer sizes, an inverted
  /// ECN band (kmax < kmin; kmax == kmin is a legal step-ECN config),
  /// negative PFC hysteresis, out-of-range fractions, or DCQCN parameters
  /// the rate controller cannot run (a timer <= 0, g outside [0, 1], a rate
  /// floor outside (0, 1], a negative additive increase). Called by the
  /// Network constructor, so a bad config fails loudly at setup instead of
  /// misbehaving mid-run.
  void validate() const;
};

}  // namespace peel
