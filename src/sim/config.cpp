#include "src/sim/config.h"

#include <stdexcept>
#include <string>

namespace peel {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument("SimConfig: " + what);
}

}  // namespace

void SimConfig::validate() const {
  if (segment_bytes <= 0) {
    reject("segment_bytes must be positive (got " +
           std::to_string(segment_bytes) + ")");
  }
  if (switch_buffer_bytes <= 0) {
    reject("switch_buffer_bytes must be positive (got " +
           std::to_string(switch_buffer_bytes) + ")");
  }
  if (ecn_kmin < 0) {
    reject("ecn_kmin must be non-negative (got " + std::to_string(ecn_kmin) +
           ")");
  }
  if (ecn_kmax < ecn_kmin) {
    // kmax == kmin is the degenerate-but-meaningful "step ECN" band: mark
    // with probability 1 at the threshold, never below it.
    reject("ecn_kmax (" + std::to_string(ecn_kmax) +
           ") must be >= ecn_kmin (" + std::to_string(ecn_kmin) + ")");
  }
  if (ecn_pmax < 0.0 || ecn_pmax > 1.0) {
    reject("ecn_pmax must be a probability in [0, 1] (got " +
           std::to_string(ecn_pmax) + ")");
  }
  if (pfc_pause_free_fraction < 0.0 || pfc_pause_free_fraction > 1.0) {
    reject("pfc_pause_free_fraction must be in [0, 1] (got " +
           std::to_string(pfc_pause_free_fraction) + ")");
  }
  if (pfc_hysteresis < 0) {
    reject("pfc_hysteresis must be non-negative (got " +
           std::to_string(pfc_hysteresis) + ")");
  }
  if (cnp_delay < 0 || receiver_cnp_interval < 0 || sender_guard_interval < 0) {
    reject("CNP delays/intervals must be non-negative");
  }
  // DCQCN: a non-positive timer would spin Dcqcn::advance forever, and a
  // zero rate floor would let pump divide by a zero rate.
  if (dcqcn.alpha_timer <= 0 || dcqcn.increase_timer <= 0) {
    reject("dcqcn.alpha_timer and dcqcn.increase_timer must be positive (got " +
           std::to_string(dcqcn.alpha_timer) + ", " +
           std::to_string(dcqcn.increase_timer) + ")");
  }
  if (!(dcqcn.g >= 0.0 && dcqcn.g <= 1.0)) {
    reject("dcqcn.g must be in [0, 1] (got " + std::to_string(dcqcn.g) + ")");
  }
  if (!(dcqcn.min_rate_fraction > 0.0 && dcqcn.min_rate_fraction <= 1.0)) {
    reject("dcqcn.min_rate_fraction must be in (0, 1] (got " +
           std::to_string(dcqcn.min_rate_fraction) + ")");
  }
  if (!(dcqcn.additive_increase_fraction >= 0.0)) {
    reject("dcqcn.additive_increase_fraction must be non-negative (got " +
           std::to_string(dcqcn.additive_increase_fraction) + ")");
  }
  if (reduce_combine_latency < 0) {
    reject("reduce_combine_latency must be non-negative (got " +
           std::to_string(reduce_combine_latency) + ")");
  }
  if (telemetry.sample_interval < 0) {
    reject("telemetry.sample_interval must be non-negative (got " +
           std::to_string(telemetry.sample_interval) + ")");
  }
  for (const double u :
       {flow.guard_utilization, flow.receiver_timer_unicast_utilization,
        flow.receiver_timer_multicast_utilization,
        flow.unthrottled_utilization}) {
    if (u <= 0.0 || u > 1.0) {
      reject("flow-model utilization caps must be in (0, 1] (got " +
             std::to_string(u) + ")");
    }
  }
}

}  // namespace peel
