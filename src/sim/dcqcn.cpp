#include "src/sim/dcqcn.h"

#include <algorithm>

namespace peel {

Dcqcn::Dcqcn(const DcqcnParams& params, double line_rate_bytes_per_ns, CnpMode mode,
             SimTime guard_interval)
    : p_(params),
      line_rate_(line_rate_bytes_per_ns),
      mode_(mode),
      guard_(guard_interval),
      rc_(line_rate_bytes_per_ns),
      rt_(line_rate_bytes_per_ns),
      alpha_(1.0) {}

void Dcqcn::advance(SimTime now) {
  if (now <= clock_) return;
  const SimTime elapsed = now - clock_;
  clock_ = now;

  // Alpha decays once per alpha_timer without a reaction.
  alpha_credit_ += elapsed;
  while (alpha_credit_ >= p_.alpha_timer) {
    alpha_credit_ -= p_.alpha_timer;
    alpha_ *= (1.0 - p_.g);
  }

  // Rate recovery: fast recovery halves the gap to Rt; afterwards Rt itself
  // climbs additively (hyper/active increase collapsed into one stage).
  increase_credit_ += elapsed;
  while (increase_credit_ >= p_.increase_timer) {
    increase_credit_ -= p_.increase_timer;
    if (stage_ >= p_.fast_recovery_stages) {
      rt_ = std::min(rt_ + p_.additive_increase_fraction * line_rate_, line_rate_);
    }
    rc_ = std::min((rc_ + rt_) / 2.0, line_rate_);
    ++stage_;
  }
}

bool Dcqcn::on_cnp(SimTime now) {
  ++cnps_seen_;
  advance(now);
  if (mode_ == CnpMode::SenderGuard && now - last_reaction_ < guard_) {
    return false;
  }
  last_reaction_ = now;
  ++reactions_;
  alpha_ = (1.0 - p_.g) * alpha_ + p_.g;
  rt_ = rc_;
  rc_ = std::max(rc_ * (1.0 - alpha_ / 2.0), p_.min_rate_fraction * line_rate_);
  stage_ = 0;
  // Restart the recovery clock so the first post-cut step is a full period.
  increase_credit_ = 0;
  alpha_credit_ = 0;
  return true;
}

bool Dcqcn::admit_cnp(SimTime arrival) {
  if (mode_ == CnpMode::SenderGuard && arrival - last_admitted_ < guard_) {
    ++cnps_seen_;
    return false;
  }
  last_admitted_ = arrival;
  return true;
}

double Dcqcn::rate(SimTime now) {
  advance(now);
  return rc_;
}

}  // namespace peel
