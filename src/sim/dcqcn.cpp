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

  // Alpha decays once per alpha_timer without a reaction. A reaction would
  // compute (1 - g) * alpha + g, i.e. decayed + g. Once that is exactly g,
  // or a decay leaves alpha unchanged (g = 0), further decays cannot change
  // what a reaction computes: skip them.
  alpha_credit_ += elapsed;
  while (alpha_credit_ >= p_.alpha_timer) {
    const double decayed = alpha_ * (1.0 - p_.g);
    if (decayed + p_.g == p_.g || decayed == alpha_) {
      alpha_credit_ %= p_.alpha_timer;
      break;
    }
    alpha_credit_ -= p_.alpha_timer;
    alpha_ = decayed;
  }

  // Rate recovery: fast recovery halves the gap to Rt; afterwards Rt itself
  // climbs additively (hyper/active increase collapsed into one stage). Past
  // fast recovery every period applies the same map to (Rc, Rt), so once a
  // period leaves both unchanged, so do all the rest.
  increase_credit_ += elapsed;
  while (increase_credit_ >= p_.increase_timer) {
    if (stage_ >= p_.fast_recovery_stages) {
      const double rt = std::min(rt_ + p_.additive_increase_fraction * line_rate_, line_rate_);
      const double rc = std::min((rc_ + rt) / 2.0, line_rate_);
      if (rt == rt_ && rc == rc_) {
        increase_credit_ %= p_.increase_timer;
        break;
      }
      rt_ = rt;
      rc_ = rc;
    } else {
      rc_ = std::min((rc_ + rt_) / 2.0, line_rate_);
    }
    increase_credit_ -= p_.increase_timer;
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
