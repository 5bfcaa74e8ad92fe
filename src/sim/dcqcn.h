// DCQCN-lite per-stream rate control (Zhu et al., SIGCOMM'15 shape).
//
// The sender keeps a current rate Rc and target rate Rt.  A congestion
// reaction sets Rt := Rc, cuts Rc by alpha/2, and bumps alpha; between
// reactions alpha decays and Rc recovers toward Rt (fast recovery), then Rt
// additively increases (active increase).  All timer evolution is applied
// lazily at query time — the simulator never schedules per-flow timer events.
//
// The clock starts at 0, not when the stream opens, so a controller's first
// query catches up every period since then. advance() stops walking periods
// once the rest cannot change anything observable, bit-identically to
// walking them all:
//  - Alpha is read only by a reaction, (1 - g) * alpha + g, which is
//    monotone in alpha, and decay only lowers alpha. Once the reaction would
//    map alpha to exactly g, it maps every later alpha to g too; once a
//    decay leaves alpha unchanged (g = 0), so does every later one. The
//    remaining decays are skipped: from alpha = 1 with g = 1/16 that is
//    after ~610 periods, long before alpha would sink into subnormals.
//  - Past fast recovery (stage >= F) every period applies the same map to
//    (Rc, Rt), and the stage is only ever compared with F. Once one period
//    leaves (Rc, Rt) unchanged, so do all later ones, so a settled or fresh
//    controller (Rc = Rt = line rate) walks at most F periods.
// A skip leaves each credit at credit % timer, as the full walk would.
//
// Multicast twist (§4 of the paper): one ECN mark fans out into many CNPs.
// CnpMode selects whether CNPs are limited at each receiver (classic DCQCN),
// coalesced by a sender-side guard timer (PEEL), or not at all (ablation).
//
// Under the guard timer most CNPs are swallowed, and a swallowed on_cnp
// changes only cnps_seen and the lazily advanced clock: advance() lands in
// the same state whether it runs once or in pieces, because its credits
// are integers, it applies the same sequence of multiplies, and its stopping
// tests read only that state. Whether the guard swallows a CNP depends only
// on its arrival time and the last reaction's, so admit_cnp can decide it
// before the CNP arrives, and the packet engines never schedule the CNPs it
// turns away (the single queue asks when a CNP is posted, the sharded engine
// at the mailbox merge).
#pragma once

#include "src/sim/config.h"

namespace peel {

class Dcqcn {
 public:
  Dcqcn() = default;
  Dcqcn(const DcqcnParams& params, double line_rate_bytes_per_ns, CnpMode mode,
        SimTime guard_interval);

  /// Handles a CNP arriving at the sender; returns true if it caused a rate
  /// reaction (false when the guard timer swallowed it).
  bool on_cnp(SimTime now);

  /// Decides, when a CNP is posted, whether it will react once it reaches
  /// the sender at `arrival`. True: deliver it to on_cnp at `arrival`.
  /// False: the guard timer will swallow it; it is counted in cnps_seen now
  /// and must not be delivered. Exact when every CNP of this controller
  /// comes through here in non-decreasing arrival order: rate(),
  /// reactions() and on_cnp's results are then bit-identical to delivering
  /// all of them. Every CNP is admitted outside SenderGuard.
  bool admit_cnp(SimTime arrival);

  /// Current sending rate in bytes/ns after lazily applying elapsed recovery.
  [[nodiscard]] double rate(SimTime now);

  [[nodiscard]] double line_rate() const noexcept { return line_rate_; }
  [[nodiscard]] std::uint64_t reactions() const noexcept { return reactions_; }
  [[nodiscard]] std::uint64_t cnps_seen() const noexcept { return cnps_seen_; }

 private:
  void advance(SimTime now);

  DcqcnParams p_{};
  double line_rate_ = 1.0;  // bytes/ns
  CnpMode mode_ = CnpMode::ReceiverTimer;
  SimTime guard_ = 50 * kMicrosecond;

  double rc_ = 1.0;
  double rt_ = 1.0;
  double alpha_ = 1.0;
  int stage_ = 0;
  SimTime clock_ = 0;           // last time advance() ran
  SimTime alpha_credit_ = 0;    // time accumulated toward the next alpha decay
  SimTime increase_credit_ = 0; // time accumulated toward the next recovery step
  SimTime last_reaction_ = kMinReaction;
  SimTime last_admitted_ = kMinReaction;  ///< admit_cnp's predicted reaction
  std::uint64_t reactions_ = 0;
  std::uint64_t cnps_seen_ = 0;

  static constexpr SimTime kMinReaction = -(1LL << 62);
};

}  // namespace peel
