// Push-Sum-Revert: dynamic distributed averaging (Section III, Fig 3).
//
// The paper's first contribution. Push-Sum relies on conservation of mass,
// which silent host departures violate: mass leaves with the host and, when
// departures correlate with values, the estimate diverges permanently.
// Push-Sum-Revert introduces a controlled local error: every round each
// host's mass decays towards its *initial* mass by a reversion constant
// lambda,
//     w <- lambda       + (1 - lambda) * sum(received weights)
//     v <- lambda * v0  + (1 - lambda) * sum(received values)
// The Revert step conserves mass while the node set is stable (Section III's
// telescoping argument) yet continuously re-injects each live host's
// contribution, so after departures the system re-converges to the average
// over the *remaining* hosts. lambda trades reconvergence speed against a
// bias floor (Fig 10a); lambda = 0 degenerates to classic Push-Sum.

#ifndef DYNAGG_AGG_PUSH_SUM_REVERT_H_
#define DYNAGG_AGG_PUSH_SUM_REVERT_H_

#include <vector>

#include "agg/aggregate.h"
#include "agg/push_sum.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "sim/bandwidth.h"
#include "sim/population.h"
#include "sim/round_kernel.h"

namespace dynagg {

/// Push-Sum-Revert configuration.
struct PsrParams {
  /// Reversion constant lambda in [0, 1]. 0 = classic Push-Sum.
  double lambda = 0.01;
  GossipMode mode = GossipMode::kPushPull;
  RevertMode revert = RevertMode::kFixed;
};

/// Per-host Push-Sum-Revert state machine.
class PushSumRevertNode {
 public:
  /// (Re)initializes with local value `v0`; mass <1, v0>.
  void Init(double v0) {
    mass_ = Mass{1.0, v0};
    inbox_ = Mass{};
    initial_value_ = v0;
    messages_received_ = 0;
  }

  /// Updates the value this host reverts toward (and re-anchors future
  /// rounds); used when the application's local reading changes.
  void SetLocalValue(double v0) { initial_value_ = v0; }

  /// Push-mode emission (Fig 3, step 2), emission only: applies the
  /// reversion to the outgoing total, removes the mass, and returns one
  /// half of it. The caller owes TWO deposits of the returned half — one
  /// to this host's own inbox (the self-message, which counts towards
  /// adaptive indegree) and one to the peer — applied in sequential order
  /// by the round kernel's scatter phase.
  Mass TakePushHalf(double lambda, RevertMode revert) {
    Mass out = mass_;
    if (revert == RevertMode::kFixed) {
      out.weight = (1.0 - lambda) * out.weight + lambda;
      out.value = (1.0 - lambda) * out.value + lambda * initial_value_;
    }
    const Mass half{out.weight * 0.5, out.value * 0.5};
    mass_ = Mass{};
    return half;
  }

  /// Push-mode emission (Fig 3, step 2): applies the reversion to the
  /// outgoing total, deposits half into the own inbox, returns the peer
  /// half. Only used with RevertMode::kFixed; adaptive reversion happens at
  /// EndRound based on indegree.
  Mass EmitPushHalf(double lambda, RevertMode revert) {
    const Mass half = TakePushHalf(lambda, revert);
    Deposit(half);  // the self-message counts towards adaptive indegree
    return half;
  }

  /// Accumulates a received message.
  void Deposit(const Mass& m) {
    inbox_ += m;
    ++messages_received_;
  }

  /// Push-mode end of round: adopt the inbox; under adaptive reversion mix
  /// in lambda/2 of the initial mass per message received.
  void EndRoundPush(double lambda, RevertMode revert) {
    Mass next = inbox_;
    if (revert == RevertMode::kAdaptive) {
      double eff = 0.5 * lambda * static_cast<double>(messages_received_);
      if (eff > 1.0) eff = 1.0;
      next.weight = (1.0 - eff) * next.weight + eff;
      next.value = (1.0 - eff) * next.value + eff * initial_value_;
    }
    mass_ = next;
    inbox_ = Mass{};
    messages_received_ = 0;
  }

  /// Push/pull exchange: pairwise mass equalization. Counts one interaction
  /// on each side for adaptive reversion.
  static void Exchange(PushSumRevertNode& a, PushSumRevertNode& b) {
    const Mass avg{(a.mass_.weight + b.mass_.weight) * 0.5,
                   (a.mass_.value + b.mass_.value) * 0.5};
    a.mass_ = avg;
    b.mass_ = avg;
    ++a.messages_received_;
    ++b.messages_received_;
  }

  /// Push/pull end of round: applies the reversion in place. Under fixed
  /// reversion the effective strength is lambda; under adaptive it is
  /// lambda/2 per interaction this round (the self-interaction counts once).
  void EndRoundPushPull(double lambda, RevertMode revert) {
    double eff = lambda;
    if (revert == RevertMode::kAdaptive) {
      eff = 0.5 * lambda * static_cast<double>(messages_received_ + 1);
      if (eff > 1.0) eff = 1.0;
    }
    mass_.weight = (1.0 - eff) * mass_.weight + eff;
    mass_.value = (1.0 - eff) * mass_.value + eff * initial_value_;
    messages_received_ = 0;
  }

  double Estimate() const {
    return mass_.weight > 0.0 ? mass_.value / mass_.weight : initial_value_;
  }

  const Mass& mass() const { return mass_; }
  /// Directly overwrites the mass: the adoption step of the serialized
  /// request/reply exchange used by the NodeAggregator facade.
  void SetMass(const Mass& m) { mass_ = m; }
  double initial_value() const { return initial_value_; }

 private:
  Mass mass_;
  Mass inbox_;
  double initial_value_ = 0.0;
  int messages_received_ = 0;
};

/// A population of Push-Sum-Revert hosts driven one round at a time.
///
/// Structure-of-arrays layout (PushSumSwarm is the template): the per-host
/// state machine above is kept as the semantic reference (and for the
/// serialized NodeAggregator facade), but the swarm stores its hosts as
/// flat parallel arrays — mass, inbox, reversion anchor, per-round message
/// count — so the plan→apply inner loops walk contiguous memory with no
/// per-host object padding. Every element operation replicates the node
/// arithmetic expression-for-expression, so estimates stay bit-identical
/// to a vector of PushSumRevertNodes (pinned by tests/sim/
/// round_kernel_test.cc).
class PushSumRevertSwarm {
 public:
  PushSumRevertSwarm(const std::vector<double>& values,
                     const PsrParams& params);

  /// Executes one gossip iteration over the alive hosts.
  void RunRound(const Environment& env, const Population& pop, Rng& rng);

  double Estimate(HostId id) const {
    return mass_[id].weight > 0.0 ? mass_[id].value / mass_[id].weight
                                  : initial_[id];
  }
  int size() const { return static_cast<int>(mass_.size()); }
  const PsrParams& params() const { return params_; }

  /// Updates the value host `id` reverts toward (PushSumRevertNode::
  /// SetLocalValue); used when the application's local reading changes.
  void SetLocalValue(HostId id, double v0) { initial_[id] = v0; }
  double initial_value(HostId id) const { return initial_[id]; }
  const Mass& mass(HostId id) const { return mass_[id]; }

  /// Total mass over alive hosts (conservation diagnostics and tests).
  Mass TotalAliveMass(const Population& pop) const;

  /// Churn-join reset: (re)initializes host `id` to its pristine <1, v0>
  /// mass anchored at its original reversion value (PushSumRevertNode::
  /// Init semantics). Touches only `id`'s own slots.
  void OnJoin(HostId id) {
    mass_[id] = Mass{1.0, initial_[id]};
    inbox_[id] = Mass{};
    msgs_[id] = 0;
  }

  /// Optionally records over-the-air traffic (self-messages excluded).
  void set_traffic_meter(TrafficMeter* meter) { meter_ = meter; }

 private:
  // Element-wise replicas of the PushSumRevertNode round steps.
  Mass TakePushHalfAt(HostId i) {
    Mass out = mass_[i];
    if (params_.revert == RevertMode::kFixed) {
      out.weight = (1.0 - params_.lambda) * out.weight + params_.lambda;
      out.value =
          (1.0 - params_.lambda) * out.value + params_.lambda * initial_[i];
    }
    const Mass half{out.weight * 0.5, out.value * 0.5};
    mass_[i] = Mass{};
    return half;
  }
  void DepositAt(HostId i, const Mass& m) {
    inbox_[i] += m;
    ++msgs_[i];
  }
  void EndRoundPushAt(HostId i) {
    Mass next = inbox_[i];
    if (params_.revert == RevertMode::kAdaptive) {
      double eff = 0.5 * params_.lambda * static_cast<double>(msgs_[i]);
      if (eff > 1.0) eff = 1.0;
      next.weight = (1.0 - eff) * next.weight + eff;
      next.value = (1.0 - eff) * next.value + eff * initial_[i];
    }
    mass_[i] = next;
    inbox_[i] = Mass{};
    msgs_[i] = 0;
  }
  void EndRoundPushPullAt(HostId i) {
    double eff = params_.lambda;
    if (params_.revert == RevertMode::kAdaptive) {
      eff = 0.5 * params_.lambda * static_cast<double>(msgs_[i] + 1);
      if (eff > 1.0) eff = 1.0;
    }
    mass_[i].weight = (1.0 - eff) * mass_[i].weight + eff;
    mass_[i].value = (1.0 - eff) * mass_[i].value + eff * initial_[i];
    msgs_[i] = 0;
  }

  std::vector<Mass> mass_;
  std::vector<Mass> inbox_;
  std::vector<double> initial_;  // reversion anchors (the v0 values)
  std::vector<int32_t> msgs_;    // per-round indegree (adaptive reversion)
  PsrParams params_;
  TrafficMeter* meter_ = nullptr;
  RoundKernel kernel_;
};

}  // namespace dynagg

#endif  // DYNAGG_AGG_PUSH_SUM_REVERT_H_
