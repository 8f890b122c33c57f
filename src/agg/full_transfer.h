// Push-Sum-Revert with the Full-Transfer optimization (Section III.A, Fig 4).
//
// A reverting host's estimate carries a hard bias towards its own initial
// value. Full-Transfer removes the self-message entirely: each round the
// host splits its whole (reverted) mass into N parcels sent to N
// independently selected peers, so its next state is built exclusively from
// imported mass. The per-round estimate variance rises, but successive
// estimates decorrelate from the host's own value; averaging the mass
// received over the last T mass-bearing rounds ("iterations during which the
// host received no mass are skipped") yields a more accurate estimate —
// the paper measures sigma = 2.13 at lambda = 0.5 and 0.694 at lambda = 0.1
// with N = 4, T = 3 after a correlated half-failure (Fig 10b).

#ifndef DYNAGG_AGG_FULL_TRANSFER_H_
#define DYNAGG_AGG_FULL_TRANSFER_H_

#include <cstdint>
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

/// Full-Transfer configuration.
struct FullTransferParams {
  /// Reversion constant lambda in [0, 1].
  double lambda = 0.1;
  /// Number of parcels N the mass is split into each round (Fig 4 step 2).
  int parcels = 4;
  /// Number of most recent mass-bearing rounds T averaged for the estimate.
  int window = 3;
};

/// Per-host Full-Transfer state machine.
class FullTransferNode {
 public:
  /// (Re)initializes with local value `v0` and an empty estimate window.
  void Init(double v0, int window);

  void SetLocalValue(double v0) { initial_value_ = v0; }

  /// Emits the whole reverted mass as one parcel of 1/N of it; call exactly
  /// `parcels` times per round. The reverted total is computed on the first
  /// emission of the round.
  Mass EmitParcel(double lambda, int parcels);

  /// Accumulates a received parcel.
  void Deposit(const Mass& m) { inbox_ += m; }

  /// Adopts the inbox as next state; pushes it into the estimate window iff
  /// any mass arrived this round.
  void EndRound();

  /// Windowed estimate: sum(v) / sum(w) over the last T mass-bearing
  /// rounds. Falls back to the initial value before any mass is received.
  double Estimate() const;

  const Mass& mass() const { return mass_; }
  double initial_value() const { return initial_value_; }

 private:
  Mass mass_;
  Mass inbox_;
  Mass reverted_;        // cached reverted total for the current round
  bool emitting_ = false;
  double initial_value_ = 0.0;
  // Ring buffer of the last `window` mass-bearing rounds.
  std::vector<Mass> history_;
  int history_next_ = 0;
  int history_count_ = 0;
};

/// A population of Full-Transfer hosts driven one round at a time.
///
/// Structure-of-arrays layout (PushSumSwarm is the template): the node
/// class above stays as the semantic reference, but the swarm stores flat
/// parallel arrays — mass, inbox, the cached per-round reverted total, and
/// one shared history arena of `n * window` Masses (host i's ring lives at
/// [i * window, (i+1) * window)) — so rounds touch contiguous memory and
/// no per-host heap vectors. Element operations replicate the node
/// arithmetic expression-for-expression; bit-identity against a
/// FullTransferNode vector is pinned by tests/sim/round_kernel_test.cc.
class FullTransferSwarm {
 public:
  FullTransferSwarm(const std::vector<double>& values,
                    const FullTransferParams& params);

  /// Executes one gossip iteration: every alive host sends N parcels to N
  /// independently sampled peers, then all hosts fold their inboxes.
  void RunRound(const Environment& env, const Population& pop, Rng& rng);

  /// Windowed estimate: sum(v) / sum(w) over the last T mass-bearing
  /// rounds; the initial value before any mass is received.
  double Estimate(HostId id) const {
    Mass total;
    const Mass* row = &history_[static_cast<size_t>(id) * params_.window];
    for (int i = 0; i < hist_count_[id]; ++i) total += row[i];
    if (total.weight <= 0.0) return initial_[id];
    return total.value / total.weight;
  }
  int size() const { return static_cast<int>(mass_.size()); }
  const FullTransferParams& params() const { return params_; }
  const Mass& mass(HostId id) const { return mass_[id]; }
  double initial_value(HostId id) const { return initial_[id]; }

  /// Total live mass (current state only, not the estimate window).
  Mass TotalAliveMass(const Population& pop) const;

  /// Churn-join reset: (re)initializes host `id` to its pristine <1, v0>
  /// mass with an empty estimate window (FullTransferNode::Init
  /// semantics). Touches only `id`'s own slots.
  void OnJoin(HostId id) {
    mass_[id] = Mass{1.0, initial_[id]};
    inbox_[id] = Mass{};
    reverted_[id] = Mass{};
    emitting_[id] = 0;
    hist_next_[id] = 0;
    hist_count_[id] = 0;
  }

  /// Optionally records over-the-air traffic.
  void set_traffic_meter(TrafficMeter* meter) { meter_ = meter; }

 private:
  // Element-wise replicas of the FullTransferNode round steps.
  Mass EmitParcelAt(HostId i) {
    if (!emitting_[i]) {
      // First parcel of the round: apply the reversion to the outgoing
      // total and zero the local mass (full transfer keeps nothing back).
      reverted_[i].weight =
          (1.0 - params_.lambda) * mass_[i].weight + params_.lambda;
      reverted_[i].value = (1.0 - params_.lambda) * mass_[i].value +
                           params_.lambda * initial_[i];
      mass_[i] = Mass{};
      emitting_[i] = 1;
    }
    const double inv = 1.0 / params_.parcels;
    return Mass{reverted_[i].weight * inv, reverted_[i].value * inv};
  }
  void EndRoundAt(HostId i) {
    emitting_[i] = 0;
    mass_[i] = inbox_[i];
    if (inbox_[i].weight > 0.0) {
      Mass* row = &history_[static_cast<size_t>(i) * params_.window];
      row[hist_next_[i]] = inbox_[i];
      hist_next_[i] = (hist_next_[i] + 1) % params_.window;
      if (hist_count_[i] < params_.window) ++hist_count_[i];
    }
    inbox_[i] = Mass{};
  }

  std::vector<Mass> mass_;
  std::vector<Mass> inbox_;
  std::vector<Mass> reverted_;     // cached reverted totals for the round
  std::vector<uint8_t> emitting_;  // reverted_ computed this round?
  std::vector<double> initial_;
  // One flat arena of per-host rings over the last `window` mass-bearing
  // rounds (stride = params_.window).
  std::vector<Mass> history_;
  std::vector<int32_t> hist_next_;
  std::vector<int32_t> hist_count_;
  FullTransferParams params_;
  TrafficMeter* meter_ = nullptr;
  RoundKernel kernel_;
};

}  // namespace dynagg

#endif  // DYNAGG_AGG_FULL_TRANSFER_H_
