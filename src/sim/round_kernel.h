// RoundKernel: the shared two-phase (plan -> apply) gossip round.
//
// Environment API v2 structures every swarm's round the same way:
//
//   1. PLAN   The kernel lists the round's initiators (alive order for
//             simultaneous push rounds, a Fisher-Yates-shuffled order for
//             sequential pairwise exchanges) and asks the environment to
//             fill one PartnerPlan for all of them at once
//             (Environment::BuildPlan — batched, cache-reusing, and
//             bit-identical in Rng consumption to per-host SamplePeer).
//   2. APPLY  The protocol walks the plan's flat arrays: sequential
//             pairwise exchanges for push/pull protocols, or a fused
//             emit-and-deposit pass for push-mode protocols that
//             prefetches each destination a few slots ahead.
//
// Rounds run on one thread. A push round is one memory-bound scatter, and
// a destination-sharded parallel scatter measured slower than this fused
// loop at every thread count; cores are used one level up, where the
// executor runs trials and sweep points concurrently.
//
// This replaces the per-protocol shuffle/SamplePeer/emit/deposit loops the
// src/agg/ swarms used to copy, and it is what makes a 100k-host round
// cheap: one virtual call per round instead of one per host, contiguous
// plan arrays, and an apply phase whose random-access deposits are no
// longer serialized behind each partner draw (see bench/micro_protocol_ops
// and BENCH_roundkernel.json).

#ifndef DYNAGG_SIM_ROUND_KERNEL_H_
#define DYNAGG_SIM_ROUND_KERNEL_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "env/partner_plan.h"
#include "obs/telemetry.h"
#include "sim/population.h"

namespace dynagg {

/// Copies the alive ids and Fisher-Yates shuffles them. Push/pull exchanges
/// are applied sequentially within a round; shuffling removes any host-id
/// ordering bias. (Shared by the kernel and the tree baseline's harnesses.)
void ShuffledAliveOrder(const Population& pop, Rng& rng,
                        std::vector<HostId>* out);

class RoundKernel {
 public:
  RoundKernel() = default;

  // ------------------------------------------------------------- plan ---

  /// Plans a simultaneous push round: `slots_per_initiator` independent
  /// partner draws per alive host, in alive order (full-transfer sends
  /// `parcels` parcels per host; everything else sends 1).
  const PartnerPlan& PlanPushRound(const Environment& env,
                                   const Population& pop, Rng& rng,
                                   int slots_per_initiator = 1);

  /// Plans a round of sequential pairwise exchanges: one partner draw per
  /// alive host, in a shuffled order (the draw-after-shuffle sequence of
  /// the legacy push/pull loops, bit-identical).
  const PartnerPlan& PlanExchangeRound(const Environment& env,
                                       const Population& pop, Rng& rng);

  const PartnerPlan& plan() const { return plan_; }

  // ------------------------------------------------------------ apply ---

  /// Applies `fn(initiator, partner)` to every matched slot, sequentially
  /// in plan order; unmatched slots are skipped. The pairwise-exchange
  /// apply phase: exchanges mutate both sides, so in-round ordering is part
  /// of the protocol's semantics and stays sequential.
  template <typename Fn>
  void ForEachExchange(Fn&& fn) const {
    obs::ScopedPhase span(obs::Phase::kApply);
    const std::vector<HostId>& initiators = plan_.initiators();
    const std::vector<HostId>& partners = plan_.partners();
    for (size_t k = 0; k < initiators.size(); ++k) {
      if (partners[k] == kInvalidHost) continue;
      fn(initiators[k], partners[k]);
    }
  }

  /// ForEachExchange with destination prefetch: both sides of every
  /// exchange are known from the plan, so `prefetch(host)` is issued for
  /// the initiator AND partner a few slots ahead — the legacy loops
  /// serialized both random node accesses behind each partner draw.
  template <typename Fn, typename PrefetchFn>
  void ForEachExchangePrefetched(Fn&& fn, PrefetchFn&& prefetch) const {
    obs::ScopedPhase span(obs::Phase::kApply);
    const std::vector<HostId>& initiators = plan_.initiators();
    const std::vector<HostId>& partners = plan_.partners();
    const size_t slots = initiators.size();
    constexpr size_t kPrefetchAhead = 8;
    for (size_t k = 0; k < slots; ++k) {
      if (k + kPrefetchAhead < slots) {
        prefetch(initiators[k + kPrefetchAhead]);
        const HostId ahead = partners[k + kPrefetchAhead];
        if (ahead != kInvalidHost) prefetch(ahead);
      }
      if (partners[k] == kInvalidHost) continue;
      fn(initiators[k], partners[k]);
    }
  }

  /// Applies `fn(initiator, partner)` to EVERY slot, sequentially in plan
  /// order, passing kInvalidHost for unmatched slots — for protocols with
  /// per-initiator round bookkeeping that runs whether or not a peer was
  /// reachable (the serialized node-aggregator facade).
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    obs::ScopedPhase span(obs::Phase::kApply);
    const std::vector<HostId>& initiators = plan_.initiators();
    const std::vector<HostId>& partners = plan_.partners();
    for (size_t k = 0; k < initiators.size(); ++k) {
      fn(initiators[k], partners[k]);
    }
  }

  /// Fused sequential apply for push-mode rounds: per slot, in plan order,
  /// `deposit(dst, emit(initiator))` where `dst` is the slot's effective
  /// partner — exactly the legacy emit/deposit interleaving (emit may
  /// deposit the self half internally). Because the plan already knows
  /// every destination, the loop prefetches `prefetch(dst)` a few slots
  /// ahead, overlapping the scatter's random-access latency — the main
  /// single-thread win of plan-then-apply (the legacy loop serialized each
  /// deposit's address behind its partner draw).
  template <typename EmitFn, typename DepositFn, typename PrefetchFn>
  void ForEachPushSlot(EmitFn&& emit, DepositFn&& deposit,
                       PrefetchFn&& prefetch) const {
    obs::ScopedPhase span(obs::Phase::kApply);
    const std::vector<HostId>& initiators = plan_.initiators();
    const std::vector<HostId>& partners = plan_.partners();
    const size_t slots = initiators.size();
    // One payload lands per slot (the self half is emitted internally).
    using Payload = std::decay_t<std::invoke_result_t<EmitFn&, HostId>>;
    obs::Count(obs::Counter::kDepositBytes,
               static_cast<int64_t>(slots * sizeof(Payload)));
    constexpr size_t kPrefetchAhead = 16;
    if (plan_.identity_initiators()) {
      // initiators[k] == k: the hot loop touches only the partner array.
      for (size_t k = 0; k < slots; ++k) {
        if (k + kPrefetchAhead < slots) {
          const HostId ahead = partners[k + kPrefetchAhead];
          prefetch(ahead == kInvalidHost
                       ? static_cast<HostId>(k + kPrefetchAhead)
                       : ahead);
        }
        const HostId init = static_cast<HostId>(k);
        const HostId partner = partners[k];
        deposit(partner == kInvalidHost ? init : partner, emit(init));
      }
      return;
    }
    for (size_t k = 0; k < slots; ++k) {
      if (k + kPrefetchAhead < slots) {
        const HostId ahead = partners[k + kPrefetchAhead];
        prefetch(ahead == kInvalidHost ? initiators[k + kPrefetchAhead]
                                       : ahead);
      }
      const HostId init = initiators[k];
      const HostId partner = partners[k];
      deposit(partner == kInvalidHost ? init : partner, emit(init));
    }
  }

  /// Deposit scatter for push-mode protocols whose payloads were taken
  /// beforehand. Slot `k`'s payload `payloads[k]` is deposited to the
  /// slot's initiator first when `self_echo` is set (the push protocols'
  /// half-kept-to-self message) and then to its effective partner (the
  /// initiator again when no peer was reachable), sequentially in plan
  /// order — the same per-destination order, and so the same bits, as
  /// ForEachPushSlot. The swarms use the fused loop; this split form is
  /// kept for probing the scatter on its own.
  template <typename Payload, typename DepositFn>
  void ScatterDeposits(const std::vector<Payload>& payloads, bool self_echo,
                       [[maybe_unused]] int num_hosts,
                       DepositFn&& deposit) const {
    obs::ScopedPhase span(obs::Phase::kScatter);
    const std::vector<HostId>& initiators = plan_.initiators();
    const std::vector<HostId>& partners = plan_.partners();
    DYNAGG_CHECK_EQ(payloads.size(), initiators.size());
    const size_t slots = initiators.size();
    // One payload per slot, as ForEachPushSlot counts it: the self echo
    // re-delivers the slot's payload.
    obs::Count(obs::Counter::kDepositBytes,
               static_cast<int64_t>(slots * sizeof(Payload)));
    for (size_t k = 0; k < slots; ++k) {
      const HostId init = initiators[k];
      const HostId partner = partners[k];
      if (self_echo) deposit(init, payloads[k]);
      deposit(partner == kInvalidHost ? init : partner, payloads[k]);
    }
  }

 private:
  PartnerPlan plan_;
  std::vector<HostId> order_;  // scratch for the shuffled initiator order
};

}  // namespace dynagg

#endif  // DYNAGG_SIM_ROUND_KERNEL_H_
