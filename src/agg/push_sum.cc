#include "agg/push_sum.h"

#include <algorithm>

namespace dynagg {

PushSumSwarm::PushSumSwarm(const std::vector<double>& values, GossipMode mode)
    : mass_(values.size()),
      inbox_(values.size()),
      initial_(values),
      mode_(mode) {
  for (size_t i = 0; i < values.size(); ++i) mass_[i] = Mass{1.0, values[i]};
}

void PushSumSwarm::RunRound(const Environment& env, const Population& pop,
                            Rng& rng) {
  if (mode_ == GossipMode::kPush) {
    // All emissions are simultaneous: plan the partners, then emit and
    // deposit the halves (self inbox + partner inbox, or both to the
    // sender when it has no reachable peer), then every host adopts its
    // inbox. The emit/deposit pass is fused with destination prefetch.
    const PartnerPlan& plan = kernel_.PlanPushRound(env, pop, rng);
    if (meter_ != nullptr) {
      meter_->RecordMessages(plan.CountMatched(), kMassMessageBytes);
    }
    kernel_.ForEachPushSlot(
        [this](HostId src) {
          // PushSumNode::EmitPushHalf on the SoA state: take the mass,
          // deposit one half into the own inbox, hand the other half to
          // the kernel for the partner deposit.
          Mass& m = mass_[src];
          const Mass half{m.weight * 0.5, m.value * 0.5};
          m = Mass{};
          inbox_[src] += half;
          return half;
        },
        [this](HostId dst, const Mass& m) { inbox_[dst] += m; },
        [this](HostId dst) { __builtin_prefetch(&inbox_[dst], 1); });
    // PushSumNode::EndRound: adopt the summed inbox. On a never-mutated
    // population alive_ids is every host, so the adoption collapses to an
    // array swap plus a clear — no copy pass at all.
    if (pop.version() == 0) {
      mass_.swap(inbox_);
      std::fill(inbox_.begin(), inbox_.end(), Mass{});
    } else {
      for (const HostId i : pop.alive_ids()) {
        mass_[i] = inbox_[i];
        inbox_[i] = Mass{};
      }
    }
    return;
  }
  // Push/pull: pairwise equalization, applied sequentially in a shuffled
  // order within the round, with both exchange sides prefetched from the
  // plan.
  kernel_.PlanExchangeRound(env, pop, rng);
  kernel_.ForEachExchangePrefetched(
      [this](HostId i, HostId peer) {
        // PushSumNode::Exchange on the SoA state.
        Mass& a = mass_[i];
        Mass& b = mass_[peer];
        const Mass avg{(a.weight + b.weight) * 0.5,
                       (a.value + b.value) * 0.5};
        a = avg;
        b = avg;
        if (meter_ != nullptr) {
          // Request plus response, one mass payload each.
          meter_->RecordMessage(kMassMessageBytes);
          meter_->RecordMessage(kMassMessageBytes);
        }
      },
      [this](HostId id) { __builtin_prefetch(&mass_[id], 1); });
}

void PushSumSwarm::PlanAsyncTick(const Environment& env, const Population& pop,
                                 Rng& rng, std::vector<net::Message>* out) {
  kernel_.PlanPushRound(env, pop, rng);
  kernel_.ForEachSlot([this, out](HostId src, HostId partner) {
    if (partner == kInvalidHost) return;  // no reachable peer: keep all mass
    Mass& m = mass_[src];
    const Mass half{m.weight * 0.5, m.value * 0.5};
    m = half;
    out->push_back(net::Message{src, partner, half.weight, half.value, 0});
  });
}

Mass PushSumSwarm::TotalAliveMass(const Population& pop) const {
  Mass total;
  for (const HostId id : pop.alive_ids()) total += mass_[id];
  return total;
}

}  // namespace dynagg
