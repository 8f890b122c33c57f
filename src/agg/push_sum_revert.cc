#include "agg/push_sum_revert.h"

namespace dynagg {

PushSumRevertSwarm::PushSumRevertSwarm(const std::vector<double>& values,
                                       const PsrParams& params)
    : mass_(values.size()),
      inbox_(values.size()),
      initial_(values),
      msgs_(values.size(), 0),
      params_(params) {
  DYNAGG_CHECK_GE(params_.lambda, 0.0);
  DYNAGG_CHECK_LE(params_.lambda, 1.0);
  for (size_t i = 0; i < values.size(); ++i) mass_[i] = Mass{1.0, values[i]};
}

void PushSumRevertSwarm::RunRound(const Environment& env,
                                  const Population& pop, Rng& rng) {
  if (params_.mode == GossipMode::kPush) {
    const PartnerPlan& plan = kernel_.PlanPushRound(env, pop, rng);
    if (meter_ != nullptr) {
      meter_->RecordMessages(plan.CountMatched(), kMassMessageBytes);
    }
    kernel_.ForEachPushSlot(
        [this](HostId src) {
          // EmitPushHalf: the self half lands in the own inbox here, the
          // kernel deposits the returned half at the partner.
          const Mass half = TakePushHalfAt(src);
          DepositAt(src, half);
          return half;
        },
        [this](HostId dst, const Mass& m) { DepositAt(dst, m); },
        [this](HostId dst) { __builtin_prefetch(&inbox_[dst], 1); });
    // On a never-mutated population alive_ids is every host: iterate the
    // index range directly so the end-of-round fold has no id indirection.
    if (pop.version() == 0) {
      const int n = size();
      for (HostId i = 0; i < n; ++i) EndRoundPushAt(i);
    } else {
      for (const HostId i : pop.alive_ids()) EndRoundPushAt(i);
    }
    return;
  }
  kernel_.PlanExchangeRound(env, pop, rng);
  kernel_.ForEachExchangePrefetched(
      [this](HostId i, HostId peer) {
        // PushSumRevertNode::Exchange on the SoA state.
        Mass& a = mass_[i];
        Mass& b = mass_[peer];
        const Mass avg{(a.weight + b.weight) * 0.5,
                       (a.value + b.value) * 0.5};
        a = avg;
        b = avg;
        ++msgs_[i];
        ++msgs_[peer];
        if (meter_ != nullptr) {
          meter_->RecordMessage(kMassMessageBytes);
          meter_->RecordMessage(kMassMessageBytes);
        }
      },
      [this](HostId id) { __builtin_prefetch(&mass_[id], 1); });
  if (pop.version() == 0) {
    const int n = size();
    for (HostId i = 0; i < n; ++i) EndRoundPushPullAt(i);
  } else {
    for (const HostId i : pop.alive_ids()) EndRoundPushPullAt(i);
  }
}

Mass PushSumRevertSwarm::TotalAliveMass(const Population& pop) const {
  Mass total;
  for (const HostId id : pop.alive_ids()) total += mass_[id];
  return total;
}

}  // namespace dynagg
