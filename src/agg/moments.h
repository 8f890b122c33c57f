// Dynamic higher-moment aggregation: variance and standard deviation.
//
// Section II lists the standard deviation among the aggregates of interest.
// Both are derivable from the first two moments, each of which is an
// average — so two Push-Sum-Revert instances over v and v^2 give a dynamic
// estimate of Var[v] = E[v^2] - E[v]^2 that tracks membership changes
// exactly like the scalar average does. Composed with Count-Sketch-Reset
// (as in Invert-Average) the same construction yields dynamic sums of
// squares.

#ifndef DYNAGG_AGG_MOMENTS_H_
#define DYNAGG_AGG_MOMENTS_H_

#include <vector>

#include "agg/push_sum_revert.h"
#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "sim/population.h"

namespace dynagg {

/// A population maintaining dynamic estimates of the mean, variance and
/// standard deviation of the hosts' values.
class DynamicMomentsSwarm {
 public:
  DynamicMomentsSwarm(const std::vector<double>& values,
                      const PsrParams& params);

  /// One gossip iteration of both moment instances.
  void RunRound(const Environment& env, const Population& pop, Rng& rng);

  /// Updates host `id`'s local value (both moments re-anchor).
  void SetLocalValue(HostId id, double value);

  double EstimateMean(HostId id) const { return mean_.Estimate(id); }
  /// Population variance estimate; clamped at 0 (the difference of two
  /// estimates can go slightly negative near convergence).
  double EstimateVariance(HostId id) const;
  double EstimateStdDev(HostId id) const;

  int size() const { return mean_.size(); }
  const PushSumRevertSwarm& mean_swarm() const { return mean_; }
  const PushSumRevertSwarm& square_swarm() const { return square_; }

 private:
  PushSumRevertSwarm mean_;
  PushSumRevertSwarm square_;
};

}  // namespace dynagg

#endif  // DYNAGG_AGG_MOMENTS_H_
