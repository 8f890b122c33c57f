// Dynamic distribution estimation: CDF points and quantiles.
//
// The fraction of hosts whose value lies at or below a threshold t is the
// average of the indicator [v_i <= t] — so each CDF point is itself a
// dynamic average, maintainable with Push-Sum-Revert. A bank of K
// thresholds yields a live histogram of the group's value distribution from
// which any quantile can be interpolated; like every protocol in the
// paper's class, it continuously tracks membership changes (departing
// outliers stop distorting the tails within the reversion time constant).
//
// Cost: K reverting averages = K extra doubles per gossip message — still
// far below one counting sketch (see tab_bandwidth).

#ifndef DYNAGG_AGG_QUANTILES_H_
#define DYNAGG_AGG_QUANTILES_H_

#include <memory>
#include <vector>

#include "agg/push_sum_revert.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "sim/population.h"

namespace dynagg {

/// Dynamic CDF configuration.
struct QuantileParams {
  /// Thresholds t_1 < t_2 < ... < t_K at which the CDF is tracked.
  std::vector<double> thresholds;
  /// Underlying Push-Sum-Revert configuration.
  PsrParams psr;
};

/// Equally spaced thresholds covering [lo, hi] (K >= 2).
std::vector<double> UniformThresholds(double lo, double hi, int count);

/// A population maintaining one reverting average per CDF threshold.
class DynamicCdfSwarm {
 public:
  DynamicCdfSwarm(const std::vector<double>& values,
                  const QuantileParams& params);

  /// One gossip iteration of every threshold instance.
  void RunRound(const Environment& env, const Population& pop, Rng& rng);

  /// Updates host `id`'s local value (all indicators re-anchor).
  void SetLocalValue(HostId id, double value);

  /// Estimated P[value <= thresholds[t]] at host `id`, clamped to [0, 1].
  double EstimateCdf(HostId id, int threshold_index) const;

  /// Estimated q-quantile (q in [0, 1]) at host `id`, by monotone linear
  /// interpolation between thresholds. Clamps to the threshold range.
  double EstimateQuantile(HostId id, double q) const;

  int num_thresholds() const {
    return static_cast<int>(params_.thresholds.size());
  }
  double threshold(int t) const { return params_.thresholds[t]; }
  int size() const { return instances_.front()->size(); }

 private:
  QuantileParams params_;
  // One PSR instance per threshold; unique_ptr keeps swarms stable.
  std::vector<std::unique_ptr<PushSumRevertSwarm>> instances_;
};

}  // namespace dynagg

#endif  // DYNAGG_AGG_QUANTILES_H_
