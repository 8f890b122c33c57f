#include "obs/telemetry.h"

#include <chrono>

namespace dynagg {
namespace obs {

namespace internal {
thread_local TrialTelemetry* tls_sink = nullptr;
}  // namespace internal

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kSetup:
      return "setup";
    case Phase::kPlan:
      return "plan";
    case Phase::kApply:
      return "apply";
    case Phase::kScatter:
      return "scatter";
    case Phase::kRecord:
      return "record";
  }
  return "unknown";
}

const char* CounterName(Counter counter) {
  switch (counter) {
    case Counter::kPlanCacheHits:
      return "plan_cache_hits";
    case Counter::kPlanCacheRebuilds:
      return "plan_cache_rebuilds";
    case Counter::kAliveBitmapRebuilds:
      return "alive_bitmap_rebuilds";
    case Counter::kRngDraws:
      return "rng_draws";
    case Counter::kGossipExchanges:
      return "gossip_exchanges";
    case Counter::kDepositBytes:
      return "deposit_bytes";
    case Counter::kEarlyStopRounds:
      return "early_stop_rounds";
    case Counter::kPoolDispatchNs:
      return "pool_dispatch_ns";
    case Counter::kPoolWaitNs:
      return "pool_wait_ns";
    case Counter::kChurnJoins:
      return "churn_joins";
    case Counter::kChurnRebirths:
      return "churn_rebirths";
    case Counter::kRecordEvaluations:
      return "record_evaluations";
  }
  return "unknown";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace obs
}  // namespace dynagg
