// Builtin protocol catalog: swarm protocols for the Driver API.
//
// Each swarm protocol is a parse function (its protocol.* knobs, shared by
// `--dry-run` and every trial) and a build step that draws the paper's
// U[0,100) value workload from the trial seed and pairs the swarm with its
// truth family. RegisterSwarm (scenario/swarm_registration.h) turns the
// pair into the type-erased SwarmHandle the drivers call and derives the
// protocol's capabilities from the same types; which time loop runs it is
// the driver's business (scenario/drivers.cc, scenario/async_driver.cc).
//
// Protocols whose trial structure fits no shared driver register a custom
// whole-trial runner instead: the TAG overlay baseline (tag-tree) owns its
// loop because its epochs are tree-depth-sized rather than fixed-length.
// The node-aggregator protocol drives the serialized NodeAggregator facade
// (agg/aggregator.h) over the wire format, making the deployment path
// scenario-reachable.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregator.h"
#include "agg/count_sketch.h"
#include "agg/count_sketch_reset.h"
#include "agg/epoch_push_sum.h"
#include "agg/extremes.h"
#include "agg/fm_sketch.h"
#include "agg/full_transfer.h"
#include "agg/invert_average.h"
#include "agg/push_flow.h"
#include "agg/push_sum.h"
#include "agg/push_sum_revert.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/stats.h"
#include "env/connectivity.h"
#include "scenario/config.h"
#include "scenario/swarm_registration.h"
#include "scenario/trial.h"
#include "sim/bandwidth.h"
#include "sim/metrics.h"
#include "sim/population.h"
#include "sim/round_driver.h"
#include "sim/workload.h"
#include "tree/spanning_tree.h"
#include "tree/tag.h"

namespace dynagg {
namespace scenario {
namespace {

Result<GossipMode> ParseGossipMode(const ScenarioSpec& spec) {
  DYNAGG_ASSIGN_OR_RETURN(const std::string mode,
                          spec.ParamString("protocol.mode", "pushpull"));
  if (mode == "push") return GossipMode::kPush;
  if (mode == "pushpull") return GossipMode::kPushPull;
  return Status::InvalidArgument(
      "protocol.mode must be push or pushpull, got '" + mode + "'");
}

Result<RevertMode> ParseRevertMode(const ScenarioSpec& spec) {
  DYNAGG_ASSIGN_OR_RETURN(const std::string revert,
                          spec.ParamString("protocol.revert", "fixed"));
  if (revert == "fixed") return RevertMode::kFixed;
  if (revert == "adaptive") return RevertMode::kAdaptive;
  return Status::InvalidArgument(
      "protocol.revert must be fixed or adaptive, got '" + revert + "'");
}

Result<int> CheckedHosts(const EnvHandle& env) {
  const int n = env.env->num_hosts();
  if (n <= 0) return Status::InvalidArgument("environment has no hosts");
  return n;
}

// ----------------------------------------------- spec parameter parsing ---
//
// One parse function per protocol, shared between the SwarmFactory (which
// needs the values) and the registry's validate hook (which only needs the
// Status): knob typos and out-of-range values fail `--dry-run` with the
// same message execution would produce.

Result<GossipMode> ParsePushSumSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("protocol.", {"mode"}));
  DYNAGG_ASSIGN_OR_RETURN(const GossipMode mode, ParseGossipMode(spec));
  if (spec.driver == "async" && mode != GossipMode::kPush) {
    return Status::InvalidArgument(
        "driver = async requires protocol.mode = push (the pairwise "
        "push/pull exchange is instantaneous by construction and cannot be "
        "split into in-flight messages)");
  }
  return mode;
}

/// The parsed knobs of a protocol that has none.
struct NoParams {};

Result<NoParams> ParsePushFlowSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("protocol.", {}));
  return NoParams{};
}

Result<PsrParams> ParsePsrSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(
      spec.CheckParams("protocol.", {"lambda", "mode", "revert"}));
  PsrParams params;
  DYNAGG_ASSIGN_OR_RETURN(params.lambda,
                          spec.ParamDouble("protocol.lambda", 0.01));
  DYNAGG_ASSIGN_OR_RETURN(params.mode, ParseGossipMode(spec));
  DYNAGG_ASSIGN_OR_RETURN(params.revert, ParseRevertMode(spec));
  return params;
}

struct EpochSpecParams {
  EpochParams params;
  int phase_spread = 0;
  bool random_phases = false;
  uint64_t phase_stream = 4;
};

Result<EpochSpecParams> ParseEpochSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "protocol.", {"epoch_length", "mode", "phase_spread", "random_phases",
                    "phase_stream"}));
  EpochSpecParams out;
  DYNAGG_ASSIGN_OR_RETURN(const int64_t epoch_length,
                          spec.ParamInt("protocol.epoch_length", 10));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t phase_spread,
                          spec.ParamInt("protocol.phase_spread", 0));
  DYNAGG_ASSIGN_OR_RETURN(out.random_phases,
                          spec.ParamBool("protocol.random_phases", false));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t phase_stream,
                          spec.ParamInt("protocol.phase_stream", 4));
  DYNAGG_ASSIGN_OR_RETURN(out.params.mode, ParseGossipMode(spec));
  if (epoch_length < 1) {
    return Status::InvalidArgument("protocol.epoch_length must be >= 1");
  }
  if (phase_spread < 0 || phase_spread > epoch_length) {
    return Status::InvalidArgument(
        "protocol.phase_spread must be in [0, epoch_length]");
  }
  if (out.random_phases && phase_spread > 0) {
    return Status::InvalidArgument(
        "protocol.random_phases and protocol.phase_spread are exclusive "
        "(random clock skew vs a deterministic phase ramp)");
  }
  if (spec.HasParam("protocol.phase_stream") && !out.random_phases) {
    return Status::InvalidArgument(
        "protocol.phase_stream only applies with protocol.random_phases");
  }
  out.params.epoch_length = static_cast<int>(epoch_length);
  out.phase_spread = static_cast<int>(phase_spread);
  out.phase_stream = static_cast<uint64_t>(phase_stream);
  return out;
}

Result<FullTransferParams> ParseFullTransferSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(
      spec.CheckParams("protocol.", {"lambda", "parcels", "window"}));
  FullTransferParams params;
  DYNAGG_ASSIGN_OR_RETURN(params.lambda,
                          spec.ParamDouble("protocol.lambda", 0.1));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t parcels,
                          spec.ParamInt("protocol.parcels", 4));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t window,
                          spec.ParamInt("protocol.window", 3));
  if (parcels < 1 || window < 1) {
    return Status::InvalidArgument(
        "protocol.parcels and protocol.window must be >= 1");
  }
  params.parcels = static_cast<int>(parcels);
  params.window = static_cast<int>(window);
  return params;
}

// ------------------------------------------------------- truth families ---
//
// Each build step below pairs its swarm with a truth family (SwarmParts in
// scenario/swarm_registration.h). The families that know per-group truths
// are the ones that make a protocol trace-capable.

/// Averaging swarms: Estimate() per host, the live average of the value
/// workload as truth, per-group means for trace playback, and the values
/// backing kill_top_fraction.
struct AverageTruth {
  const std::vector<double>* values;
  template <typename Swarm>
  double Estimate(const Swarm& swarm, HostId id) const {
    return swarm.Estimate(id);
  }
  double operator()(const Population& pop) const {
    return TrueAverage(*values, pop);
  }
  std::vector<double> GroupTruths(const std::vector<int>& labels,
                                  const std::vector<int>& sizes) const {
    return GroupMeans(labels, sizes, *values);
  }
};

/// Counting swarms: EstimateCount() per host, the live total count as
/// truth; trace playback compares the per-identifier estimate scaled back
/// to devices against the host's group size (Fig 11's dynamic size).
struct CountTruth {
  const std::vector<int64_t>* mult;
  template <typename Swarm>
  double Estimate(const Swarm& swarm, HostId id) const {
    return swarm.EstimateCount(id);
  }
  double operator()(const Population& pop) const {
    int64_t total = 0;
    for (const HostId id : pop.alive_ids()) total += (*mult)[id];
    return static_cast<double>(total);
  }
  template <typename Swarm>
  double GroupEstimate(const Swarm& swarm, HostId id) const {
    return swarm.EstimateCount(id) / static_cast<double>((*mult)[id]);
  }
  std::vector<double> GroupTruths(const std::vector<int>&,
                                  const std::vector<int>& sizes) const {
    return std::vector<double>(sizes.begin(), sizes.end());
  }
};

// ---------------------------------------------------------- swarm boxes ---

/// Owns a per-host workload (values, or multiplicities for the counting
/// sketches) plus the swarm built over it (swarm constructors take the
/// workload by reference, so member order matters).
template <typename Swarm, typename Workload = std::vector<double>>
struct SwarmBox {
  Workload workload;
  Swarm swarm;
  template <typename... Args>
  explicit SwarmBox(Workload w, Args&&... args)
      : workload(std::move(w)), swarm(workload, std::forward<Args>(args)...) {}
};

/// An averaging swarm over the trial's U[0,100) value workload; `args`
/// follow the values in the swarm's constructor.
template <typename Swarm, typename... Args>
SwarmParts<Swarm, AverageTruth> AveragingSwarm(const TrialContext& ctx,
                                               int n, double state_bytes,
                                               Args&&... args) {
  auto box = std::make_shared<SwarmBox<Swarm>>(
      UniformWorkloadValues(n, ctx.trial_seed), std::forward<Args>(args)...);
  return {box, &box->swarm, AverageTruth{&box->workload}, state_bytes};
}

// --------------------------------------------------- averaging protocols ---

SwarmParts<PushSumSwarm, AverageTruth> BuildPushSum(const TrialContext& ctx,
                                                    int n, GossipMode mode) {
  return AveragingSwarm<PushSumSwarm>(ctx, n, 2.0 * sizeof(double), mode);
}

SwarmParts<PushFlowSwarm, AverageTruth> BuildPushFlow(const TrialContext& ctx,
                                                      int n, NoParams) {
  // State: the initial value, the two flow sums, plus the sparse per-edge
  // flow entries (amortized ~one long-lived neighbor under uniform push).
  return AveragingSwarm<PushFlowSwarm>(ctx, n, 6.0 * sizeof(double));
}

SwarmParts<PushSumRevertSwarm, AverageTruth> BuildPushSumRevert(
    const TrialContext& ctx, int n, const PsrParams& params) {
  return AveragingSwarm<PushSumRevertSwarm>(ctx, n, 3.0 * sizeof(double),
                                            params);
}

SwarmParts<EpochPushSumSwarm, AverageTruth> BuildEpochPushSum(
    const TrialContext& ctx, int n, const EpochSpecParams& cfg) {
  std::vector<int> phases;
  if (cfg.phase_spread > 0) {
    phases.resize(n);
    for (int i = 0; i < n; ++i) {
      phases[i] = i % cfg.phase_spread;
    }
  } else if (cfg.random_phases) {
    // The epoch ablation's skewed-clocks mode: every host starts at a
    // uniformly random phase of the epoch.
    phases.resize(n);
    Rng prng(DeriveSeed(ctx.trial_seed, cfg.phase_stream));
    for (int i = 0; i < n; ++i) {
      phases[i] = static_cast<int>(
          prng.UniformInt(static_cast<uint64_t>(cfg.params.epoch_length)));
    }
  }
  return AveragingSwarm<EpochPushSumSwarm>(ctx, n, /*state_bytes=*/0.0,
                                           cfg.params, phases);
}

SwarmParts<FullTransferSwarm, AverageTruth> BuildFullTransfer(
    const TrialContext& ctx, int n, const FullTransferParams& params) {
  // State: the mass plus the estimate window of <weight, value> pairs.
  const double state_bytes =
      (2.0 + 2.0 * static_cast<double>(params.window)) * sizeof(double);
  return AveragingSwarm<FullTransferSwarm>(ctx, n, state_bytes, params);
}

// ------------------------------------------------------------- extremes ---

Result<ExtremeParams> ParseExtremesSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(
      spec.CheckParams("protocol.", {"kind", "cutoff", "mode"}));
  DYNAGG_ASSIGN_OR_RETURN(const std::string kind_name,
                          spec.ParamString("protocol.kind", "max"));
  ExtremeParams params;
  if (kind_name == "max") {
    params.kind = ExtremeKind::kMaximum;
  } else if (kind_name == "min") {
    params.kind = ExtremeKind::kMinimum;
  } else {
    return Status::InvalidArgument(
        "protocol.kind must be max or min, got '" + kind_name + "'");
  }
  DYNAGG_ASSIGN_OR_RETURN(const int64_t cutoff,
                          spec.ParamInt("protocol.cutoff", 12));
  if (cutoff < 0) {
    return Status::InvalidArgument("protocol.cutoff must be >= 0");
  }
  params.cutoff = static_cast<int>(cutoff);
  DYNAGG_ASSIGN_OR_RETURN(params.mode, ParseGossipMode(spec));
  return params;
}

/// The live maximum (or minimum) of the value workload.
struct ExtremeTruth {
  const std::vector<double>* values;
  ExtremeKind kind;
  double Estimate(const DynamicExtremeSwarm& swarm, HostId id) const {
    return swarm.Estimate(id);
  }
  double operator()(const Population& pop) const {
    bool first = true;
    double best = 0.0;
    for (const HostId id : pop.alive_ids()) {
      const double v = (*values)[id];
      if (first || (kind == ExtremeKind::kMaximum ? v > best : v < best)) {
        best = v;
        first = false;
      }
    }
    return best;
  }
};

SwarmParts<DynamicExtremeSwarm, ExtremeTruth> BuildExtremes(
    const TrialContext& ctx, int n, const ExtremeParams& params) {
  // Host ids as keys; the swarm copies them into its nodes.
  std::vector<uint64_t> keys(n);
  std::iota(keys.begin(), keys.end(), uint64_t{0});
  auto box = std::make_shared<SwarmBox<DynamicExtremeSwarm>>(
      UniformWorkloadValues(n, ctx.trial_seed), keys, params);
  return {box, &box->swarm, ExtremeTruth{&box->workload, params.kind},
          /*state_bytes=*/0.0};
}

// ---------------------------------------------------- counting protocols ---

/// A parsed protocol.multiplicity: a per-host identifier count >= 0, or
/// the symbolic value `workload` (round(v) for the paper's U[0,100) value
/// workload — the multiple-insertion summation of the Invert-Average
/// ablation, Section IV.B).
struct Multiplicity {
  bool workload = false;
  int64_t count = 1;  // every host's count unless `workload`
};

Result<Multiplicity> ParseMultiplicity(const ScenarioSpec& spec) {
  DYNAGG_ASSIGN_OR_RETURN(const std::string text,
                          spec.ParamString("protocol.multiplicity", "1"));
  Multiplicity out;
  if (text == "workload") {
    // Workload multiplicities include 0 (values < 0.5); the trace driver's
    // group estimate divides by the multiplicity.
    if (spec.driver == "trace") {
      return Status::InvalidArgument(
          "driver = trace does not support protocol.multiplicity = "
          "workload (group sizes are measured in devices)");
    }
    out.workload = true;
    return out;
  }
  DYNAGG_ASSIGN_OR_RETURN(out.count,
                          spec.ParamInt("protocol.multiplicity", 1));
  if (out.count < 0) {
    return Status::InvalidArgument("protocol.multiplicity must be >= 0");
  }
  // The trace driver's group estimate divides by the multiplicity to
  // compare counts against group sizes; 0 would silently print inf.
  if (out.count < 1 && spec.driver == "trace") {
    return Status::InvalidArgument(
        "driver = trace requires protocol.multiplicity >= 1 (group sizes "
        "are measured in devices)");
  }
  return out;
}

/// The per-host multiplicities of one trial.
std::vector<int64_t> Multiplicities(const Multiplicity& m,
                                    const TrialContext& ctx, int n) {
  if (!m.workload) return std::vector<int64_t>(n, m.count);
  const std::vector<double> values = UniformWorkloadValues(n, ctx.trial_seed);
  std::vector<int64_t> mult(n);
  for (int i = 0; i < n; ++i) mult[i] = static_cast<int64_t>(values[i] + 0.5);
  return mult;
}

/// Shared bins/levels validation of the sketch protocols.
Status CheckSketchShape(int64_t bins, int64_t levels) {
  if (bins < 1 || levels < 1 || levels > kCsrMaxLevels) {
    return Status::InvalidArgument(
        "protocol.bins must be >= 1 and protocol.levels in [1, " +
        std::to_string(kCsrMaxLevels) + "]");
  }
  return Status::OK();
}

/// Modelled gossip payload of one sketch state flowing both ways per
/// initiated push/pull exchange, times the number of simultaneously
/// maintained attributes (the Invert-Average ablation's cost model):
/// bins x levels counter bytes plus an 8-byte header.
double SketchGossipBytes(int bins, int levels, int64_t attributes) {
  return static_cast<double>(attributes) *
         (2.0 * (static_cast<double>(bins) * levels + 8.0));
}

struct CountSketchSpecParams {
  CountSketchParams params;
  Multiplicity multiplicity;
};

Result<CountSketchSpecParams> ParseCountSketchSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "protocol.", {"bins", "levels", "mode", "multiplicity"}));
  CountSketchSpecParams out;
  DYNAGG_ASSIGN_OR_RETURN(out.multiplicity, ParseMultiplicity(spec));
  CountSketchParams& params = out.params;
  DYNAGG_ASSIGN_OR_RETURN(const int64_t bins,
                          spec.ParamInt("protocol.bins", params.bins));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t levels,
                          spec.ParamInt("protocol.levels", params.levels));
  DYNAGG_RETURN_IF_ERROR(CheckSketchShape(bins, levels));
  DYNAGG_ASSIGN_OR_RETURN(params.mode, ParseGossipMode(spec));
  params.bins = static_cast<int>(bins);
  params.levels = static_cast<int>(levels);
  return out;
}

SwarmParts<CountSketchSwarm, CountTruth> BuildCountSketch(
    const TrialContext& ctx, int n, const CountSketchSpecParams& cfg) {
  auto box =
      std::make_shared<SwarmBox<CountSketchSwarm, std::vector<int64_t>>>(
          Multiplicities(cfg.multiplicity, ctx, n), cfg.params);
  // One uint64 bit string per bin.
  return SwarmParts<CountSketchSwarm, CountTruth>{
      box, &box->swarm, CountTruth{&box->workload},
      static_cast<double>(cfg.params.bins) * sizeof(uint64_t)};
}

/// Parses the q list of a `counter_quantiles(q1, q2, ...)` selector (the
/// per-bit bucketed counter-age quantiles of the spatial ablation), or an
/// empty list when the spec does not request it.
Result<std::vector<double>> ParseCounterQuantilesSpec(
    const ScenarioSpec& spec) {
  std::vector<double> qs;
  for (const MetricSpec& m : spec.metrics) {
    if (m.name != "counter_quantiles") continue;
    const std::string bad =
        "metric '" + m.ToString() +
        "': counter_quantiles takes a comma-separated list of quantiles "
        "in [0, 1]";
    size_t start = 0;
    for (size_t i = 0; i <= m.arg.size(); ++i) {
      if (i < m.arg.size() && m.arg[i] != ',') continue;
      const Result<double> q = ParseDouble(m.arg.substr(start, i - start));
      if (!q.ok() || !(*q >= 0.0 && *q <= 1.0)) {
        return Status::InvalidArgument(bad);
      }
      qs.push_back(*q);
      start = i + 1;
    }
    if (qs.empty()) return Status::InvalidArgument(bad);
  }
  return qs;
}

struct CsrSpecParams {
  CsrParams params;
  Multiplicity multiplicity;
  int64_t attributes = 1;
  // The finish hook's selectors and record.* knobs (see below).
  bool counter_cdf = false;
  int64_t max_counter = 12;
  std::vector<double> counter_quantiles;  // empty = not requested
  double counter_hist_max = 64.0;
  int64_t counter_hist_buckets = 64;
};

double GossipBytesModel(const CsrSwarm&, const CsrSpecParams& cfg) {
  return SketchGossipBytes(cfg.params.bins, cfg.params.levels,
                           cfg.attributes);
}

Result<CsrSpecParams> ParseCsrSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "protocol.", {"bins", "levels", "cutoff_base", "cutoff_slope",
                    "cutoff_enabled", "mode", "multiplicity", "attributes"}));
  CsrSpecParams out;
  DYNAGG_ASSIGN_OR_RETURN(out.multiplicity, ParseMultiplicity(spec));
  DYNAGG_ASSIGN_OR_RETURN(out.counter_quantiles,
                          ParseCounterQuantilesSpec(spec));
  CsrParams& params = out.params;
  DYNAGG_ASSIGN_OR_RETURN(const int64_t bins,
                          spec.ParamInt("protocol.bins", params.bins));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t levels,
                          spec.ParamInt("protocol.levels", params.levels));
  DYNAGG_RETURN_IF_ERROR(CheckSketchShape(bins, levels));
  DYNAGG_ASSIGN_OR_RETURN(
      params.cutoff_base,
      spec.ParamDouble("protocol.cutoff_base", params.cutoff_base));
  DYNAGG_ASSIGN_OR_RETURN(
      params.cutoff_slope,
      spec.ParamDouble("protocol.cutoff_slope", params.cutoff_slope));
  DYNAGG_ASSIGN_OR_RETURN(
      params.cutoff_enabled,
      spec.ParamBool("protocol.cutoff_enabled", params.cutoff_enabled));
  DYNAGG_ASSIGN_OR_RETURN(params.mode, ParseGossipMode(spec));
  DYNAGG_ASSIGN_OR_RETURN(out.attributes,
                          spec.ParamInt("protocol.attributes", 1));
  if (out.attributes < 1) {
    return Status::InvalidArgument("protocol.attributes must be >= 1");
  }
  params.bins = static_cast<int>(bins);
  params.levels = static_cast<int>(levels);
  out.counter_cdf = MetricRequested(spec, "cdf(counter)");
  DYNAGG_ASSIGN_OR_RETURN(out.max_counter,
                          spec.ParamInt("record.max_counter", 12));
  if (out.max_counter < 1 || out.max_counter >= kCsrInfinity) {
    return Status::InvalidArgument("record.max_counter must be in [1, 254]");
  }
  DYNAGG_ASSIGN_OR_RETURN(out.counter_hist_max,
                          spec.ParamDouble("record.counter_hist_max", 64.0));
  DYNAGG_ASSIGN_OR_RETURN(out.counter_hist_buckets,
                          spec.ParamInt("record.counter_hist_buckets", 64));
  if (!(out.counter_hist_max > 0) || out.counter_hist_buckets < 1) {
    return Status::InvalidArgument(
        "record.counter_hist_max must be > 0 and "
        "record.counter_hist_buckets >= 1");
  }
  return out;
}

SwarmParts<CsrSwarm, CountTruth> BuildCountSketchReset(
    const TrialContext& ctx, int n, const CsrSpecParams& cfg) {
  auto box = std::make_shared<SwarmBox<CsrSwarm, std::vector<int64_t>>>(
      Multiplicities(cfg.multiplicity, ctx, n), cfg.params);
  CsrSwarm* swarm = &box->swarm;
  // One byte-sized age counter per (bin, level) slot.
  SwarmParts<CsrSwarm, CountTruth> parts{
      box, swarm, CountTruth{&box->workload},
      static_cast<double>(cfg.params.bins) * cfg.params.levels};

  // Fig 6's bit-counter distribution: pool the N[n][k] age counters over
  // all hosts and bins after the last round and report the per-bit CDF of
  // the finite counters (infinity = the level was never sourced), clamping
  // the deep tail into the last bucket. Every level is emitted so the
  // bucket structure is seed-independent (trials must align for pooling);
  // levels that effectively never appear (< n/100 + 1 finite counters, as
  // in the legacy harness) are suppressed at assembly via min_key_total —
  // after cross-trial pooling when aggregating.
  //
  // The second extra selector, counter_quantiles(q1, q2, ...), reports the
  // spatial ablation's per-bit counter-age quantiles instead: one series
  // point per sufficiently-sourced bit (>= n/50 + 1 finite counters, the
  // legacy convention), quantiles over a bucketed histogram spanning
  // [0, record.counter_hist_max) with record.counter_hist_buckets buckets.
  parts.finish = [swarm, cfg, n](const TrialContext&,
                                 Recorder& rec) -> Status {
    const CsrParams& params = cfg.params;
    if (cfg.counter_cdf) {
      const int max_c = static_cast<int>(cfg.max_counter);
      std::vector<std::vector<int64_t>> histograms(
          params.levels, std::vector<int64_t>(max_c + 1, 0));
      for (HostId id = 0; id < n; ++id) {
        const CountSketchResetNode& node = swarm->node(id);
        for (int b = 0; b < params.bins; ++b) {
          for (int k = 0; k < params.levels; ++k) {
            const uint8_t c = node.counter(b, k);
            if (c == kCsrInfinity) continue;
            ++histograms[k][c <= max_c ? c : max_c];
          }
        }
      }
      HistogramRecord* record = rec.MutableHistogram(
          "counter_cdf", /*key_name=*/"bit", "counter_value", "cdf",
          /*cumulative=*/true, /*min_key_total=*/n / 100 + 1);
      for (int k = 0; k < params.levels; ++k) {
        for (int c = 0; c <= max_c; ++c) {
          record->buckets.push_back({static_cast<double>(k),
                                     static_cast<double>(c),
                                     histograms[k][c]});
        }
      }
    }
    if (!cfg.counter_quantiles.empty()) {
      for (int k = 0; k < params.levels; ++k) {
        Histogram hist(0, cfg.counter_hist_max,
                       static_cast<int>(cfg.counter_hist_buckets));
        int64_t finite = 0;
        for (HostId id = 0; id < n; ++id) {
          const CountSketchResetNode& node = swarm->node(id);
          for (int b = 0; b < params.bins; ++b) {
            const uint8_t c = node.counter(b, k);
            if (c == kCsrInfinity) continue;
            hist.Add(c);
            ++finite;
          }
        }
        // Skip bits that effectively never appear, as the legacy spatial
        // ablation did (quantiles of a near-empty histogram are noise).
        if (finite < n / 50 + 1) continue;
        for (const double q : cfg.counter_quantiles) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%g", q * 100.0);
          rec.AddSeriesPoint("bit", "counter_p" + std::string(buf),
                             static_cast<double>(k), hist.Quantile(q));
        }
      }
    }
    return Status::OK();
  };
  return parts;
}

// ------------------------------------------------------- invert-average ---

struct InvertAverageSpecParams {
  InvertAverageParams params;
  int64_t attributes = 1;
};

/// One shared size sketch plus two doubles of Push-Sum state per summed
/// attribute, both directions per initiated exchange.
double GossipBytesModel(const InvertAverageSwarm&,
                        const InvertAverageSpecParams& cfg) {
  return SketchGossipBytes(cfg.params.csr.bins, cfg.params.csr.levels, 1) +
         static_cast<double>(cfg.attributes) * 2.0 * (2.0 * sizeof(double));
}

Result<InvertAverageSpecParams> ParseInvertAverageSpec(
    const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "protocol.", {"lambda", "bins", "levels", "multiplicity",
                    "attributes"}));
  InvertAverageSpecParams out;
  InvertAverageParams& params = out.params;
  DYNAGG_ASSIGN_OR_RETURN(
      params.psr.lambda,
      spec.ParamDouble("protocol.lambda", params.psr.lambda));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t bins,
                          spec.ParamInt("protocol.bins", params.csr.bins));
  DYNAGG_ASSIGN_OR_RETURN(
      const int64_t levels,
      spec.ParamInt("protocol.levels", params.csr.levels));
  DYNAGG_RETURN_IF_ERROR(CheckSketchShape(bins, levels));
  DYNAGG_ASSIGN_OR_RETURN(
      params.count_multiplicity,
      spec.ParamInt("protocol.multiplicity", params.count_multiplicity));
  if (params.count_multiplicity < 1) {
    return Status::InvalidArgument("protocol.multiplicity must be >= 1");
  }
  DYNAGG_ASSIGN_OR_RETURN(out.attributes,
                          spec.ParamInt("protocol.attributes", 1));
  if (out.attributes < 1) {
    return Status::InvalidArgument("protocol.attributes must be >= 1");
  }
  params.csr.bins = static_cast<int>(bins);
  params.csr.levels = static_cast<int>(levels);
  return out;
}

/// Invert-Average's dynamic sum: EstimateSum() per host, the live sum of
/// the value workload as truth.
struct SumTruth {
  const std::vector<double>* values;
  double Estimate(const InvertAverageSwarm& swarm, HostId id) const {
    return swarm.EstimateSum(id);
  }
  double operator()(const Population& pop) const {
    return TrueSum(*values, pop);
  }
};

/// Invert-Average (agg/invert_average.h): dynamic summation as
/// Count-Sketch-Reset network size x Push-Sum-Revert average. The sketch
/// cost is amortized across protocol.attributes simultaneous sums while
/// each sum only adds two doubles of Push-Sum traffic — the bandwidth
/// argument of Section IV.B, modelled by the gossip_bytes record.
SwarmParts<InvertAverageSwarm, SumTruth> BuildInvertAverage(
    const TrialContext& ctx, int n, const InvertAverageSpecParams& cfg) {
  const InvertAverageParams& params = cfg.params;
  auto box = std::make_shared<SwarmBox<InvertAverageSwarm>>(
      UniformWorkloadValues(n, ctx.trial_seed), params);
  // Push-Sum-Revert mass (3 doubles) plus the CSR counter array.
  const double state_bytes =
      3.0 * sizeof(double) +
      static_cast<double>(params.csr.bins) * params.csr.levels;
  return {box, &box->swarm, SumTruth{&box->workload}, state_bytes};
}

// ---------------------------------------------------- serialized facade ---

/// A population of NodeAggregator facades (agg/aggregator.h) gossiping
/// through their serialized wire payloads — the deployment path, driven
/// like a swarm. Exchanges are sequential within a round in a shuffled
/// alive order, mirroring the push/pull swarms: each initiator serializes
/// its request, the peer merges it and replies, the initiator merges the
/// reply and closes its round.
class NodeAggregatorSwarm {
 public:
  NodeAggregatorSwarm(const std::vector<double>& values,
                      const AggregatorConfig& config) {
    aggs_.reserve(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      aggs_.emplace_back(/*device_id=*/static_cast<uint64_t>(i), values[i],
                         config);
    }
  }

  void RunRound(const Environment& env, const Population& pop, Rng& rng) {
    kernel_.PlanExchangeRound(env, pop, rng);
    kernel_.ForEachSlot([this](HostId i, HostId peer) {
      const std::vector<uint8_t> request = aggs_[i].BeginRound();
      if (peer != kInvalidHost) {
        Result<std::vector<uint8_t>> reply =
            aggs_[peer].HandleMessage(request);
        // In-process payloads cannot be malformed; a failure is a bug.
        DYNAGG_CHECK(reply.ok());
        DYNAGG_CHECK(aggs_[i].HandleReply(*reply).ok());
        if (meter_ != nullptr) {
          meter_->RecordMessage(static_cast<int64_t>(request.size()));
          meter_->RecordMessage(static_cast<int64_t>(reply->size()));
        }
      }
      aggs_[i].EndRound();
    });
  }

  const NodeAggregator& device(HostId id) const { return aggs_[id]; }
  void set_traffic_meter(TrafficMeter* meter) { meter_ = meter; }

 private:
  std::vector<NodeAggregator> aggs_;
  TrafficMeter* meter_ = nullptr;
  RoundKernel kernel_;
};

/// Which aggregate the node-aggregator experiment measures
/// (protocol.metric).
enum class AggregatorMetric { kAverage, kCount, kSum };

struct NodeAggregatorSpecParams {
  AggregatorConfig config;
  AggregatorMetric metric = AggregatorMetric::kAverage;
};

Result<NodeAggregatorSpecParams> ParseNodeAggregatorSpec(
    const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "protocol.", {"lambda", "bins", "levels", "multiplicity", "metric"}));
  NodeAggregatorSpecParams out;
  AggregatorConfig& config = out.config;
  DYNAGG_ASSIGN_OR_RETURN(config.lambda,
                          spec.ParamDouble("protocol.lambda", config.lambda));
  DYNAGG_ASSIGN_OR_RETURN(
      const int64_t bins,
      spec.ParamInt("protocol.bins", config.csr.bins));
  DYNAGG_ASSIGN_OR_RETURN(
      const int64_t levels,
      spec.ParamInt("protocol.levels", config.csr.levels));
  DYNAGG_ASSIGN_OR_RETURN(
      config.count_multiplicity,
      spec.ParamInt("protocol.multiplicity", config.count_multiplicity));
  DYNAGG_ASSIGN_OR_RETURN(const std::string metric,
                          spec.ParamString("protocol.metric", "average"));
  if (config.lambda < 0.0 || config.lambda > 1.0) {
    return Status::InvalidArgument("protocol.lambda must be in [0, 1]");
  }
  DYNAGG_RETURN_IF_ERROR(CheckSketchShape(bins, levels));
  if (config.count_multiplicity < 1) {
    return Status::InvalidArgument("protocol.multiplicity must be >= 1");
  }
  if (metric == "average") {
    out.metric = AggregatorMetric::kAverage;
  } else if (metric == "count") {
    out.metric = AggregatorMetric::kCount;
  } else if (metric == "sum") {
    out.metric = AggregatorMetric::kSum;
  } else {
    return Status::InvalidArgument(
        "protocol.metric must be average, count or sum, got '" + metric +
        "'");
  }
  config.csr.bins = static_cast<int>(bins);
  config.csr.levels = static_cast<int>(levels);
  return out;
}

/// The facade's estimate of protocol.metric against the live aggregate of
/// the value workload (the alive count for `count`).
struct AggregatorTruth {
  const std::vector<double>* values;
  AggregatorMetric metric;
  double Estimate(const NodeAggregatorSwarm& swarm, HostId id) const {
    const NodeAggregator& device = swarm.device(id);
    switch (metric) {
      case AggregatorMetric::kAverage:
        return device.AverageEstimate();
      case AggregatorMetric::kCount:
        return device.CountEstimate();
      case AggregatorMetric::kSum:
        return device.SumEstimate();
    }
    return 0.0;
  }
  double operator()(const Population& pop) const {
    switch (metric) {
      case AggregatorMetric::kAverage:
        return TrueAverage(*values, pop);
      case AggregatorMetric::kCount:
        return static_cast<double>(pop.num_alive());
      case AggregatorMetric::kSum:
        return TrueSum(*values, pop);
    }
    return 0.0;
  }
};

SwarmParts<NodeAggregatorSwarm, AggregatorTruth> BuildNodeAggregator(
    const TrialContext& ctx, int n, const NodeAggregatorSpecParams& parsed) {
  const AggregatorConfig& config = parsed.config;
  auto box = std::make_shared<SwarmBox<NodeAggregatorSwarm>>(
      UniformWorkloadValues(n, ctx.trial_seed), config);
  // Push-Sum-Revert mass (3 doubles) plus the CSR counter array.
  const double state_bytes =
      3.0 * sizeof(double) +
      static_cast<double>(config.csr.bins) * config.csr.levels;
  return {box, &box->swarm, AggregatorTruth{&box->workload, parsed.metric},
          state_bytes};
}

// ------------------------------------------------- sketch accuracy table ---

/// Monte-Carlo FM-sketch accuracy (the in-text "64 buckets for an expected
/// error of 9.7%" table, formerly bench/tab_sketch_error): inserts
/// protocol.count unique objects into a fresh sketch protocol.samples times
/// and reports the relative-error statistics of the estimator. No gossip,
/// no environment, no rounds — a whole-trial runner swept over
/// protocol.buckets. The seed convention (DeriveSeed(seed, sample * 1000 +
/// buckets)) reproduces the retired bench main bit-identically.
struct FmAccuracySpecParams {
  int64_t buckets = 64;
  int64_t levels = 32;
  int64_t samples = 200;
  int64_t count = 20000;
};

Result<FmAccuracySpecParams> ParseFmAccuracySpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(
      spec.CheckParams("protocol.", {"buckets", "levels", "samples", "count"}));
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("seeds.", {}));
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("record.", {}));
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("failure.", {}));
  // The default `rms` selector maps onto the protocol's own error scalars,
  // the tag-tree convention for custom runners.
  DYNAGG_RETURN_IF_ERROR(CheckMetricsSupported(spec, {"rms"}));
  FmAccuracySpecParams out;
  DYNAGG_ASSIGN_OR_RETURN(out.buckets,
                          spec.ParamInt("protocol.buckets", out.buckets));
  DYNAGG_ASSIGN_OR_RETURN(out.levels,
                          spec.ParamInt("protocol.levels", out.levels));
  DYNAGG_ASSIGN_OR_RETURN(out.samples,
                          spec.ParamInt("protocol.samples", out.samples));
  DYNAGG_ASSIGN_OR_RETURN(out.count,
                          spec.ParamInt("protocol.count", out.count));
  if (out.buckets < 1 || out.levels < 1 || out.samples < 1 ||
      out.count < 1) {
    return Status::InvalidArgument(
        "protocol.buckets, protocol.levels, protocol.samples and "
        "protocol.count must be >= 1");
  }
  return out;
}

Status RunFmAccuracy(const TrialContext& ctx, Recorder& rec) {
  DYNAGG_ASSIGN_OR_RETURN(const FmAccuracySpecParams cfg,
                          ParseFmAccuracySpec(*ctx.spec));
  const int64_t buckets = cfg.buckets;
  const int64_t levels = cfg.levels;
  const int64_t samples = cfg.samples;
  const int64_t count = cfg.count;

  RunningStat rel_error;
  RunningStat signed_error;
  for (int64_t sample = 0; sample < samples; ++sample) {
    FmSketch sketch(static_cast<int>(buckets), static_cast<int>(levels));
    const uint64_t sample_seed =
        DeriveSeed(ctx.trial_seed, sample * 1000 + buckets);
    for (int64_t i = 0; i < count; ++i) {
      sketch.InsertObject(HashCombine(sample_seed, i), sample_seed);
    }
    const double rel = (sketch.EstimateCount() - count) / count;
    rel_error.Add(std::abs(rel));
    signed_error.Add(rel);
  }
  rec.AddScalar("mean_rel_error", rel_error.mean());
  rec.AddScalar("rms_rel_error",
                std::sqrt(rel_error.mean() * rel_error.mean() +
                          rel_error.variance()));
  rec.AddScalar("bias", signed_error.mean());
  return Status::OK();
}

// ------------------------------------------------------ overlay baseline ---

/// TAG spanning-tree aggregation over repeated epochs under churn,
/// reproducing the loop of ablation_tree_vs_gossip: each epoch floods a
/// fresh BFS tree from the root, runs one tree-depth-sized epoch under a
/// churn plan drawn from a shared stream, revives the leader, and records
/// the leader's error against the live truth. The default `rms` metric
/// selector maps onto the protocol's own error scalars
/// (tag_mean_abs_err, tag_failed_epochs_pct). Epochs are tree-depth-sized
/// rather than fixed-length, so this protocol owns its whole trial loop
/// (ProtocolDef::run_custom) instead of registering a SwarmFactory.
struct TagTreeSpecParams {
  int64_t epochs = 30;
  int64_t root = 0;
  FailureConfig fail;
};

Result<TagTreeSpecParams> ParseTagTreeSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("protocol.", {"epochs", "root"}));
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("seeds.", {"round_stream",
                                                     "failure_stream"}));
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("record.", {}));
  DYNAGG_RETURN_IF_ERROR(CheckMetricsSupported(spec, {"rms"}));
  TagTreeSpecParams out;
  DYNAGG_ASSIGN_OR_RETURN(out.epochs,
                          spec.ParamInt("protocol.epochs", out.epochs));
  DYNAGG_ASSIGN_OR_RETURN(out.root, spec.ParamInt("protocol.root", 0));
  DYNAGG_ASSIGN_OR_RETURN(out.fail, ParseFailureConfig(spec));
  if (out.fail.kind != FailureConfig::Kind::kNone &&
      out.fail.kind != FailureConfig::Kind::kChurn) {
    return Status::InvalidArgument(
        "tag-tree supports failure.kind none or churn");
  }
  if (out.epochs < 1) {
    return Status::InvalidArgument("protocol.epochs must be >= 1");
  }
  return out;
}

Status RunTagTree(const TrialContext& ctx, Recorder& rec) {
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_ASSIGN_OR_RETURN(const TagTreeSpecParams cfg,
                          ParseTagTreeSpec(spec));
  const int64_t epochs = cfg.epochs;
  const int64_t root_id = cfg.root;
  const FailureConfig& fail = cfg.fail;
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t fail_stream,
                          FailureStream(spec, fail));

  DYNAGG_ASSIGN_OR_RETURN(EnvHandle env, MakeEnvironment(ctx));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  const HostId root = static_cast<HostId>(root_id);
  if (root < 0 || root >= n) {
    return Status::InvalidArgument("protocol.root out of range");
  }
  const std::vector<double> values = UniformWorkloadValues(n, ctx.trial_seed);

  Rng churn_rng(DeriveSeed(ctx.trial_seed, fail_stream));
  Population pop(n);
  RunningStat err;
  int failed_epochs = 0;
  int round = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const SpanningTree tree = BuildBfsTree(*env.env, pop, root);
    FailurePlan churn;
    if (fail.kind == FailureConfig::Kind::kChurn) {
      churn = FailurePlan::Churn(n, round, round + tree.max_depth + 1,
                                 fail.death_prob, ChurnReturnProb(fail),
                                 churn_rng);
    }
    const TagEpochResult result =
        RunTagEpoch(tree, values, pop, churn, round);
    round += tree.max_depth + 1;
    // Keep the leader alive so epochs stay comparable.
    pop.Revive(root);
    if (!result.valid || result.count == 0) {
      ++failed_epochs;
      continue;
    }
    const double truth = TrueAverage(values, pop);
    err.Add(std::abs(result.average - truth));
  }

  rec.AddScalar("tag_mean_abs_err", err.mean());
  rec.AddScalar("tag_failed_epochs_pct",
                100.0 * failed_epochs / static_cast<double>(epochs));
  return Status::OK();
}

// --------------------------------------------------- extremes ablation ---

struct ExtremeRecoverySpecParams {
  ExtremeParams extreme;
  double winner_value = 1000.0;
  double runner_up_value = 999.0;
  int64_t steady_rounds = 40;
  int64_t warmup_rounds = 15;
  int64_t sample_stride = 97;
  int64_t recover_rounds = 100;
  int64_t recover_pct = 95;
};

Result<ExtremeRecoverySpecParams> ParseExtremeRecoverySpec(
    const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "protocol.", {"cutoff", "mode", "winner_value", "runner_up_value",
                    "steady_rounds", "warmup_rounds", "sample_stride",
                    "recover_rounds", "recover_pct"}));
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("seeds.", {"round_stream"}));
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("record.", {}));
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("failure.", {}));
  // Like the other custom runners, the default `rms` selector stands for
  // the protocol's own scalar records.
  DYNAGG_RETURN_IF_ERROR(CheckMetricsSupported(spec, {"rms"}));
  ExtremeRecoverySpecParams out;
  DYNAGG_ASSIGN_OR_RETURN(const int64_t cutoff,
                          spec.ParamInt("protocol.cutoff", 12));
  DYNAGG_ASSIGN_OR_RETURN(out.extreme.mode, ParseGossipMode(spec));
  DYNAGG_ASSIGN_OR_RETURN(
      out.winner_value,
      spec.ParamDouble("protocol.winner_value", out.winner_value));
  DYNAGG_ASSIGN_OR_RETURN(
      out.runner_up_value,
      spec.ParamDouble("protocol.runner_up_value", out.runner_up_value));
  DYNAGG_ASSIGN_OR_RETURN(
      out.steady_rounds,
      spec.ParamInt("protocol.steady_rounds", out.steady_rounds));
  DYNAGG_ASSIGN_OR_RETURN(
      out.warmup_rounds,
      spec.ParamInt("protocol.warmup_rounds", out.warmup_rounds));
  DYNAGG_ASSIGN_OR_RETURN(
      out.sample_stride,
      spec.ParamInt("protocol.sample_stride", out.sample_stride));
  DYNAGG_ASSIGN_OR_RETURN(
      out.recover_rounds,
      spec.ParamInt("protocol.recover_rounds", out.recover_rounds));
  DYNAGG_ASSIGN_OR_RETURN(
      out.recover_pct,
      spec.ParamInt("protocol.recover_pct", out.recover_pct));
  if (cutoff < 0) {
    return Status::InvalidArgument("protocol.cutoff must be >= 0");
  }
  if (out.steady_rounds < 1 || out.warmup_rounds < 0 ||
      out.warmup_rounds >= out.steady_rounds) {
    return Status::InvalidArgument(
        "protocol.steady_rounds must be >= 1 and protocol.warmup_rounds in "
        "[0, steady_rounds)");
  }
  if (out.sample_stride < 1 || out.recover_rounds < 1 ||
      out.recover_pct < 1 || out.recover_pct > 100) {
    return Status::InvalidArgument(
        "protocol.sample_stride and protocol.recover_rounds must be >= 1 "
        "and protocol.recover_pct in [1, 100]");
  }
  out.extreme.cutoff = static_cast<int>(cutoff);
  return out;
}

/// The dynamic-extreme cutoff ablation (the paper's recipe applied to
/// max): a planted winner gossips to steady state while the runner counts
/// how many sampled hosts hold the true max and how often a too-small
/// cutoff expires the live winner (flicker); then the winner departs and
/// the runner counts rounds until a quorum of hosts reports the surviving
/// runner-up. Two phases with a mid-trial targeted kill and
/// quorum-early-exit fit no shared driver, so this is a whole-trial
/// runner; it emits steady_correct_pct / flicker_pct / rounds_to_recover
/// (-1 = never, the static cutoff = 0 mode).
Status RunExtremeRecovery(const TrialContext& ctx, Recorder& rec) {
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_ASSIGN_OR_RETURN(const ExtremeRecoverySpecParams cfg,
                          ParseExtremeRecoverySpec(spec));
  DYNAGG_ASSIGN_OR_RETURN(EnvHandle env, MakeEnvironment(ctx));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  if (n < 2) {
    return Status::InvalidArgument(
        "extreme-recovery needs at least 2 hosts (a winner and a "
        "runner-up)");
  }
  std::vector<double> values = UniformWorkloadValues(n, ctx.trial_seed);
  values[0] = cfg.winner_value;  // the winner that will depart
  values[1] = cfg.runner_up_value;
  std::vector<uint64_t> keys(n);
  std::iota(keys.begin(), keys.end(), uint64_t{0});
  DynamicExtremeSwarm swarm(values, keys, cfg.extreme);
  Population pop(n);
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t round_stream,
                          RoundStream(spec, ctx, n));
  Rng rng(DeriveSeed(ctx.trial_seed, round_stream));

  // Phase 1: steady state. Count sampled hosts holding the true max and
  // estimates that flicker (a too-small cutoff expires live candidates
  // between refreshes).
  int64_t correct = 0;
  int64_t flickers = 0;
  int64_t samples = 0;
  for (int64_t round = 0; round < cfg.steady_rounds; ++round) {
    swarm.RunRound(*env.env, pop, rng);
    if (round < cfg.warmup_rounds) continue;
    for (HostId id = 0; id < n; id += static_cast<int>(cfg.sample_stride)) {
      ++samples;
      if (swarm.Estimate(id) == cfg.winner_value) {
        ++correct;
      } else {
        ++flickers;
      }
    }
  }
  // Phase 2: the winner departs; count rounds until the quorum reports
  // the runner-up.
  pop.Kill(0);
  int recover = -1;
  for (int64_t round = 0; round < cfg.recover_rounds; ++round) {
    swarm.RunRound(*env.env, pop, rng);
    int64_t holding = 0;
    for (const HostId id : pop.alive_ids()) {
      if (swarm.Estimate(id) == cfg.runner_up_value) ++holding;
    }
    if (holding >=
        static_cast<int64_t>(pop.num_alive()) * cfg.recover_pct / 100) {
      recover = static_cast<int>(round) + 1;
      break;
    }
  }
  rec.AddScalar("steady_correct_pct",
                100.0 * static_cast<double>(correct) /
                    static_cast<double>(samples));
  rec.AddScalar("flicker_pct", 100.0 * static_cast<double>(flickers) /
                                   static_cast<double>(samples));
  rec.AddScalar("rounds_to_recover", static_cast<double>(recover));
  return Status::OK();
}

}  // namespace

namespace internal {

void RegisterBuiltinProtocols(Registry<ProtocolDef>& registry) {
  // Swarm protocols: RegisterSwarm derives each one's capabilities from its
  // swarm type and truth family.
  RegisterSwarm<PushSumSwarm, AverageTruth>(registry, "push-sum",
                                            ParsePushSumSpec, BuildPushSum);
  RegisterSwarm<PushFlowSwarm, AverageTruth>(registry, "push-flow",
                                             ParsePushFlowSpec, BuildPushFlow);
  RegisterSwarm<PushSumRevertSwarm, AverageTruth>(
      registry, "push-sum-revert", ParsePsrSpec, BuildPushSumRevert);
  RegisterSwarm<EpochPushSumSwarm, AverageTruth>(
      registry, "epoch-push-sum", ParseEpochSpec, BuildEpochPushSum);
  RegisterSwarm<FullTransferSwarm, AverageTruth>(
      registry, "full-transfer", ParseFullTransferSpec, BuildFullTransfer);
  RegisterSwarm<DynamicExtremeSwarm, ExtremeTruth>(
      registry, "extremes", ParseExtremesSpec, BuildExtremes);
  RegisterSwarm<CountSketchSwarm, CountTruth>(
      registry, "count-sketch", ParseCountSketchSpec, BuildCountSketch);
  RegisterSwarm<CsrSwarm, CountTruth>(
      registry, "count-sketch-reset", ParseCsrSpec, BuildCountSketchReset,
      {.extra_metrics = {"cdf(counter)", "counter_quantiles(*)"},
       .extra_record_keys = {"max_counter", "counter_hist_max",
                             "counter_hist_buckets"}});
  RegisterSwarm<InvertAverageSwarm, SumTruth>(
      registry, "invert-average", ParseInvertAverageSpec, BuildInvertAverage);
  // The serialized facade has no state-reset wire message yet, so it
  // cannot admit hosts (churn.* specs are rejected at --dry-run).
  RegisterSwarm<NodeAggregatorSwarm, AggregatorTruth>(
      registry, "node-aggregator", ParseNodeAggregatorSpec,
      BuildNodeAggregator);
  // Whole-trial runners: every entry carries a spec-only validate hook so
  // `--dry-run` rejects knob/protocol mismatches without running them.
  DYNAGG_CHECK(registry
                   .Register("tag-tree",
                             {.run_custom = RunTagTree,
                              .validate = SpecValidator(ParseTagTreeSpec)})
                   .ok());
  // Sweeps sketch parameters over synthetic multisets: no gossip topology,
  // so the spec's environment is never built (or validated).
  DYNAGG_CHECK(registry
                   .Register("fm-accuracy",
                             {.run_custom = RunFmAccuracy,
                              .uses_environment = false,
                              .validate = SpecValidator(ParseFmAccuracySpec)})
                   .ok());
  DYNAGG_CHECK(
      registry
          .Register("extreme-recovery",
                    {.run_custom = RunExtremeRecovery,
                     .validate = SpecValidator(ParseExtremeRecoverySpec)})
          .ok());
}

}  // namespace internal
}  // namespace scenario
}  // namespace dynagg
