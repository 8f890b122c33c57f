// Stream sketch protocols: count-min and count-sketch frequency estimation
// as gossip swarms (stream/stream_swarm.h) over the keyed stream workloads
// (workload.* keys; sim/workload.h).
//
// Spec surface:
//   protocol.epsilon / protocol.delta   accuracy target; the width is the
//                                       smallest power of two meeting it
//   protocol.width / protocol.depth     explicit shape overrides
//   workload.kind = zipf | uniform      key-draw distribution (required)
//   workload.keys / workload.batch      key-space size, arrivals per host
//                                       per round
//   workload.skew                       Zipf exponent (zipf only)
//   workload.rounds                     arrival rounds; -1 = every round
//   seeds.workload_stream               workload RNG stream (term-sum
//                                       grammar, default 3)
//
// Heavy-hitter records (finish hook): hh_precision(k) / hh_recall(k)
// against the tie-inclusive true heavy-hitter set, hh_weighted_err(k) over
// the true top-k, hh_frontier (whole-stream relative L1 error — the
// y axis of the sketch-bytes-vs-error frontier), and sketch_bytes (the
// x axis). All are averaged over hosts; rankings break ties by key id so
// the records are deterministic.

#include "stream/stream_protocols.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "common/status.h"
#include "scenario/config.h"
#include "scenario/spec.h"
#include "sim/workload.h"
#include "stream/freq_sketch.h"
#include "stream/stream_swarm.h"

namespace dynagg {
namespace scenario {
namespace {

using stream::SketchKind;
using stream::StreamSketchSwarm;
using stream::StreamSwarmParams;

/// The sketch hash geometry derives from DeriveSeed(trial_seed, 7): fixed
/// (not a seeds.* knob) so every host of a trial agrees on it, distinct
/// from the gossip (1), failure (2) and workload (3) streams.
constexpr uint64_t kSketchHashStream = 7;

/// Hard cap on counters per sketch: depth * width. A runaway epsilon
/// (protocol.epsilon = 1e-6) would otherwise allocate gigabytes per host.
constexpr int64_t kMaxSketchCells = int64_t{1} << 22;

struct StreamWorkloadParams {
  KeyStreamKind kind = KeyStreamKind::kZipf;
  uint64_t keys = 1000000;
  int batch = 16;
  double skew = 1.0;
  int rounds = -1;  // arrival rounds; -1 = every round
};

Result<StreamWorkloadParams> ParseStreamWorkloadSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "workload.", {"kind", "keys", "batch", "skew", "rounds"}));
  if (!spec.HasParam("workload.kind")) {
    return Status::InvalidArgument(
        "protocol '" + spec.protocol +
        "' consumes a keyed stream workload but the spec declares none: add "
        "workload.kind = zipf (skewed heavy-hitter traffic) or "
        "workload.kind = uniform (see `dynagg_run --list` for the workload "
        "catalog)");
  }
  StreamWorkloadParams out;
  DYNAGG_ASSIGN_OR_RETURN(const std::string kind,
                          spec.ParamString("workload.kind", "zipf"));
  if (kind == "zipf") {
    out.kind = KeyStreamKind::kZipf;
  } else if (kind == "uniform") {
    out.kind = KeyStreamKind::kUniform;
  } else {
    return Status::InvalidArgument(
        "workload.kind must be zipf or uniform, got '" + kind + "'");
  }
  DYNAGG_ASSIGN_OR_RETURN(const int64_t keys,
                          spec.ParamInt("workload.keys", 1000000));
  if (keys < 1) {
    return Status::InvalidArgument("workload.keys must be >= 1");
  }
  DYNAGG_ASSIGN_OR_RETURN(const int64_t batch,
                          spec.ParamInt("workload.batch", 16));
  if (batch < 1 || batch > 1000000) {
    return Status::InvalidArgument(
        "workload.batch must be in [1, 1000000] (arrivals per host per "
        "round)");
  }
  DYNAGG_ASSIGN_OR_RETURN(out.skew, spec.ParamDouble("workload.skew", 1.0));
  if (out.kind == KeyStreamKind::kUniform &&
      spec.HasParam("workload.skew")) {
    return Status::InvalidArgument(
        "workload.skew only applies to workload.kind = zipf");
  }
  if (out.kind == KeyStreamKind::kZipf &&
      (out.skew <= 0.0 || out.skew > 16.0)) {
    return Status::InvalidArgument(
        "workload.skew must be in (0, 16] (the Zipf exponent)");
  }
  DYNAGG_ASSIGN_OR_RETURN(const int64_t rounds,
                          spec.ParamInt("workload.rounds", -1));
  if (rounds != -1 && rounds < 1) {
    return Status::InvalidArgument(
        "workload.rounds must be >= 1 (arrival rounds, then gossip-only) "
        "or -1 (arrivals every round)");
  }
  out.keys = static_cast<uint64_t>(keys);
  out.batch = static_cast<int>(batch);
  out.rounds = static_cast<int>(rounds);
  return out;
}

/// One heavy-hitter metric selector, e.g. hh_precision(16).
struct HhSelector {
  enum class Kind { kPrecision, kRecall, kWeightedErr };
  Kind kind = Kind::kPrecision;
  int k = 0;
};

/// The selector kind a metric name spells, or nullopt for a non-hh_* name.
std::optional<HhSelector::Kind> HhSelectorKind(const std::string& name) {
  if (name == "hh_precision") return HhSelector::Kind::kPrecision;
  if (name == "hh_recall") return HhSelector::Kind::kRecall;
  if (name == "hh_weighted_err") return HhSelector::Kind::kWeightedErr;
  return std::nullopt;
}

Result<std::vector<HhSelector>> ParseHhSelectors(const ScenarioSpec& spec) {
  std::vector<HhSelector> out;
  for (const MetricSpec& m : spec.metrics) {
    const std::optional<HhSelector::Kind> kind = HhSelectorKind(m.name);
    if (!kind) continue;
    const Result<int64_t> k = ParseInt64(m.arg);
    if (!k.ok() || *k < 1 || *k > 1000000 ||
        m.arg != std::to_string(*k)) {
      return Status::InvalidArgument(
          m.ToString() + ": the argument must be a plain top-k size in "
          "[1, 1000000], e.g. " + m.name + "(16)");
    }
    out.push_back({*kind, static_cast<int>(*k)});
  }
  return out;
}

struct FreqSketchSpecParams {
  int depth = 0;
  int width = 0;
  StreamWorkloadParams workload;
  std::vector<HhSelector> selectors;  // the spec's hh_* records, in order
};

Result<FreqSketchSpecParams> ParseFreqSketchSpec(const ScenarioSpec& spec,
                                                 SketchKind kind) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "protocol.", {"epsilon", "delta", "width", "depth"}));
  DYNAGG_ASSIGN_OR_RETURN(const double epsilon,
                          spec.ParamDouble("protocol.epsilon", 0.05));
  DYNAGG_ASSIGN_OR_RETURN(const double delta,
                          spec.ParamDouble("protocol.delta", 0.05));
  if (epsilon <= 0.0 || epsilon > 0.5) {
    return Status::InvalidArgument(
        "protocol.epsilon must be in (0, 0.5] (additive error as a "
        "fraction of the stream mass)");
  }
  if (delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument(
        "protocol.delta must be in (0, 1) (per-key failure probability)");
  }
  FreqSketchSpecParams out;
  DYNAGG_ASSIGN_OR_RETURN(const int64_t width,
                          spec.ParamInt("protocol.width", 0));
  if (width == 0) {
    out.width = kind == SketchKind::kCountMin
                    ? stream::CountMinWidthForEpsilon(epsilon)
                    : stream::CountSketchWidthForEpsilon(epsilon);
  } else {
    if (width < 2 || width > (int64_t{1} << 20) ||
        (width & (width - 1)) != 0) {
      return Status::InvalidArgument(
          "protocol.width must be a power of two in [2, 2^20] (or 0 to "
          "derive it from protocol.epsilon)");
    }
    out.width = static_cast<int>(width);
  }
  DYNAGG_ASSIGN_OR_RETURN(const int64_t depth,
                          spec.ParamInt("protocol.depth", 0));
  if (depth == 0) {
    out.depth = stream::DepthForDelta(delta);
  } else {
    if (depth < 1 || depth > 64) {
      return Status::InvalidArgument(
          "protocol.depth must be in [1, 64] (or 0 to derive it from "
          "protocol.delta)");
    }
    out.depth = static_cast<int>(depth);
  }
  if (static_cast<int64_t>(out.depth) * out.width > kMaxSketchCells) {
    return Status::InvalidArgument(
        "sketch shape " + std::to_string(out.depth) + " x " +
        std::to_string(out.width) + " exceeds " +
        std::to_string(kMaxSketchCells) +
        " counters per host; raise protocol.epsilon / protocol.delta or "
        "set protocol.width / protocol.depth explicitly");
  }
  DYNAGG_ASSIGN_OR_RETURN(out.workload, ParseStreamWorkloadSpec(spec));
  DYNAGG_ASSIGN_OR_RETURN(out.selectors, ParseHhSelectors(spec));
  return out;
}

// ------------------------------------------------- heavy-hitter records ---

/// Emits the requested hh_* / sketch_bytes / hh_frontier scalars from the
/// swarm's final state against the workload generator's exact counts.
/// `selectors` are the spec's hh_* records as ParseHhSelectors returns them.
Status FinishHeavyHitters(const StreamSketchSwarm& swarm,
                          const std::vector<HhSelector>& selectors,
                          const TrialContext& ctx, Recorder& rec) {
  const ScenarioSpec& spec = *ctx.spec;
  if (MetricRequested(spec, "sketch_bytes")) {
    rec.AddScalar("sketch_bytes", static_cast<double>(swarm.sketch_bytes()));
  }
  const bool want_frontier = MetricRequested(spec, "hh_frontier");
  if (selectors.empty() && !want_frontier) return Status::OK();

  // Exact counts, sorted by (count desc, key asc) for a deterministic
  // ranking. truth[j] is the j-th true heavy hitter.
  std::vector<std::pair<uint64_t, double>> truth(swarm.TruthCounts().begin(),
                                                 swarm.TruthCounts().end());
  if (truth.empty()) {
    return Status::InvalidArgument(
        "hh_* metrics need a non-empty stream (workload.batch and "
        "workload.rounds produced no arrivals)");
  }
  std::sort(truth.begin(), truth.end(),
            [](const std::pair<uint64_t, double>& a,
               const std::pair<uint64_t, double>& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  const int m = static_cast<int>(truth.size());
  const double total = swarm.TruthTotal();

  // Host-independent per-selector constants. k clamps to m. For precision
  // and recall, `bound` is the size of the tie-inclusive true heavy-hitter
  // set: every key at least as frequent as the k-th (>= k keys; membership
  // is j < bound since truth is sorted). For weighted_err it is unused and
  // `mass` is the true top-k mass. `top` is the largest k a precision or
  // recall selector reads: only that ranked prefix of each host's
  // estimates is ever looked at.
  struct Scored {
    HhSelector::Kind kind;
    int k;
    int bound = 0;
    double mass = 0.0;
  };
  std::vector<Scored> scored;
  int top = 0;
  for (const HhSelector& sel : selectors) {
    Scored s{sel.kind, std::min(sel.k, m)};
    if (sel.kind == HhSelector::Kind::kWeightedErr) {
      for (int j = 0; j < s.k; ++j) s.mass += truth[j].second;
    } else {
      const double kth = truth[s.k - 1].second;
      s.bound = s.k;
      while (s.bound < m && truth[s.bound].second >= kth) ++s.bound;
      top = std::max(top, s.k);
    }
    scored.push_back(s);
  }

  // Precompute every truth key's slots (and signs) once; the per-host pass
  // below is then pure array reads.
  const stream::SketchHash& hash = swarm.hash();
  const int depth = hash.depth();
  std::vector<size_t> slots(static_cast<size_t>(m) * depth);
  std::vector<double> signs;
  const bool count_min = swarm.kind() == SketchKind::kCountMin;
  if (!count_min) signs.resize(static_cast<size_t>(m) * depth);
  for (int j = 0; j < m; ++j) {
    for (int r = 0; r < depth; ++r) {
      slots[static_cast<size_t>(j) * depth + r] = hash.Slot(r, truth[j].first);
      if (!count_min) {
        signs[static_cast<size_t>(j) * depth + r] =
            hash.Sign(r, truth[j].first);
      }
    }
  }

  const int n = swarm.size();
  std::vector<double> est(m);
  std::vector<int> order(m);
  std::vector<double> sum(scored.size(), 0.0);
  double frontier_sum = 0.0;
  for (HostId id = 0; id < n; ++id) {
    const double* host = swarm.host_state(id);
    const double weight = swarm.host_weight(id);
    const double scale =
        weight > 0.0 ? static_cast<double>(n) / weight : 0.0;
    for (int j = 0; j < m; ++j) {
      const size_t base = static_cast<size_t>(j) * depth;
      double raw;
      if (count_min) {
        raw = host[slots[base]];
        for (int r = 1; r < depth; ++r) {
          raw = std::min(raw, host[slots[base + r]]);
        }
      } else {
        double rows[64];
        for (int r = 0; r < depth; ++r) {
          rows[r] = signs[base + r] * host[slots[base + r]];
        }
        raw = stream::MedianOfRows(rows, depth);
      }
      est[j] = scale * raw;
    }
    if (want_frontier) {
      double err = 0.0;
      for (int j = 0; j < m; ++j) err += std::abs(est[j] - truth[j].second);
      frontier_sum += err / total;
    }
    if (top > 0) {
      // Estimate descending, then key ascending: a strict total order, so
      // the ranked prefix equals that of a full sort.
      std::iota(order.begin(), order.end(), 0);
      std::partial_sort(order.begin(), order.begin() + top, order.end(),
                        [&](int a, int b) {
                          return est[a] != est[b]
                                     ? est[a] > est[b]
                                     : truth[a].first < truth[b].first;
                        });
    }
    for (size_t s = 0; s < scored.size(); ++s) {
      const Scored& sel = scored[s];
      if (sel.kind == HhSelector::Kind::kWeightedErr) {
        double err = 0.0;
        for (int j = 0; j < sel.k; ++j) {
          err += std::abs(est[j] - truth[j].second);
        }
        sum[s] += err / sel.mass;
        continue;
      }
      int inter = 0;
      for (int j = 0; j < sel.k; ++j) {
        if (order[j] < sel.bound) ++inter;
      }
      sum[s] += sel.kind == HhSelector::Kind::kPrecision
                    ? static_cast<double>(inter) / sel.k
                    : static_cast<double>(inter) / sel.bound;
    }
  }
  // Emission order follows the spec's record list, so column order is
  // spec-declared like every other selector family.
  size_t next = 0;
  for (const MetricSpec& metric : spec.metrics) {
    if (HhSelectorKind(metric.name)) {
      // ParseHhSelectors collected the hh_* metrics in this same order.
      rec.AddScalar(metric.name + "_" + std::to_string(selectors[next].k),
                    sum[next] / n);
      ++next;
    } else if (want_frontier && metric.name == "hh_frontier") {
      rec.AddScalar("hh_frontier", frontier_sum / n);
    }
  }
  return Status::OK();
}

// --------------------------------------------------------- swarm factory ---

Result<int> CheckedStreamHosts(const EnvHandle& env) {
  const int n = env.env->num_hosts();
  if (n <= 0) return Status::InvalidArgument("environment has no hosts");
  return n;
}

Result<SwarmHandle> MakeFreqSketch(const TrialContext& ctx, EnvHandle& env,
                                   SketchKind kind) {
  DYNAGG_ASSIGN_OR_RETURN(const FreqSketchSpecParams cfg,
                          ParseFreqSketchSpec(*ctx.spec, kind));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedStreamHosts(env));
  const int64_t total_bytes = int64_t{2} * n *
                              (int64_t{cfg.depth} * cfg.width + 2) *
                              static_cast<int64_t>(sizeof(double));
  if (total_bytes > (int64_t{1} << 33)) {
    return Status::InvalidArgument(
        "stream swarm state would need " + std::to_string(total_bytes) +
        " bytes (hosts x sketch cells x 2 arrays); shrink the sketch or "
        "the population");
  }
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t workload_stream,
                          WorkloadStream(*ctx.spec, ctx, n));
  StreamSwarmParams params;
  params.kind = kind;
  params.depth = cfg.depth;
  params.width = cfg.width;
  params.hash_seed = DeriveSeed(ctx.trial_seed, kSketchHashStream);
  params.batch = cfg.workload.batch;
  params.arrival_rounds = cfg.workload.rounds;
  const KeyedStreamGen gen(cfg.workload.kind, cfg.workload.keys,
                           cfg.workload.skew,
                           DeriveSeed(ctx.trial_seed, workload_stream));
  auto swarm = std::make_shared<StreamSketchSwarm>(n, params, gen);
  StreamSketchSwarm* raw = swarm.get();
  SwarmHandle h;
  h.run_round = [raw](const Environment& e, const Population& p, Rng& r) {
    raw->RunRound(e, p, r);
  };
  SetEstimate(h, [raw](HostId id) { return raw->Estimate(id); });
  h.truth = [raw](const Population&) { return raw->TruthTotal(); };
  h.state_bytes = static_cast<double>(raw->message_bytes());
  h.gossip_bytes = static_cast<double>(raw->message_bytes());
  h.set_meter = [raw](TrafficMeter* m) { raw->set_traffic_meter(m); };
  h.on_join = [raw](HostId id) { raw->OnJoin(id); };
  h.finish = [raw, selectors = cfg.selectors](const TrialContext& c,
                                              Recorder& rec) {
    return FinishHeavyHitters(*raw, selectors, c, rec);
  };
  h.keepalive = std::move(swarm);
  return h;
}

}  // namespace

namespace internal {

void RegisterStreamProtocols(Registry<ProtocolDef>& registry) {
  const auto sketch = [&registry](const std::string& name, SketchKind kind) {
    ProtocolDef def;
    def.make_swarm = [kind](const TrialContext& ctx, EnvHandle& env) {
      return MakeFreqSketch(ctx, env, kind);
    };
    def.join_capable = true;
    def.models_gossip_bytes = true;
    def.consumes_workload = true;
    def.validate = [kind](const ScenarioSpec& spec) {
      return ParseFreqSketchSpec(spec, kind).status();
    };
    def.extra_metrics = {"hh_precision(*)", "hh_recall(*)",
                         "hh_weighted_err(*)", "sketch_bytes", "hh_frontier"};
    DYNAGG_CHECK(registry.Register(name, std::move(def)).ok());
  };
  sketch("count-min", SketchKind::kCountMin);
  sketch("count-sketch-freq", SketchKind::kCountSketch);
}

}  // namespace internal
}  // namespace scenario
}  // namespace dynagg
