// StreamSketchSwarm: gossiped frequency sketches over a keyed stream.
//
// Every host holds one frequency sketch (count-min or count-sketch, see
// freq_sketch.h) plus a push-sum weight and a total-mass scalar, packed
// into one flat per-host stride of doubles:
//
//   [ depth * width sketch counters | weight | mass ]
//
// Each round, the host first absorbs its keyed stream arrivals (the
// deterministic per-(host, round) batch from KeyedStreamGen: +1 into the
// sketch and the mass scalar per key), then gossips by mass splitting on
// the shared two-phase round kernel: the whole stride is halved in place
// and deposited into the own inbox and the partner's inbox — exactly
// PushSumSwarm's push round, but with the sketch counters riding along as
// extra mass components. Because sketches are linear, each host's sketch
// converges to (global stream sketch) * (weight / n), so
// n * counter / weight estimates the *global* frequency of a key from any
// single host.
//
// Determinism: arrivals are applied in alive order from per-(host, round)
// RNG streams, and the kernel applies deposits sequentially in plan order.
// Halving doubles is exact; sums are fixed-order.

#ifndef DYNAGG_STREAM_STREAM_SWARM_H_
#define DYNAGG_STREAM_STREAM_SWARM_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "sim/bandwidth.h"
#include "sim/population.h"
#include "sim/round_kernel.h"
#include "sim/workload.h"
#include "stream/freq_sketch.h"

namespace dynagg {
namespace stream {

/// Which sketch estimator the swarm's strides hold.
enum class SketchKind { kCountMin, kCountSketch };

struct StreamSwarmParams {
  SketchKind kind = SketchKind::kCountMin;
  int depth = 2;
  int width = 64;  // power of two
  uint64_t hash_seed = 0;
  int batch = 16;           // stream arrivals per host per round
  int arrival_rounds = -1;  // rounds with arrivals; -1 = every round
};

class StreamSketchSwarm {
 public:
  StreamSketchSwarm(int num_hosts, const StreamSwarmParams& params,
                    const KeyedStreamGen& gen);

  /// One gossip round: absorb this round's arrivals, then mass-split the
  /// strides over the planned partners and adopt the summed inboxes.
  void RunRound(const Environment& env, const Population& pop, Rng& rng);

  /// Host `id`'s estimate of the TOTAL global stream mass (arrivals so
  /// far), via the push-sum mass/weight ratio.
  double Estimate(HostId id) const;

  /// Host `id`'s estimate of key `key`'s global frequency: the sketch
  /// point query rescaled by n / weight.
  double KeyEstimate(HostId id, uint64_t key) const;

  /// Total arrivals generated so far (the truth for Estimate).
  double TruthTotal() const { return truth_total_; }

  /// Exact per-key global counts (only populated while track_truth is on).
  const std::unordered_map<uint64_t, double>& TruthCounts() const {
    return truth_;
  }

  /// Disables the exact per-key truth map (throughput benchmarks).
  void set_track_truth(bool on) { track_truth_ = on; }

  void set_traffic_meter(TrafficMeter* meter) { meter_ = meter; }

  /// Churn-join reset: host `id` restarts with an empty sketch, weight 1
  /// and zero mass (the push-sum init state), and a cleared inbox. The
  /// stream truth is global, so a rebirth does not rewind truth_ — the
  /// old incarnation's absorbed arrivals leave the gossiped mass, which
  /// is exactly the mass-loss churn exposes in mass-conserving gossip.
  void OnJoin(HostId id);

  int size() const { return n_; }
  SketchKind kind() const { return params_.kind; }
  const SketchHash& hash() const { return hash_; }

  /// Raw stride access for the heavy-hitter record pass: the sketch
  /// counters start at host_state(id)[0]; weight follows the counters.
  const double* host_state(HostId id) const { return &state_[id * stride_]; }
  double host_weight(HostId id) const {
    return state_[id * stride_ + hash_.cells()];
  }

  /// Per-host sketch counter bytes (the accuracy/size frontier axis).
  size_t sketch_bytes() const { return hash_.cells() * sizeof(double); }
  /// Modelled gossip payload: the full stride (counters + weight + mass).
  int64_t message_bytes() const {
    return static_cast<int64_t>(stride_ * sizeof(double));
  }

 private:
  void AbsorbArrivals(const Population& pop);

  int n_;
  StreamSwarmParams params_;
  KeyedStreamGen gen_;
  SketchHash hash_;
  size_t stride_;  // cells + 2 (weight, mass)
  std::vector<double> state_;
  std::vector<double> inbox_;
  std::vector<uint64_t> batch_keys_;   // FillBatch scratch
  std::unordered_map<uint64_t, double> truth_;
  double truth_total_ = 0.0;
  bool track_truth_ = true;
  int round_ = 0;
  TrafficMeter* meter_ = nullptr;
  RoundKernel kernel_;
};

}  // namespace stream
}  // namespace dynagg

#endif  // DYNAGG_STREAM_STREAM_SWARM_H_
