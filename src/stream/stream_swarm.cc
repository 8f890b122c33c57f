#include "stream/stream_swarm.h"

#include <algorithm>

#include "common/macros.h"
#include "obs/telemetry.h"

namespace dynagg {
namespace stream {

StreamSketchSwarm::StreamSketchSwarm(int num_hosts,
                                     const StreamSwarmParams& params,
                                     const KeyedStreamGen& gen)
    : n_(num_hosts),
      params_(params),
      gen_(gen),
      hash_(params.depth, params.width, params.hash_seed),
      stride_(hash_.cells() + 2),
      state_(static_cast<size_t>(num_hosts) * stride_, 0.0),
      inbox_(static_cast<size_t>(num_hosts) * stride_, 0.0) {
  DYNAGG_CHECK_GE(n_, 1);
  // Push-sum init: weight 1, no mass, empty sketch.
  for (int i = 0; i < n_; ++i) {
    state_[static_cast<size_t>(i) * stride_ + hash_.cells()] = 1.0;
  }
}

void StreamSketchSwarm::OnJoin(HostId id) {
  double* host = &state_[static_cast<size_t>(id) * stride_];
  std::fill(host, host + stride_, 0.0);
  host[hash_.cells()] = 1.0;  // push-sum weight
  double* in = &inbox_[static_cast<size_t>(id) * stride_];
  std::fill(in, in + stride_, 0.0);
}

void StreamSketchSwarm::AbsorbArrivals(const Population& pop) {
  // Local stream intake is protocol work on host state, not gossip: time
  // it under the apply phase, outside the kernel's own spans.
  obs::ScopedPhase span(obs::Phase::kApply);
  const size_t cells = hash_.cells();
  for (const HostId id : pop.alive_ids()) {
    gen_.FillBatch(id, round_, params_.batch, &batch_keys_);
    double* host = &state_[static_cast<size_t>(id) * stride_];
    for (const uint64_t key : batch_keys_) {
      if (params_.kind == SketchKind::kCountMin) {
        for (int r = 0; r < hash_.depth(); ++r) host[hash_.Slot(r, key)] += 1.0;
      } else {
        for (int r = 0; r < hash_.depth(); ++r) {
          host[hash_.Slot(r, key)] += hash_.Sign(r, key);
        }
      }
      host[cells + 1] += 1.0;  // mass scalar
      if (track_truth_) truth_[key] += 1.0;
    }
    truth_total_ += static_cast<double>(batch_keys_.size());
  }
}

void StreamSketchSwarm::RunRound(const Environment& env, const Population& pop,
                                 Rng& rng) {
  if (params_.batch > 0 &&
      (params_.arrival_rounds < 0 || round_ < params_.arrival_rounds)) {
    AbsorbArrivals(pop);
  }
  // Mass-splitting push round over the whole stride, exactly the push-sum
  // shape: halve the sender's stride in place, deposit it into the own
  // inbox and the partner's inbox (both to the sender when unmatched),
  // then adopt the summed inboxes. The in-place halving is safe because
  // every deposit of slot k reads only slot k's initiator, whose stride
  // was finalized when the slot emitted, and end-of-round adoption
  // overwrites the halved state anyway.
  const PartnerPlan& plan = kernel_.PlanPushRound(env, pop, rng);
  if (meter_ != nullptr) {
    meter_->RecordMessages(plan.CountMatched(), message_bytes());
  }
  kernel_.ForEachPushSlot(
      [this](HostId src) {
        double* s = &state_[static_cast<size_t>(src) * stride_];
        double* in = &inbox_[static_cast<size_t>(src) * stride_];
        for (size_t c = 0; c < stride_; ++c) {
          s[c] *= 0.5;
          in[c] += s[c];  // the self-kept half
        }
        return src;
      },
      [this](HostId dst, HostId src) {
        const double* from = &state_[static_cast<size_t>(src) * stride_];
        double* to = &inbox_[static_cast<size_t>(dst) * stride_];
        for (size_t c = 0; c < stride_; ++c) to[c] += from[c];
      },
      [this](HostId dst) {
        __builtin_prefetch(&inbox_[static_cast<size_t>(dst) * stride_], 1);
      });
  if (pop.version() == 0) {
    state_.swap(inbox_);
    std::fill(inbox_.begin(), inbox_.end(), 0.0);
  } else {
    for (const HostId i : pop.alive_ids()) {
      double* s = &state_[static_cast<size_t>(i) * stride_];
      double* in = &inbox_[static_cast<size_t>(i) * stride_];
      std::copy(in, in + stride_, s);
      std::fill(in, in + stride_, 0.0);
    }
  }
  ++round_;
}

double StreamSketchSwarm::Estimate(HostId id) const {
  const double* host = host_state(id);
  const double weight = host[hash_.cells()];
  if (weight <= 0.0) return 0.0;
  return static_cast<double>(n_) * host[hash_.cells() + 1] / weight;
}

double StreamSketchSwarm::KeyEstimate(HostId id, uint64_t key) const {
  const double* host = host_state(id);
  const double weight = host[hash_.cells()];
  if (weight <= 0.0) return 0.0;
  double raw;
  if (params_.kind == SketchKind::kCountMin) {
    raw = host[hash_.Slot(0, key)];
    for (int r = 1; r < hash_.depth(); ++r) {
      raw = std::min(raw, host[hash_.Slot(r, key)]);
    }
  } else {
    double rows[64];
    for (int r = 0; r < hash_.depth(); ++r) {
      rows[r] = hash_.Sign(r, key) * host[hash_.Slot(r, key)];
    }
    raw = MedianOfRows(rows, hash_.depth());
  }
  return static_cast<double>(n_) * raw / weight;
}

}  // namespace stream
}  // namespace dynagg
