// Registration of swarm protocols: one path from a swarm type to a
// ProtocolDef. A protocol's capabilities are facts about its types;
// RegisterSwarm derives the ProtocolDef flags from the same compile-time
// tests that wire the SwarmHandle hooks, so a flag and its hook cannot
// disagree.

#ifndef DYNAGG_SCENARIO_SWARM_REGISTRATION_H_
#define DYNAGG_SCENARIO_SWARM_REGISTRATION_H_

#include <concepts>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "scenario/registry.h"
#include "scenario/trial.h"

namespace dynagg {
namespace scenario {

/// Churn joins: the swarm resets an admitted host with OnJoin.
template <typename Swarm>
concept JoinableSwarm = requires(Swarm& s, HostId id) { s.OnJoin(id); };

/// The bandwidth metric: the swarm records its traffic into a meter.
template <typename Swarm>
concept MeteredSwarm =
    requires(Swarm& s, TrafficMeter* m) { s.set_traffic_meter(m); };

/// Message-level gossip: the swarm plans one tick's sends with
/// PlanAsyncTick, applies each arrival with its deliver method
/// (DeliverMass or DeliverFlow), and declares the over-the-air size of one
/// message as kMessageBytes.
template <typename Swarm>
concept MessageLevelSwarm =
    requires(Swarm& s, const Environment& e, const Population& p, Rng& r,
             std::vector<net::Message>* out) {
      s.PlanAsyncTick(e, p, r, out);
      { Swarm::kMessageBytes } -> std::convertible_to<double>;
    } &&
    (requires(Swarm& s, const net::Message& m) { s.DeliverMass(m); } ||
     requires(Swarm& s, const net::Message& m) { s.DeliverFlow(m); });

/// Group-relative error: the truth family knows each contact group's own
/// aggregate.
template <typename Truth>
concept GroupTruthFamily = requires(const Truth& t,
                                    const std::vector<int>& labels,
                                    const std::vector<int>& sizes) {
  { t.GroupTruths(labels, sizes) } -> std::same_as<std::vector<double>>;
};

/// The gossip_bytes metric: a GossipBytesModel(swarm, params) overload
/// exists for the swarm and its parsed spec parameters. Declare it beside
/// the params type; argument-dependent lookup finds it there.
template <typename Swarm, typename Params>
concept GossipBytesModelled = requires(const Swarm& s, const Params& p) {
  { GossipBytesModel(s, p) } -> std::convertible_to<double>;
};

/// What a protocol's build step makes for one trial. `keepalive` owns the
/// swarm and everything its hooks point into; `truth` is the protocol's
/// truth family, a small copyable policy measuring the swarm:
///   double Estimate(const Swarm&, HostId) const   per-host estimate
///   double operator()(const Population&) const    truth over the alive
/// and optionally
///   std::vector<double> GroupTruths(labels, sizes) const   (trace)
///   double GroupEstimate(const Swarm&, HostId) const   estimate in
///                                          group-truth units
///   const std::vector<double>* values     per-host values backing
///                                          failure.kind = kill_top_fraction
/// `finish` is the optional post-loop hook (SwarmHandle::finish).
template <typename Swarm, typename Truth>
struct SwarmParts {
  std::shared_ptr<void> keepalive;
  Swarm* swarm = nullptr;
  Truth truth;
  double state_bytes = 0.0;
  std::function<Status(const TrialContext&, Recorder&)> finish = nullptr;
};

/// Adapts a Result<Params>-returning spec parser into a ProtocolDef's
/// validate hook, so `--dry-run` runs exactly the parse execution would.
template <typename Parse>
std::function<Status(const ScenarioSpec&)> SpecValidator(Parse parse) {
  return [parse](const ScenarioSpec& spec) { return parse(spec).status(); };
}

namespace internal {

/// Type-erases one trial's swarm into the handle the drivers call, with
/// each optional hook wired exactly when its capability concept holds.
template <typename Swarm, typename Truth, typename Params>
SwarmHandle WireSwarm(SwarmParts<Swarm, Truth> parts, const Params& params) {
  SwarmHandle h;
  Swarm* swarm = parts.swarm;
  const Truth truth = parts.truth;
  h.run_round = [swarm](const Environment& e, const Population& p, Rng& r) {
    swarm->RunRound(e, p, r);
  };
  SetEstimate(h, [swarm, truth](HostId id) {
    return truth.Estimate(*swarm, id);
  });
  h.truth = [truth](const Population& pop) { return truth(pop); };
  if constexpr (GroupTruthFamily<Truth>) {
    h.group_truths = [truth](const std::vector<int>& labels,
                             const std::vector<int>& sizes) {
      return truth.GroupTruths(labels, sizes);
    };
  }
  if constexpr (requires(HostId id) { truth.GroupEstimate(*swarm, id); }) {
    h.group_estimate = [swarm, truth](HostId id) {
      return truth.GroupEstimate(*swarm, id);
    };
  }
  if constexpr (requires { truth.values; }) h.failure_values = truth.values;
  h.state_bytes = parts.state_bytes;
  if constexpr (GossipBytesModelled<Swarm, Params>) {
    h.gossip_bytes = GossipBytesModel(*swarm, params);
  }
  if constexpr (MeteredSwarm<Swarm>) {
    h.set_meter = [swarm](TrafficMeter* m) { swarm->set_traffic_meter(m); };
  }
  if constexpr (JoinableSwarm<Swarm>) {
    h.on_join = [swarm](HostId id) { swarm->OnJoin(id); };
  }
  if constexpr (MessageLevelSwarm<Swarm>) {
    h.async_tick = [swarm](const Environment& e, const Population& p, Rng& r,
                           std::vector<net::Message>* out) {
      swarm->PlanAsyncTick(e, p, r, out);
    };
    h.async_deliver = [swarm](const net::Message& m) {
      if constexpr (requires { swarm->DeliverMass(m); }) {
        swarm->DeliverMass(m);
      } else {
        swarm->DeliverFlow(m);
      }
    };
    h.message_bytes = static_cast<double>(Swarm::kMessageBytes);
  }
  h.finish = std::move(parts.finish);
  h.keepalive = std::move(parts.keepalive);
  return h;
}

}  // namespace internal

/// Registers swarm protocol `name`. `parse` (Result<Params> from a
/// ScenarioSpec) reads and range-checks the protocol's knobs: it is the
/// `--dry-run` validator and the first step of every trial. `build`
/// (Result<SwarmParts<Swarm, Truth>> or SwarmParts, from the trial
/// context, the environment's host count and the Params) makes one
/// trial's swarm. `def` carries the registration facts about spec
/// namespaces (consumes_workload, extra_metrics, extra_record_keys); the
/// capability flags are derived here and set nowhere else.
template <typename Swarm, typename Truth, typename Parse, typename Build>
void RegisterSwarm(Registry<ProtocolDef>& registry, const std::string& name,
                   Parse parse, Build build, ProtocolDef def = {}) {
  using Params =
      std::decay_t<decltype(*parse(std::declval<const ScenarioSpec&>()))>;
  using Parts = SwarmParts<Swarm, Truth>;
  def.make_swarm = [parse, build](const TrialContext& ctx,
                                  EnvHandle& env) -> Result<SwarmHandle> {
    DYNAGG_ASSIGN_OR_RETURN(const Params params, parse(*ctx.spec));
    const int n = env.env->num_hosts();
    if (n <= 0) return Status::InvalidArgument("environment has no hosts");
    DYNAGG_ASSIGN_OR_RETURN(Parts parts,
                            Result<Parts>(build(ctx, n, params)));
    return internal::WireSwarm(std::move(parts), params);
  };
  def.validate = SpecValidator(parse);
  def.trace_capable = GroupTruthFamily<Truth>;
  def.async_capable = MessageLevelSwarm<Swarm>;
  def.join_capable = JoinableSwarm<Swarm>;
  def.bandwidth_capable = MeteredSwarm<Swarm>;
  def.models_gossip_bytes = GossipBytesModelled<Swarm, Params>;
  DYNAGG_CHECK(registry.Register(name, std::move(def)).ok());
}

}  // namespace scenario
}  // namespace dynagg

#endif  // DYNAGG_SCENARIO_SWARM_REGISTRATION_H_
