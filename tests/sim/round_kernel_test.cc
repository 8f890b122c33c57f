// Round-kernel parity and determinism tests.
//
// The swarms' RunRound was rewritten from per-host SamplePeer loops onto
// the shared plan -> apply kernel; these tests pin that the rewrite is
// bit-identical to the pre-refactor loops (replicated verbatim below) —
// including under mid-trial deaths, trace playback (AdvanceTo between
// rounds) — and that the split ScatterDeposits form matches the fused
// push loop bit for bit.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "agg/full_transfer.h"
#include "agg/push_sum.h"
#include "agg/push_sum_revert.h"
#include "common/rng.h"
#include "env/contact_trace.h"
#include "env/trace_env.h"
#include "env/uniform_env.h"
#include "sim/population.h"
#include "sim/round_kernel.h"

namespace dynagg {
namespace {

std::vector<double> TestValues(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.UniformDouble(0, 100);
  return values;
}

// ------------------------- pre-refactor reference implementations ---
//
// Exact copies of the PR <= 3 RunRound bodies, expressed over PushSumNode /
// PushSumRevertNode / FullTransferNode vectors.

void LegacyPushSumRound(std::vector<PushSumNode>& nodes, GossipMode mode,
                        const Environment& env, const Population& pop,
                        Rng& rng, std::vector<HostId>& order) {
  if (mode == GossipMode::kPush) {
    for (const HostId i : pop.alive_ids()) {
      const Mass out = nodes[i].EmitPushHalf();
      const HostId peer = env.SamplePeer(i, pop, rng);
      nodes[peer == kInvalidHost ? i : peer].Deposit(out);
    }
    for (const HostId i : pop.alive_ids()) nodes[i].EndRound();
    return;
  }
  ShuffledAliveOrder(pop, rng, &order);
  for (const HostId i : order) {
    const HostId peer = env.SamplePeer(i, pop, rng);
    if (peer == kInvalidHost) continue;
    PushSumNode::Exchange(nodes[i], nodes[peer]);
  }
}

void LegacyPsrRound(std::vector<PushSumRevertNode>& nodes,
                    const PsrParams& params, const Environment& env,
                    const Population& pop, Rng& rng,
                    std::vector<HostId>& order) {
  if (params.mode == GossipMode::kPush) {
    for (const HostId i : pop.alive_ids()) {
      const Mass out = nodes[i].EmitPushHalf(params.lambda, params.revert);
      const HostId peer = env.SamplePeer(i, pop, rng);
      nodes[peer == kInvalidHost ? i : peer].Deposit(out);
    }
    for (const HostId i : pop.alive_ids()) {
      nodes[i].EndRoundPush(params.lambda, params.revert);
    }
    return;
  }
  ShuffledAliveOrder(pop, rng, &order);
  for (const HostId i : order) {
    const HostId peer = env.SamplePeer(i, pop, rng);
    if (peer == kInvalidHost) continue;
    PushSumRevertNode::Exchange(nodes[i], nodes[peer]);
  }
  for (const HostId i : pop.alive_ids()) {
    nodes[i].EndRoundPushPull(params.lambda, params.revert);
  }
}

void LegacyFullTransferRound(std::vector<FullTransferNode>& nodes,
                             const FullTransferParams& params,
                             const Environment& env, const Population& pop,
                             Rng& rng) {
  for (const HostId i : pop.alive_ids()) {
    for (int p = 0; p < params.parcels; ++p) {
      const Mass parcel = nodes[i].EmitParcel(params.lambda, params.parcels);
      const HostId peer = env.SamplePeer(i, pop, rng);
      nodes[peer == kInvalidHost ? i : peer].Deposit(parcel);
    }
  }
  for (const HostId i : pop.alive_ids()) nodes[i].EndRound();
}

/// Applies the same scripted deaths/revivals to both populations.
void Mutate(Population& pop, int round) {
  const int n = pop.size();
  if (round == 2) {
    for (HostId id = 0; id < n / 4; ++id) pop.Kill(id);
  }
  if (round == 5) {
    pop.Revive(1);
    pop.Kill(n - 1);
  }
}

// ------------------------------------------------- push-sum parity ---

void CheckPushSumParity(GossipMode mode) {
  const int n = 200;
  const std::vector<double> values = TestValues(n, 99);

  PushSumSwarm swarm(values, mode);
  std::vector<PushSumNode> nodes(n);
  for (int i = 0; i < n; ++i) nodes[i].Init(values[i]);

  UniformEnvironment env(n);
  Population pop_a(n);
  Population pop_b(n);
  Rng rng_a(4242);
  Rng rng_b(4242);
  std::vector<HostId> order;
  for (int round = 0; round < 8; ++round) {
    Mutate(pop_a, round);
    Mutate(pop_b, round);
    swarm.RunRound(env, pop_a, rng_a);
    LegacyPushSumRound(nodes, mode, env, pop_b, rng_b, order);
    for (HostId id = 0; id < n; ++id) {
      // Bit-identical, not approximately equal.
      ASSERT_EQ(swarm.Estimate(id), nodes[id].Estimate())
          << "round " << round << " host " << id;
    }
  }
  EXPECT_EQ(rng_a.Next(), rng_b.Next());
}

TEST(RoundKernelParityTest, PushSumPushBitIdenticalToLegacyLoop) {
  CheckPushSumParity(GossipMode::kPush);
}

TEST(RoundKernelParityTest, PushSumPushPullBitIdenticalToLegacyLoop) {
  CheckPushSumParity(GossipMode::kPushPull);
}

TEST(RoundKernelParityTest, PsrBitIdenticalToLegacyLoop) {
  for (const GossipMode mode : {GossipMode::kPush, GossipMode::kPushPull}) {
    for (const RevertMode revert :
         {RevertMode::kFixed, RevertMode::kAdaptive}) {
      const int n = 150;
      const std::vector<double> values = TestValues(n, 7);
      const PsrParams params{.lambda = 0.05, .mode = mode, .revert = revert};
      PushSumRevertSwarm swarm(values, params);
      std::vector<PushSumRevertNode> nodes(n);
      for (int i = 0; i < n; ++i) nodes[i].Init(values[i]);
      UniformEnvironment env(n);
      Population pop_a(n);
      Population pop_b(n);
      Rng rng_a(1717);
      Rng rng_b(1717);
      std::vector<HostId> order;
      for (int round = 0; round < 8; ++round) {
        Mutate(pop_a, round);
        Mutate(pop_b, round);
        swarm.RunRound(env, pop_a, rng_a);
        LegacyPsrRound(nodes, params, env, pop_b, rng_b, order);
        for (HostId id = 0; id < n; ++id) {
          ASSERT_EQ(swarm.Estimate(id), nodes[id].Estimate())
              << "round " << round << " host " << id;
        }
      }
      EXPECT_EQ(rng_a.Next(), rng_b.Next());
    }
  }
}

TEST(RoundKernelParityTest, FullTransferBitIdenticalToLegacyLoop) {
  const int n = 120;
  const std::vector<double> values = TestValues(n, 13);
  const FullTransferParams params{.lambda = 0.1, .parcels = 4, .window = 3};
  FullTransferSwarm swarm(values, params);
  std::vector<FullTransferNode> nodes(n);
  for (int i = 0; i < n; ++i) nodes[i].Init(values[i], params.window);
  UniformEnvironment env(n);
  Population pop_a(n);
  Population pop_b(n);
  Rng rng_a(31);
  Rng rng_b(31);
  for (int round = 0; round < 8; ++round) {
    Mutate(pop_a, round);
    Mutate(pop_b, round);
    swarm.RunRound(env, pop_a, rng_a);
    LegacyFullTransferRound(nodes, params, env, pop_b, rng_b);
    for (HostId id = 0; id < n; ++id) {
      ASSERT_EQ(swarm.Estimate(id), nodes[id].Estimate())
          << "round " << round << " host " << id;
    }
  }
  EXPECT_EQ(rng_a.Next(), rng_b.Next());
}

// --------------------------------------------- trace-env invalidation ---

TEST(RoundKernelParityTest, TraceEnvironmentAdvanceToRebuildsMidTrial) {
  // Dense clique so the trace env's cached alive-neighbor rows are
  // exercised; links flip halfway through.
  ContactTrace trace(16);
  for (HostId a = 0; a < 16; ++a) {
    for (HostId b = a + 1; b < 16; ++b) {
      if ((a + b) % 2 == 0) {
        trace.AddContact(a, b, FromSeconds(0), FromSeconds(100));
      } else {
        trace.AddContact(a, b, FromSeconds(100), FromSeconds(200));
      }
    }
  }
  trace.Finalize();
  const std::vector<double> values = TestValues(16, 5);

  PushSumSwarm swarm(values, GossipMode::kPush);
  std::vector<PushSumNode> nodes(16);
  for (int i = 0; i < 16; ++i) nodes[i].Init(values[i]);

  TraceEnvironment env_a(trace);
  TraceEnvironment env_b(trace);
  Population pop_a(16);
  Population pop_b(16);
  Rng rng_a(88);
  Rng rng_b(88);
  std::vector<HostId> order;
  for (int round = 0; round < 20; ++round) {
    const SimTime t = FromSeconds((round + 1) * 10.0);
    env_a.AdvanceTo(t);
    env_b.AdvanceTo(t);
    if (round == 7) {
      pop_a.Kill(3);
      pop_b.Kill(3);
    }
    swarm.RunRound(env_a, pop_a, rng_a);
    LegacyPushSumRound(nodes, GossipMode::kPush, env_b, pop_b, rng_b, order);
    for (HostId id = 0; id < 16; ++id) {
      ASSERT_EQ(swarm.Estimate(id), nodes[id].Estimate())
          << "round " << round << " host " << id;
    }
  }
  EXPECT_EQ(rng_a.Next(), rng_b.Next());
}

// ------------------------------------------------- split scatter ---

// Runs six planned push rounds and checks that ScatterDeposits over a
// per-slot payload vector deposits exactly what the fused ForEachPushSlot
// round does. Even hosts meet each other; odd hosts have no contacts, so
// their slots are unmatched and return to the sender. Kills from Mutate
// make the initiator list non-identity after round 2.
void ExpectScatterMatchesFusedPushSlot(bool self_echo, int slots_per_host) {
  const int n = 64;
  ContactTrace trace(n);
  for (HostId a = 0; a < n; a += 2) {
    for (HostId b = a + 2; b < n; b += 2) {
      trace.AddContact(a, b, FromSeconds(0), FromSeconds(1000));
    }
  }
  trace.Finalize();
  TraceEnvironment env(trace);
  env.AdvanceTo(FromSeconds(10));
  const std::vector<double> values = TestValues(n, 404);

  RoundKernel kernel;
  Population pop(n);
  Rng rng(606);
  for (int round = 0; round < 6; ++round) {
    Mutate(pop, round);
    const PartnerPlan& plan =
        kernel.PlanPushRound(env, pop, rng, slots_per_host);
    ASSERT_LT(static_cast<size_t>(plan.CountMatched()), plan.size());
    const auto payload_of = [&](HostId src) {
      return values[src] * 0.5 + round;
    };

    std::vector<double> fused(n, 0.0);
    kernel.ForEachPushSlot(
        [&](HostId src) {
          const double p = payload_of(src);
          if (self_echo) fused[src] += p;
          return p;
        },
        [&](HostId dst, double p) { fused[dst] += p; },
        [](HostId) {});

    std::vector<double> payloads(plan.size());
    for (size_t k = 0; k < plan.size(); ++k) {
      payloads[k] = payload_of(plan.initiators()[k]);
    }
    std::vector<double> split(n, 0.0);
    kernel.ScatterDeposits(payloads, self_echo, n,
                           [&](HostId dst, double p) { split[dst] += p; });

    for (HostId id = 0; id < n; ++id) {
      // Same per-destination order, so exact equality, not tolerance.
      ASSERT_EQ(fused[id], split[id]) << "round " << round << " host " << id;
    }
  }
}

TEST(RoundKernelTest, ScatterDepositsBitIdenticalToFusedPushSlot) {
  // Push-sum shape: one slot per host, the sender keeps its own half.
  ExpectScatterMatchesFusedPushSlot(/*self_echo=*/true, /*slots_per_host=*/1);
}

TEST(RoundKernelTest, ScatterDepositsFullTransferShapeBitIdentical) {
  // Full-transfer shape: several parcels per host and no self echo.
  ExpectScatterMatchesFusedPushSlot(/*self_echo=*/false, /*slots_per_host=*/3);
}

TEST(RoundKernelTest, MassConservedAcrossKernelRounds) {
  const int n = 300;
  const std::vector<double> values = TestValues(n, 9);
  PushSumSwarm swarm(values, GossipMode::kPush);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(2);
  double expected_weight = n;
  for (int round = 0; round < 10; ++round) {
    swarm.RunRound(env, pop, rng);
    EXPECT_NEAR(swarm.TotalAliveMass(pop).weight, expected_weight, 1e-9);
  }
}

}  // namespace
}  // namespace dynagg
