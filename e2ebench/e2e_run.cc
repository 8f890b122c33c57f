// Untraced end-to-end harness: one workload spec, one executor worker.
//
//   e2e_run --spec=FILE --seed=N --seconds=S --trials=K
//
// Prints one JSON object per line: one {"kind":"trial",...} per trial, then
// {"kind":"end","peak_rss_mb":...,...}.
//
// Trial i runs at trial seed TrialSeed(N, i). It first times one set-up —
// spec parse + validation + MakeEnvironment + make_swarm + the churn plan
// (empty without churn.* keys), around those public calls — and then
// one RunExperiment of the spec. Set-ups are spread over the whole run so
// their median samples the same machine conditions as the trials. Trials
// run until at least K have finished and S seconds have passed. The caller
// (run.py) turns the lines into metrics and checks the recorded values.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness_util.h"
#include "scenario/config.h"
#include "scenario/executor.h"
#include "scenario/trial.h"
#include "sim/churn.h"
#include "sim/population.h"

namespace {

using dynagg::Result;
using dynagg::Rng;
using dynagg::scenario::ScenarioSpec;
using dynagg::scenario::TrialContext;

struct SetUp {
  double seconds = 0.0;
  /// Alive host-rounds the trial simulates: hosts x rounds (ticks under
  /// the async driver), or, under a churn plan, the alive count of every
  /// round replayed from the trial's own plan (applied before the round).
  double host_rounds = 0.0;
};

/// Times one set-up of the trial at `seed`, then counts its host-rounds.
Result<SetUp> TimeSetUp(const std::string& text, uint64_t seed) {
  const int64_t start = e2e::NowNs();
  DYNAGG_ASSIGN_OR_RETURN(const ScenarioSpec spec, e2e::ParseSpec(text, seed));
  DYNAGG_RETURN_IF_ERROR(dynagg::scenario::ValidateExperiment(spec));
  TrialContext ctx;
  ctx.spec = &spec;
  ctx.trial_seed = seed;
  DYNAGG_ASSIGN_OR_RETURN(
      const auto def, dynagg::scenario::ProtocolRegistry().Find(spec.protocol));
  DYNAGG_ASSIGN_OR_RETURN(auto env, dynagg::scenario::MakeEnvironment(ctx));
  DYNAGG_ASSIGN_OR_RETURN(const auto swarm, def.make_swarm(ctx, env));
  const int n = env.env->num_hosts();
  DYNAGG_ASSIGN_OR_RETURN(const auto churn,
                          dynagg::scenario::ParseChurnConfig(spec));
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t stream,
                          dynagg::scenario::ChurnStream(spec, ctx, n));
  Rng rng(dynagg::DeriveSeed(seed, stream));
  DYNAGG_ASSIGN_OR_RETURN(
      const auto plan,
      dynagg::scenario::BuildChurnPlan(churn, n, spec.rounds, rng));
  SetUp out;
  out.seconds = static_cast<double>(e2e::NowNs() - start) * 1e-9;

  const int initial = churn.enabled && churn.initial >= 0 ? churn.initial : n;
  dynagg::Population pop = initial < n ? dynagg::Population(n, initial)
                                       : dynagg::Population(n);
  for (int round = 0; round < spec.rounds; ++round) {
    if (!plan.empty()) plan.Apply(round, &pop, nullptr);
    out.host_rounds += pop.num_alive();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Flags flags(argc, argv);
  const std::string text = e2e::ReadFile(flags.Str("spec"));
  const uint64_t base = static_cast<uint64_t>(flags.Num("seed"));
  const double seconds = flags.Num("seconds");
  const int min_trials = static_cast<int>(flags.Num("trials"));
  const int64_t start = e2e::NowNs();

  for (int i = 0;; ++i) {
    const uint64_t seed = dynagg::scenario::TrialSeed(base, i);
    const Result<SetUp> setup = TimeSetUp(text, seed);
    std::string error = setup.ok() ? "" : setup.status().ToString();
    std::map<std::string, double> scalars;
    std::string digest;
    double wall = 0.0;
    const Result<ScenarioSpec> spec = e2e::ParseSpec(text, seed);
    if (!spec.ok()) {
      error = spec.status().ToString();
    } else if (error.empty()) {
      const int64_t t0 = e2e::NowNs();
      const auto tables = dynagg::scenario::RunExperiment(*spec, 1);
      wall = static_cast<double>(e2e::NowNs() - t0) * 1e-9;
      if (tables.ok()) {
        scalars = e2e::SummaryRow(*tables);
        digest = e2e::TableDigest(*tables);
      } else {
        error = tables.status().ToString();
      }
    }
    std::printf(
        "{\"kind\":\"trial\",\"index\":%d,\"seed\":%llu,\"setup_s\":%s,"
        "\"wall_s\":%s,\"host_rounds\":%s,\"digest\":\"%s\",\"error\":%s,"
        "\"scalars\":%s}\n",
        i, static_cast<unsigned long long>(seed),
        e2e::JsonNumber(setup.ok() ? setup->seconds : 0.0).c_str(),
        e2e::JsonNumber(wall).c_str(),
        e2e::JsonNumber(setup.ok() ? setup->host_rounds : 0.0).c_str(),
        digest.c_str(),
        e2e::JsonString(error).c_str(), e2e::JsonObject(scalars).c_str());
    std::fflush(stdout);
    const double elapsed = static_cast<double>(e2e::NowNs() - start) * 1e-9;
    if (i + 1 >= min_trials && elapsed >= seconds) break;
  }
  e2e::PrintEnd("");
  return 0;
}
