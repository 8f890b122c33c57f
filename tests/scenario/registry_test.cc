#include "scenario/registry.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "scenario/executor.h"
#include "scenario/spec.h"
#include "scenario/trial.h"

namespace dynagg {
namespace scenario {
namespace {

TEST(RegistryTest, FindMissReturnsNotFoundListingNames) {
  Registry<int> reg("widget");
  ASSERT_TRUE(reg.Register("alpha", 1).ok());
  ASSERT_TRUE(reg.Register("beta", 2).ok());
  const Result<int> miss = reg.Find("gamma");
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  EXPECT_NE(miss.status().message().find("gamma"), std::string::npos);
  EXPECT_NE(miss.status().message().find("alpha"), std::string::npos);
  EXPECT_NE(miss.status().message().find("beta"), std::string::npos);
}

TEST(RegistryTest, DuplicateRegistrationIsError) {
  Registry<int> reg("widget");
  ASSERT_TRUE(reg.Register("alpha", 1).ok());
  const Status st = reg.Register("alpha", 2);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // The original registration survives.
  EXPECT_EQ(reg.Find("alpha").value(), 1);
}

TEST(RegistryTest, NamesAreSorted) {
  Registry<int> reg("widget");
  ASSERT_TRUE(reg.Register("zeta", 1).ok());
  ASSERT_TRUE(reg.Register("alpha", 2).ok());
  const std::vector<std::string> names = reg.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

TEST(BuiltinRegistryTest, ProtocolCatalogIsComplete) {
  for (const char* name :
       {"push-sum", "push-sum-revert", "epoch-push-sum", "full-transfer",
        "extremes", "count-sketch", "count-sketch-reset", "node-aggregator",
        "tag-tree"}) {
    EXPECT_TRUE(ProtocolRegistry().Find(name).ok()) << name;
  }
}

TEST(BuiltinRegistryTest, EnvironmentCatalogIsComplete) {
  for (const char* name :
       {"uniform", "spatial", "random-graph", "haggle"}) {
    EXPECT_TRUE(EnvironmentRegistry().Find(name).ok()) << name;
  }
}

TEST(BuiltinRegistryTest, UnknownProtocolFailsExperimentCleanly) {
  ScenarioSpec spec;
  spec.protocol = "no-such-protocol";
  spec.hosts = 10;
  const Result<std::vector<ResultTable>> tables = RunExperiment(spec);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("no-such-protocol"),
            std::string::npos);
}

TEST(BuiltinRegistryTest, UnknownEnvironmentFailsExperimentCleanly) {
  ScenarioSpec spec;
  spec.protocol = "push-sum";
  spec.environment = "no-such-env";
  spec.hosts = 10;
  const Result<std::vector<ResultTable>> tables = RunExperiment(spec);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("no-such-env"),
            std::string::npos);
}

// The capabilities `--dry-run` checks are derived from the swarm types;
// each must match the hook the built swarm actually wires, or validation
// would admit specs the drivers cannot run (or reject runnable ones).
TEST(BuiltinRegistryTest, DerivedCapabilitiesMatchBuiltHooks) {
  for (const std::string& name : ProtocolRegistry().Names()) {
    const Result<ProtocolDef> def = ProtocolRegistry().Find(name);
    ASSERT_TRUE(def.ok()) << name;
    if (!def->make_swarm) {
      EXPECT_TRUE(ProtocolCapabilities(*def).empty()) << name;
      continue;
    }
    ScenarioSpec spec;
    spec.name = "caps";
    spec.protocol = name;
    spec.hosts = 8;
    spec.rounds = 2;
    if (def->consumes_workload) {
      spec.params["workload.kind"] = "zipf";
      spec.params["workload.keys"] = "64";
    }
    ASSERT_TRUE(ValidateExperiment(spec).ok()) << name;
    TrialContext ctx;
    ctx.spec = &spec;
    ctx.trial_seed = 1;
    Result<EnvHandle> env = MakeEnvironment(ctx);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    const Result<SwarmHandle> swarm = def->make_swarm(ctx, *env);
    ASSERT_TRUE(swarm.ok()) << name << ": " << swarm.status().ToString();
    EXPECT_EQ(def->trace_capable, swarm->group_truths != nullptr) << name;
    EXPECT_EQ(def->async_capable, swarm->async_tick != nullptr) << name;
    EXPECT_EQ(def->async_capable, swarm->async_deliver != nullptr) << name;
    EXPECT_EQ(def->async_capable, swarm->message_bytes > 0) << name;
    EXPECT_EQ(def->join_capable, swarm->on_join != nullptr) << name;
    EXPECT_EQ(def->bandwidth_capable, swarm->set_meter != nullptr) << name;
    EXPECT_EQ(def->models_gossip_bytes, swarm->gossip_bytes >= 0) << name;
  }
}

// The environments' trace capability is derived from what each build
// returns; it must match the handle the build makes, or `driver = trace`
// validation would admit environments without a trace (or reject ones
// with one).
TEST(BuiltinRegistryTest, EnvironmentTraceCapabilityMatchesBuiltHandle) {
  // Named after this test: a fixture path shared with another test could
  // be truncated by it under `ctest -j`.
  const std::string contacts =
      ::testing::TempDir() + "/EnvironmentTraceCapabilityMatchesBuiltHandle" +
      ".contacts";
  {
    std::ofstream out(contacts);
    out << "10 20 0 600\n30 40 300 900\n";
  }
  const std::map<std::string, std::map<std::string, std::string>> knobs = {
      {"uniform", {}},
      {"spatial", {{"env.width", "3"}, {"env.height", "3"}}},
      {"random-graph", {{"env.degree", "2"}}},
      {"haggle", {{"env.hours", "1"}}},
      {"crawdad", {{"env.trace_file", contacts}}}};
  for (const std::string& name : EnvironmentRegistry().Names()) {
    const Result<EnvironmentDef> def = EnvironmentRegistry().Find(name);
    ASSERT_TRUE(def.ok()) << name;
    const auto it = knobs.find(name);
    ASSERT_NE(it, knobs.end()) << "no test spec for environment " << name;
    ScenarioSpec spec;
    spec.name = "env_caps";
    spec.protocol = "push-sum";
    spec.environment = name;
    const bool intrinsic = name == "spatial" || def->provides_trace;
    spec.hosts = intrinsic ? 0 : 8;
    spec.params = it->second;
    ASSERT_TRUE(ValidateExperiment(spec).ok()) << name;
    TrialContext ctx;
    ctx.spec = &spec;
    ctx.trial_seed = 1;
    const Result<EnvHandle> env = MakeEnvironment(ctx);
    ASSERT_TRUE(env.ok()) << name << ": " << env.status().ToString();
    EXPECT_GT(env->env->num_hosts(), 0) << name;
    EXPECT_EQ(def->provides_trace, env->trace != nullptr) << name;
  }
  std::remove(contacts.c_str());
}

// A workload registered from outside the engine becomes runnable from a
// spec without touching the runner: the whole point of the registries.
TEST(BuiltinRegistryTest, CustomProtocolPlugsIntoExecutor) {
  static bool registered = false;
  if (!registered) {
    registered = true;
    ProtocolDef def;
    def.run_custom = [](const TrialContext& ctx, Recorder& rec) -> Status {
      rec.AddScalar("seed_lo", static_cast<double>(ctx.trial_seed % 1000));
      return Status::OK();
    };
    ASSERT_TRUE(ProtocolRegistry().Register("test-constant", def).ok());
  }
  ScenarioSpec spec;
  spec.name = "custom";
  spec.protocol = "test-constant";
  spec.hosts = 1;
  spec.seed = 123456;
  const Result<std::vector<ResultTable>> tables = RunExperiment(spec);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(tables->size(), 1u);
  const CsvTable& table = (*tables)[0].table;
  ASSERT_EQ(table.num_rows(), 1);
  EXPECT_EQ(table.columns()[0], "seed_lo");
  EXPECT_DOUBLE_EQ(table.row(0)[0], 456.0);
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
