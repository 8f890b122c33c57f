// Telemetry integration tests: collecting telemetry (summary or profile)
// must leave every experiment result table byte-identical — at any
// executor thread count — and the telemetry summary's counters must be
// exact sums, independent of how units were sharded across workers.
// Also covers the telemetry/sweep validation paths.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "scenario/executor.h"
#include "scenario/sink.h"
#include "scenario/spec.h"
#include "sim/worker_pool.h"

namespace dynagg {
namespace scenario {
namespace {

// Two sweep points x two trials with churn and multi-metric recording:
// enough units to shard unevenly across 4 workers.
constexpr const char* kSpec = R"(name = tel
protocol = push-sum-revert
hosts = 48
rounds = 8
trials = 2
seed = 99
sweep = protocol.lambda: 0, 0.05
failure.kind = churn
failure.death_prob = 0.02
record = rms, rms_tail_mean
record.from = 4
)";

ScenarioSpec MustParse(const std::string& text) {
  const auto specs = ParseScenarioFile(text);
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ(specs->size(), 1u);
  return (*specs)[0];
}

std::string MustRenderRun(const ScenarioSpec& spec, const RunOptions& options,
                          ExperimentTelemetry* telemetry) {
  Result<std::vector<ResultTable>> tables =
      RunExperiment(spec, options, telemetry);
  EXPECT_TRUE(tables.ok()) << tables.status().ToString();
  Result<std::string> out = RenderTables(*tables, spec.name, "csv");
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return std::move(out).value();
}

std::vector<double> Column(const CsvTable& table, const std::string& name) {
  const auto& cols = table.columns();
  const auto it = std::find(cols.begin(), cols.end(), name);
  EXPECT_NE(it, cols.end()) << "missing column " << name;
  std::vector<double> out;
  if (it == cols.end()) return out;
  const size_t idx = static_cast<size_t>(it - cols.begin());
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    out.push_back(table.row(r)[idx]);
  }
  return out;
}

TEST(TelemetryRunTest, CollectionDoesNotPerturbResults) {
  const ScenarioSpec spec = MustParse(kSpec);
  const std::string baseline =
      MustRenderRun(spec, RunOptions{1, "off", nullptr}, nullptr);
  for (const char* mode : {"summary", "profile"}) {
    for (const int threads : {1, 4}) {
      ExperimentTelemetry telemetry;
      const std::string got =
          MustRenderRun(spec, RunOptions{threads, mode, nullptr}, &telemetry);
      EXPECT_EQ(got, baseline) << "mode=" << mode << " threads=" << threads;
      EXPECT_FALSE(telemetry.summary.empty());
    }
  }
}

/// Forces the sharded scatter path on hosts with fewer CPUs than threads.
class ScopedVisibleCpus {
 public:
  explicit ScopedVisibleCpus(int n) { WorkerPool::OverrideVisibleCpusForTest(n); }
  ~ScopedVisibleCpus() { WorkerPool::OverrideVisibleCpusForTest(0); }
};

TEST(TelemetryRunTest, CountersAreThreadCountIndependent) {
  ScopedVisibleCpus cpus(2);
  // Push mode: the only mode whose rounds deposit payloads.
  const std::string text = std::string(kSpec) + "protocol.mode = push\n";
  const ScenarioSpec base = MustParse(text);
  ExperimentTelemetry tel1;
  MustRenderRun(base, RunOptions{1, "summary", nullptr}, &tel1);
  ASSERT_EQ(tel1.summary.size(), 1u);
  const CsvTable& t1 = tel1.summary[0].table;
  EXPECT_EQ(t1.num_rows(), 2);  // one per sweep point
  // Executor threads 1 vs 4 and intra-round threads 1 vs 2 (the fused
  // apply vs the sharded scatter) do the same work.
  for (const int intra : {1, 2}) {
    const ScenarioSpec spec = MustParse(
        text + "intra_round_threads = " + std::to_string(intra) + "\n");
    for (const int threads : {1, 4}) {
      ExperimentTelemetry tel;
      MustRenderRun(spec, RunOptions{threads, "summary", nullptr}, &tel);
      ASSERT_EQ(tel.summary.size(), 1u);
      const CsvTable& t = tel.summary[0].table;
      EXPECT_EQ(t1.columns(), t.columns());
      // Everything except wall-clock timings is an exact, deterministic
      // count.
      for (const char* col :
           {"lambda", "trials", "rounds", "plan_cache_hits",
            "plan_cache_rebuilds", "alive_bitmap_rebuilds", "rng_draws",
            "gossip_exchanges", "deposit_bytes", "early_stop_rounds",
            "record_evaluations"}) {
        EXPECT_EQ(Column(t1, col), Column(t, col))
            << "column " << col << " intra_round_threads=" << intra
            << " threads=" << threads;
      }
    }
  }
  EXPECT_GT(Column(t1, "rng_draws")[0], 0);
  EXPECT_GT(Column(t1, "gossip_exchanges")[0], 0);
  EXPECT_GT(Column(t1, "deposit_bytes")[0], 0);
  // rms needs rounds 4..7 and rms_tail_mean the same: 4 per trial, 2 trials.
  EXPECT_EQ(Column(t1, "record_evaluations")[0], 8);
}

TEST(TelemetryRunTest, UnitsCarrySpansOnlyInProfileMode) {
  const ScenarioSpec spec = MustParse(kSpec);
  ExperimentTelemetry summary_tel, profile_tel;
  MustRenderRun(spec, RunOptions{2, "summary", nullptr}, &summary_tel);
  MustRenderRun(spec, RunOptions{2, "profile", nullptr}, &profile_tel);
  ASSERT_EQ(summary_tel.units.size(), 4u);  // 2 sweep x 2 trials
  ASSERT_EQ(profile_tel.units.size(), 4u);
  for (const auto& unit : summary_tel.units) {
    EXPECT_EQ(unit.rounds, 8);
    EXPECT_TRUE(unit.events.empty());
  }
  for (const auto& unit : profile_tel.units) {
    EXPECT_EQ(unit.rounds, 8);
    EXPECT_FALSE(unit.events.empty());
  }
}

TEST(TelemetryRunTest, OffModeCollectsNothing) {
  const ScenarioSpec spec = MustParse(kSpec);
  ExperimentTelemetry telemetry;
  MustRenderRun(spec, RunOptions{1, "", nullptr}, &telemetry);  // spec: off
  EXPECT_TRUE(telemetry.summary.empty());
  EXPECT_TRUE(telemetry.units.empty());
}

TEST(TelemetryRunTest, ProgressTickerReportsEveryUnit) {
  const ScenarioSpec spec = MustParse(kSpec);
  std::vector<int> done;
  int total = 0;
  RunOptions options;
  options.threads = 2;
  options.on_unit_done = [&](int d, int t) {
    done.push_back(d);
    total = t;
  };
  MustRenderRun(spec, options, nullptr);
  EXPECT_EQ(total, 4);
  ASSERT_EQ(done.size(), 4u);
  // Serialized under the executor mutex: monotonically increasing.
  EXPECT_TRUE(std::is_sorted(done.begin(), done.end()));
  EXPECT_EQ(done.back(), 4);
}

TEST(TelemetryValidationTest, RejectsBadTelemetryValue) {
  const auto specs = ParseScenarioFile("name = t\nprotocol = push-sum\n"
                                       "hosts = 16\ntelemetry = verbose\n");
  EXPECT_FALSE(specs.ok());
  EXPECT_NE(specs.status().message().find("telemetry"), std::string::npos);
}

TEST(TelemetryValidationTest, AcceptsTelemetryModes) {
  for (const char* mode : {"off", "summary", "profile"}) {
    const ScenarioSpec spec = MustParse(
        std::string("name = t\nprotocol = push-sum\nhosts = 16\n") +
        "telemetry = " + mode + "\n");
    EXPECT_EQ(spec.telemetry, mode);
    EXPECT_TRUE(ValidateExperiment(spec).ok());
  }
}

TEST(TelemetryValidationTest, SweptThreadsNeedThreadsCapableProtocol) {
  const std::string sweep = "sweep = intra_round_threads: 1, 2\n";
  const ScenarioSpec ok = MustParse(
      "name = t\nprotocol = push-sum\nprotocol.mode = push\nhosts = 16\n" +
      sweep);
  EXPECT_TRUE(ValidateExperiment(ok).ok());
  const ScenarioSpec bad = MustParse(
      "name = t\nprotocol = epoch-push-sum\nhosts = 16\n" + sweep);
  const Status st = ValidateExperiment(bad);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("intra_round_threads"), std::string::npos);
}

TEST(TelemetryValidationTest, SweptThreadsDoNotChangeMetrics) {
  const ScenarioSpec spec = MustParse(
      "name = t\nprotocol = push-sum\nprotocol.mode = push\nhosts = 64\n"
      "rounds = 6\nseed = 7\nsweep = intra_round_threads: 1, 2\n"
      "record = rms_tail_mean\nrecord.from = 3\n");
  Result<std::vector<ResultTable>> tables = RunExperiment(spec, 1);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(tables->size(), 1u);
  const CsvTable& table = (*tables)[0].table;
  ASSERT_EQ(table.num_rows(), 2);
  // Scatter parallelism must be invisible in the recorded metric.
  EXPECT_EQ(Column(table, "rms_tail_mean")[0],
            Column(table, "rms_tail_mean")[1]);
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
