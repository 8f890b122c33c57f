// Record-phase tests: which rounds the drivers evaluate truth and RMS on
// (MetricFlags::ConsumesRound), the record_evaluations counter that
// counts them, and the record.relative zero-truth check on the rounds
// that remain.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/telemetry.h"
#include "scenario/config.h"
#include "scenario/executor.h"
#include "scenario/spec.h"

namespace dynagg {
namespace scenario {
namespace {

/// The 0-based rounds of a `rounds`-round run that `flags` consumes.
std::vector<int> Consumed(const MetricFlags& flags, const RecordConfig& cfg,
                          int rounds, int converged_after = -1) {
  std::vector<int> out;
  for (int round = 0; round < rounds; ++round) {
    const bool converged = converged_after >= 0 && round > converged_after;
    if (flags.ConsumesRound(round, cfg, rounds, converged)) {
      out.push_back(round);
    }
  }
  return out;
}

TEST(ConsumesRoundTest, NoRoundMetricConsumesNothing) {
  MetricFlags flags;
  flags.bandwidth = true;
  flags.final_error_cdf = true;
  flags.gossip_bytes = true;
  flags.rel_error_hosts = {0};
  flags.final_error_quantiles = {0.5};
  EXPECT_TRUE(Consumed(flags, RecordConfig{}, 6).empty());
}

TEST(ConsumesRoundTest, EachSelectorReadsItsRounds) {
  RecordConfig cfg;
  cfg.from = 2;
  cfg.every = 1;
  cfg.recovery_from = 3;
  struct Row {
    const char* selector;
    MetricFlags flags;
    std::vector<int> rounds;
  };
  std::vector<Row> rows(6);
  rows[0] = {"rms", {}, {2, 3, 4, 5}};
  rows[0].flags.rms = true;
  rows[1] = {"rms_tail_mean", {}, {2, 3, 4, 5}};
  rows[1].flags.tail_mean = true;
  rows[2] = {"final_rms", {}, {5}};
  rows[2].flags.final_rms = true;
  rows[3] = {"rms_at(1), rms_at(4)", {}, {0, 3}};
  rows[3].flags.rms_at = {1.0, 4.0};
  rows[4] = {"rounds_below", {}, {0, 1, 2, 3, 4, 5}};
  rows[4].flags.rounds_below = {0.5};
  rows[5] = {"recovery_rounds", {}, {3, 4, 5}};
  rows[5].flags.recovery = true;
  for (const Row& row : rows) {
    EXPECT_EQ(Consumed(row.flags, cfg, 6), row.rounds) << row.selector;
  }
}

TEST(ConsumesRoundTest, RmsFollowsItsEveryGrid) {
  MetricFlags flags;
  flags.rms = true;
  RecordConfig cfg;
  cfg.from = 1;
  cfg.every = 3;
  EXPECT_EQ(Consumed(flags, cfg, 10), (std::vector<int>{1, 4, 7}));
  // rms_tail_mean ignores the grid: it averages every round from `from`.
  flags.tail_mean = true;
  EXPECT_EQ(Consumed(flags, cfg, 10),
            (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ConsumesRoundTest, ConvergenceReadsRoundsUntilItConverges) {
  MetricFlags flags;
  flags.convergence = true;
  const RecordConfig cfg;
  // Not yet converged: every round is a candidate.
  EXPECT_EQ(Consumed(flags, cfg, 5), (std::vector<int>{0, 1, 2, 3, 4}));
  // Converged after round 1: later rounds no longer matter.
  EXPECT_EQ(Consumed(flags, cfg, 5, /*converged_after=*/1),
            (std::vector<int>{0, 1}));
  // Another selector keeps its own rounds after convergence.
  flags.final_rms = true;
  EXPECT_EQ(Consumed(flags, cfg, 5, /*converged_after=*/1),
            (std::vector<int>{0, 1, 4}));
}

TEST(ConsumesRoundTest, SelectorsCombineByUnion) {
  MetricFlags flags;
  flags.rms = true;
  flags.final_rms = true;
  flags.rms_at = {2.0};
  RecordConfig cfg;
  cfg.from = 4;
  cfg.every = 2;
  EXPECT_EQ(Consumed(flags, cfg, 9), (std::vector<int>{1, 4, 6, 8}));
}

// ------------------------------------------------ record_evaluations ---

int64_t EvaluationsPerTrial(const std::string& record) {
  const auto specs = ParseScenarioFile(
      "name = evals\nprotocol = push-sum\nprotocol.mode = push\n"
      "hosts = 64\nrounds = 20\ntrials = 2\nseed = 5\n"
      "telemetry = summary\nrecord.from = 10\nrecord = " +
      record + "\n");
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  if (!specs.ok()) return -1;
  ExperimentTelemetry telemetry;
  const auto tables = RunExperiment((*specs)[0], RunOptions{1, "", nullptr},
                                    &telemetry);
  EXPECT_TRUE(tables.ok()) << tables.status().ToString();
  EXPECT_EQ(telemetry.units.size(), 2u);
  if (telemetry.units.empty()) return -1;
  const int c = static_cast<int>(obs::Counter::kRecordEvaluations);
  const int64_t first = telemetry.units[0].counters[c];
  for (const auto& unit : telemetry.units) {
    EXPECT_EQ(unit.counters[c], first);
  }
  return first;
}

TEST(RecordEvaluationsTest, CountsOnlyConsumedRounds) {
  EXPECT_EQ(EvaluationsPerTrial("rms_tail_mean"), 10);
  EXPECT_EQ(EvaluationsPerTrial("rounds_below(rms, 1e-9)"), 20);
  EXPECT_EQ(EvaluationsPerTrial("final_rms"), 1);
  EXPECT_EQ(EvaluationsPerTrial("bandwidth"), 0);
}

TEST(RecordEvaluationsTest, CountsAsyncSamples) {
  const auto specs = ParseScenarioFile(
      "name = async_evals\nprotocol = push-flow\ndriver = async\n"
      "hosts = 32\nrounds = 12\nseed = 3\ntelemetry = summary\n"
      "record = rms_tail_mean, final_rms\nrecord.from = 4\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ExperimentTelemetry telemetry;
  const auto tables = RunExperiment((*specs)[0], RunOptions{1, "", nullptr},
                                    &telemetry);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(telemetry.units.size(), 1u);
  // Samples 4..11, plus final_rms, evaluated once after the network
  // settles: every RMS evaluation counts, as under the rounds driver.
  EXPECT_EQ(telemetry.units[0]
                .counters[static_cast<int>(obs::Counter::kRecordEvaluations)],
            9);
}

// --------------------------------------------------- record.relative ---

TEST(RecordRelativeTest, ZeroTruthFailsOnTheFirstConsumedRound) {
  // Every host dies in round 2, so the truth is 0 from then on. The tail
  // window starts at round 6, and rounds before it are never evaluated:
  // the error names the first round that is.
  const auto specs = ParseScenarioFile(
      "name = rel\nprotocol = push-sum\nhosts = 32\nrounds = 10\nseed = 1\n"
      "failure.kind = kill_random_fraction\nfailure.round = 2\n"
      "failure.fraction = 1\nrecord = rms_tail_mean\nrecord.from = 6\n"
      "record.relative = true\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  const auto tables = RunExperiment((*specs)[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find(
                "record.relative: the truth is 0 after round 6"),
            std::string::npos)
      << tables.status().ToString();
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
