// Port tests for this PR's retired / newly scenario-reachable workloads:
//
//   - fm-accuracy: the tab_sketch_error bench main's Monte-Carlo loop,
//     replicated verbatim, must match the scenario port bit-identically
//     (same seed convention, same statistics).
//   - crawdad: the external-contact-table environment must validate under
//     --dry-run (without touching the file), parse a CRAWDAD table at
//     execution time, run under both drivers, and fail loudly on missing
//     or corrupt files.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/fm_sketch.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "scenario/executor.h"
#include "scenario/sink.h"
#include "scenario/spec.h"

namespace dynagg {
namespace scenario {
namespace {

Result<std::vector<ResultTable>> RunScenario(const std::string& text, int threads) {
  const auto specs = ParseScenarioFile(text);
  if (!specs.ok()) return specs.status();
  EXPECT_EQ(specs->size(), 1u);
  return RunExperiment((*specs)[0], threads);
}

// ----------------------------------------- parity: tab_sketch_error ---

TEST(PortParityTest, FmAccuracyMatchesLegacyTabSketchError) {
  const int samples = 40;
  const int count = 2000;
  const uint64_t seed = 20090407;
  const std::vector<int> bucket_sweep = {8, 32, 64};

  // Hand-rolled replica of the retired bench/tab_sketch_error.cc Run().
  std::vector<std::vector<double>> expected;  // per bucket count: 3 stats
  for (const int buckets : bucket_sweep) {
    RunningStat rel_error;
    RunningStat signed_error;
    for (int trial = 0; trial < samples; ++trial) {
      FmSketch sketch(buckets, 32);
      const uint64_t trial_seed = DeriveSeed(seed, trial * 1000 + buckets);
      for (int i = 0; i < count; ++i) {
        sketch.InsertObject(HashCombine(trial_seed, i), trial_seed);
      }
      const double rel = (sketch.EstimateCount() - count) / count;
      rel_error.Add(std::abs(rel));
      signed_error.Add(rel);
    }
    expected.push_back({rel_error.mean(),
                        std::sqrt(rel_error.mean() * rel_error.mean() +
                                  rel_error.variance()),
                        signed_error.mean()});
  }

  const auto tables = RunScenario(
      "name = tab_sketch_error_small\n"
      "protocol = fm-accuracy\n"
      "seed = 20090407\n"
      "protocol.samples = 40\n"
      "protocol.count = 2000\n"
      "sweep = protocol.buckets: 8, 32, 64\n",
      1);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(tables->size(), 1u);
  const CsvTable& table = (*tables)[0].table;
  ASSERT_EQ(table.columns().size(), 4u);
  EXPECT_EQ(table.columns()[0], "buckets");
  EXPECT_EQ(table.columns()[1], "mean_rel_error");
  EXPECT_EQ(table.columns()[2], "rms_rel_error");
  EXPECT_EQ(table.columns()[3], "bias");
  ASSERT_EQ(table.num_rows(), 3);
  for (int64_t r = 0; r < 3; ++r) {
    EXPECT_EQ(table.row(r)[0], bucket_sweep[r]);
    // Bit-identical: same draws, same accumulators, same divisions.
    EXPECT_EQ(table.row(r)[1], expected[r][0]) << "row " << r;
    EXPECT_EQ(table.row(r)[2], expected[r][1]) << "row " << r;
    EXPECT_EQ(table.row(r)[3], expected[r][2]) << "row " << r;
  }
}

TEST(PortParityTest, FmAccuracyValidatesParameters) {
  EXPECT_FALSE(RunScenario("protocol = fm-accuracy\nprotocol.samples = 0\n", 1).ok());
  EXPECT_FALSE(
      RunScenario("protocol = fm-accuracy\nprotocol.bukets = 64\n", 1).ok());
  EXPECT_FALSE(
      RunScenario("protocol = fm-accuracy\nrecord = bandwidth\n", 1).ok());
}

// --------------------------------------------------------- crawdad ---

class CrawdadScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestFile(".contacts");
    std::ofstream out(path_);
    // 4 devices (raw ids non-dense, remapped in order of appearance),
    // two contact phases over 40 simulated minutes.
    out << "# synthetic fixture\n"
        << "10 20 0 600\n"
        << "30 40 0 600\n"
        << "10 30 900 1500\n"
        << "20 40 900 1500\n"
        << "10 20 1800 2400\n";
  }

  /// A file named after the running test: ctest runs each case in its own
  /// process, and a file name shared between cases would let one truncate
  /// it while another reads it under `ctest -j`.
  static std::string TestFile(const std::string& suffix) {
    return ::testing::TempDir() + "/" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           suffix;
  }

  std::string Spec(const std::string& extra) const {
    return "name = crawdad_test\n"
           "environment = crawdad\n"
           "env.trace_file = " +
           path_ + "\n" + extra;
  }

  std::string path_;
};

TEST_F(CrawdadScenarioTest, DryRunValidatesWithoutReadingFile) {
  // A path that does not exist: --dry-run (ValidateExperiment) must still
  // pass, because the trace is only opened at execution time.
  const auto specs = ParseScenarioFile(
      "name = ghost\n"
      "environment = crawdad\n"
      "env.trace_file = /nonexistent/trace.contacts\n"
      "driver = trace\n"
      "protocol = push-sum-revert\n"
      "record = rms, avg_group_size\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_TRUE(ValidateExperiment((*specs)[0]).ok());
  // ...but execution fails loudly.
  const auto result = RunExperiment((*specs)[0], 1);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("trace_file"), std::string::npos);
}

TEST_F(CrawdadScenarioTest, RunsUnderTraceDriver) {
  const auto tables = RunScenario(Spec("driver = trace\n"
                               "protocol = push-sum-revert\n"
                               "gossip_period = 30\n"
                               "sample_period = 300\n"
                               "record = rms, avg_group_size\n"),
                          1);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(tables->size(), 1u);
  const CsvTable& table = (*tables)[0].table;
  ASSERT_EQ(table.columns().size(), 3u);
  EXPECT_EQ(table.columns()[0], "hour");
  EXPECT_EQ(table.columns()[1], "rms");
  EXPECT_EQ(table.columns()[2], "avg_group_size");
  // 2400s of trace, hourly-fraction samples every 300s.
  EXPECT_GE(table.num_rows(), 7);
}

TEST_F(CrawdadScenarioTest, RunsUnderRoundsDriverWithAdvancePeriod) {
  const auto tables = RunScenario(Spec("protocol = push-sum-revert\n"
                               "env.gossip_seconds = 60\n"
                               "rounds = 30\n"
                               "record = rms\n"),
                          1);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  const CsvTable& table = (*tables)[0].table;
  EXPECT_EQ(table.num_rows(), 30);
}

TEST_F(CrawdadScenarioTest, ThreadCountDeterminism) {
  const std::string text = Spec(
      "driver = trace\n"
      "protocol = push-sum-revert\n"
      "sample_period = 300\n"
      "trials = 3\n"
      "record = rms\n");
  const auto one = RunScenario(text, 1);
  const auto four = RunScenario(text, 4);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_TRUE(four.ok());
  const auto csv1 = RenderTables(*one, "crawdad_test", "csv");
  const auto csv4 = RenderTables(*four, "crawdad_test", "csv");
  ASSERT_TRUE(csv1.ok());
  ASSERT_TRUE(csv4.ok());
  EXPECT_EQ(*csv1, *csv4);
}

TEST_F(CrawdadScenarioTest, RejectsCorruptTables) {
  const std::string bad = TestFile("_bad.contacts");
  {
    std::ofstream out(bad);
    out << "1 1 0 600\n";  // self-contact
  }
  const auto result = RunScenario(
      "environment = crawdad\n"
      "env.trace_file = " +
          bad +
          "\n"
          "protocol = push-sum-revert\n"
          "rounds = 5\n",
      1);
  EXPECT_FALSE(result.ok());
}

TEST_F(CrawdadScenarioTest, RejectsUnknownEnvKeysAndBadValues) {
  EXPECT_FALSE(RunScenario(Spec("protocol = push-sum-revert\n"
                        "env.trace_fle = typo\n"),
                   1)
                   .ok());
  EXPECT_FALSE(RunScenario("environment = crawdad\n"
                   "protocol = push-sum-revert\n",  // no trace_file
                   1)
                   .ok());
  // env.gossip_seconds is the rounds driver's pacing knob; under the trace
  // driver the cadence is the top-level gossip_period (haggle's rule).
  EXPECT_FALSE(RunScenario(Spec("driver = trace\n"
                        "protocol = push-sum-revert\n"
                        "env.gossip_seconds = 10\n"),
                   1)
                   .ok());
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
