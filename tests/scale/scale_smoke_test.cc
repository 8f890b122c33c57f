// Scale-rung smoke tests (ctest label: scale).
//
// The checked-in scale_1m / scale_10m scenario specs are the top rungs of
// the perf trajectory; a full execution belongs to tools/bench.sh, not to
// every ctest run. What CI must still catch cheaply:
//   - the specs parse and pass ValidateExperiment (the --dry-run contract),
//     with the shape the snapshot assumes (hosts, a single point);
//   - a downsized execution of the same spec shape runs end-to-end through
//     the executor and is bit-identical at 1 and 4 executor threads.
// These run in the plain suite too (they finish in well under a second);
// the `scale` label lets the Release CI lane and humans invoke exactly
// this slice with `ctest -L scale`.

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "scenario/executor.h"
#include "scenario/spec.h"

namespace dynagg {
namespace scenario {
namespace {

std::string ReadRepoFile(const std::string& relative) {
  const std::string path = std::string(DYNAGG_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ScenarioSpec MustParseRepoScenario(const std::string& relative) {
  const auto specs = ParseScenarioFile(ReadRepoFile(relative));
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ(specs->size(), 1u);
  return (*specs)[0];
}

TEST(ScaleSmokeTest, Scale1mSpecDryRunValidates) {
  const ScenarioSpec spec =
      MustParseRepoScenario("bench/scenarios/scale_1m.scenario");
  EXPECT_EQ(spec.hosts, 1000000);
  EXPECT_TRUE(spec.sweep_key.empty());
  const Status st = ValidateExperiment(spec);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ScaleSmokeTest, Scale10mSpecDryRunValidates) {
  const ScenarioSpec spec =
      MustParseRepoScenario("bench/scenarios/scale_10m.scenario");
  EXPECT_EQ(spec.hosts, 10000000);
  EXPECT_TRUE(spec.sweep_key.empty());
  const Status st = ValidateExperiment(spec);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ScaleSmokeTest, DownsizedScale1mExecutesThreadCountInvariant) {
  // Same spec, 50x smaller population, so the executed shape — push-mode
  // push-sum on the uniform env — is exercised end-to-end on every ctest
  // run without the 40 MB working set.
  ScenarioSpec spec = MustParseRepoScenario("bench/scenarios/scale_1m.scenario");
  spec.hosts = 20000;
  spec.trials = 4;
  const auto one = RunExperiment(spec, 1);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_EQ(one->size(), 1u);
  const CsvTable& table = (*one)[0].table;
  ASSERT_EQ(table.num_rows(), spec.trials);  // one row per trial
  // The recorded metric is in the last column.
  const size_t metric = table.columns().size() - 1;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_TRUE(std::isfinite(table.row(r)[metric])) << "trial row " << r;
    EXPECT_GT(table.row(r)[metric], 0.0) << "trial row " << r;
  }
  // Trials spread over executor threads: bit-identical, not approximately
  // equal.
  const auto four = RunExperiment(spec, 4);
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  ASSERT_EQ(four->size(), 1u);
  const CsvTable& spread = (*four)[0].table;
  ASSERT_EQ(spread.num_rows(), table.num_rows());
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(spread.row(r), table.row(r)) << "trial row " << r;
  }
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
