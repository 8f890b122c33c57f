// Async driver tests: byte-identical output across executor thread
// counts (message-level scheduling must not leak executor concurrency
// into results), the loss-sweep victim/control relationship between
// push-sum and push-flow, delivery-rate bookkeeping, and the dry-run
// rejections that fence the driver's spec surface.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/executor.h"
#include "scenario/sink.h"
#include "scenario/spec.h"

namespace dynagg {
namespace scenario {
namespace {

std::vector<ResultTable> MustRunAll(const std::string& text, int threads) {
  const auto specs = ParseScenarioFile(text);
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ(specs->size(), 1u);
  Result<std::vector<ResultTable>> tables =
      RunExperiment((*specs)[0], threads);
  EXPECT_TRUE(tables.ok()) << tables.status().ToString();
  return std::move(tables).value();
}

/// Runs and renders every table of the experiment (determinism diffs).
std::string MustRender(const std::string& text, int threads) {
  const std::vector<ResultTable> tables = MustRunAll(text, threads);
  Result<std::string> out = RenderTables(tables, "t", "csv");
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return *out;
}

/// Runs a scalar-records-only experiment (exactly one summary table).
CsvTable MustRun(const std::string& text, int threads) {
  std::vector<ResultTable> tables = MustRunAll(text, threads);
  EXPECT_EQ(tables.size(), 1u);
  return std::move(tables[0].table);
}

int ColumnIndex(const CsvTable& table, const std::string& name) {
  const auto& cols = table.columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Status DryRun(const std::string& text) {
  const auto specs = ParseScenarioFile(text);
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  if (!specs.ok()) return specs.status();
  EXPECT_EQ(specs->size(), 1u);
  return ValidateExperiment((*specs)[0]);
}

void ExpectDryRunError(const std::string& text, const std::string& needle) {
  const Status st = DryRun(text);
  EXPECT_FALSE(st.ok()) << "spec unexpectedly valid:\n" << text;
  if (!st.ok()) {
    EXPECT_NE(st.message().find(needle), std::string::npos)
        << "diagnostic '" << st.message() << "' does not mention '"
        << needle << "'";
  }
}

constexpr char kLossyPushFlow[] =
    "name = t\n"
    "driver = async\n"
    "protocol = push-flow\n"
    "environment = random-graph\n"
    "env.degree = 4\n"
    "hosts = 48\n"
    "rounds = 40\n"
    "trials = 2\n"
    "seed = 7\n"
    "gossip_period = 30\n"
    "net.latency = exponential\n"
    "net.latency_s = 10\n"
    "net.loss = 0.2\n"
    "record = rms, final_rms, delivery_rate, bandwidth\n"
    "record.every = 10\n";

// ---------------------------------------------------------- determinism ---

TEST(AsyncDriverTest, OutputIsByteIdenticalAcrossExecutorThreads) {
  const std::string serial = MustRender(kLossyPushFlow, 1);
  const std::string parallel = MustRender(kLossyPushFlow, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(AsyncDriverTest, SweptRunsAreByteIdenticalAcrossExecutorThreads) {
  const std::string text =
      "name = t\n"
      "driver = async\n"
      "protocol = push-sum\n"
      "protocol.mode = push\n"
      "hosts = 32\n"
      "rounds = 20\n"
      "trials = 2\n"
      "seed = 9\n"
      "net.latency = fixed\n"
      "net.latency_s = 1\n"
      "sweep = net.loss: 0, 0.1, 0.3\n"
      "record = final_rms, delivery_rate\n";
  EXPECT_EQ(MustRender(text, 1), MustRender(text, 8));
}

// ----------------------------------------------------- loss semantics ---

double MeanFinalRms(const std::string& text) {
  const CsvTable table = MustRun(text, 2);
  const int col = ColumnIndex(table, "final_rms");
  EXPECT_GE(col, 0);
  double sum = 0.0;
  for (int64_t r = 0; r < table.num_rows(); ++r) sum += table.row(r)[col];
  return sum / static_cast<double>(table.num_rows());
}

std::string LossSpec(const char* protocol, const char* extra, double loss) {
  std::string text =
      "name = t\n"
      "driver = async\n"
      "environment = random-graph\n"
      "env.degree = 4\n"
      "hosts = 64\n"
      "rounds = 100\n"
      "trials = 2\n"
      "seed = 777\n"
      "net.latency = fixed\n"
      "net.latency_s = 1\n"
      "record = final_rms\n";
  text += std::string("protocol = ") + protocol + "\n" + extra;
  text += "net.loss = " + std::to_string(loss) + "\n";
  return text;
}

TEST(AsyncDriverTest, LossDivergesPushSumButNotPushFlow) {
  // The acceptance relationship of the loss sweep: push-sum's settled
  // error grows under loss (destroyed mass is permanent) while push-flow
  // self-heals and stays well below it at every nonzero rate.
  const double ps_clean = MeanFinalRms(LossSpec(
      "push-sum", "protocol.mode = push\n", 0.0));
  const double ps_lossy = MeanFinalRms(LossSpec(
      "push-sum", "protocol.mode = push\n", 0.2));
  const double pf_clean = MeanFinalRms(LossSpec("push-flow", "", 0.0));
  const double pf_lossy = MeanFinalRms(LossSpec("push-flow", "", 0.2));

  // Lossless runs converge tightly, and to the same error up to the
  // protocols' different summation orders: the driver feeds both the same
  // partner plans and per-message transfers.
  EXPECT_NEAR(ps_clean, pf_clean, 1e-9);
  EXPECT_LT(ps_clean, 1e-2);
  // The victim diverges by orders of magnitude; the control stays bounded.
  EXPECT_GT(ps_lossy, 100 * ps_clean);
  EXPECT_LT(pf_lossy, ps_lossy / 5);
}

TEST(AsyncDriverTest, DeliveryRateTracksLossAndDropsStillCostBandwidth) {
  const std::string text =
      "name = t\n"
      "driver = async\n"
      "protocol = push-flow\n"
      "hosts = 64\n"
      "rounds = 40\n"
      "trials = 2\n"
      "seed = 7\n"
      "net.latency = fixed\n"
      "net.latency_s = 1\n"
      "net.loss = 0.2\n"
      "record = delivery_rate, bandwidth\n";
  const CsvTable table = MustRun(text, 2);
  const int rate_col = ColumnIndex(table, "delivery_rate");
  const int msg_col = ColumnIndex(table, "msgs_per_host_round");
  ASSERT_GE(rate_col, 0);
  ASSERT_GE(msg_col, 0);
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_NEAR(table.row(r)[rate_col], 0.8, 0.05);
    // Every planned message is metered as sent, dropped or not: one push
    // per host per tick regardless of the loss rate.
    EXPECT_DOUBLE_EQ(table.row(r)[msg_col], 1.0);
  }
}

// ------------------------------------------------------- validation ---

TEST(AsyncDriverTest, ValidSpecsDryRun) {
  EXPECT_TRUE(DryRun(kLossyPushFlow).ok());
  EXPECT_TRUE(DryRun("driver = async\nprotocol = push-sum\n"
                     "protocol.mode = push\nhosts = 16\n")
                  .ok());
}

TEST(AsyncDriverTest, RejectsNetKeysOnRoundDrivers) {
  ExpectDryRunError("protocol = push-sum\nhosts = 16\nnet.loss = 0.1\n",
                    "driver = async");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nseeds.message_stream = trial\n",
      "driver = async");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nsweep = net.loss: 0, 0.1\n",
      "driver = async");
}

TEST(AsyncDriverTest, RejectsAsyncIncapableProtocolsAndModes) {
  // push-sum's default pushpull exchange is instantaneous by construction.
  ExpectDryRunError("driver = async\nprotocol = push-sum\nhosts = 16\n",
                    "protocol.mode = push");
  // Protocols without message-level hooks name the discovery path.
  ExpectDryRunError("driver = async\nprotocol = full-transfer\nhosts = 16\n",
                    "message-level");
}

TEST(AsyncDriverTest, RejectsMalformedNetworkParams) {
  const std::string base =
      "driver = async\nprotocol = push-flow\nhosts = 16\n";
  ExpectDryRunError(base + "net.latency = gaussian\n", "net.latency");
  ExpectDryRunError(base + "net.loss = 1.5\n", "net.loss");
  ExpectDryRunError(base + "net.loss = nan\n", "net.loss");
  ExpectDryRunError(base + "net.jitter = -1\n", "net.jitter");
  ExpectDryRunError(base + "net.latency = uniform\nnet.latency_s = 5\n",
                    "net.latency_hi_s");
  ExpectDryRunError(
      base + "net.latency = fixed\nnet.latency_s = 1\nnet.latency_hi_s = 2\n",
      "net.latency_hi_s");
  ExpectDryRunError(base + "net.bogus = 1\n", "net.bogus");
}

TEST(AsyncDriverTest, RejectsRoundDriverOnlyKnobs) {
  const std::string base =
      "driver = async\nprotocol = push-flow\nhosts = 16\n";
  ExpectDryRunError(base + "failure.kind = churn\n", "failure.");
  ExpectDryRunError(base + "sample_period = 4\n", "sample_period");
  ExpectDryRunError(base + "record = avg_group_size\n", "avg_group_size");
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
