// Dry-run validation error paths: ValidateExperiment (the whole backing of
// `dynagg_run --dry-run`) must reject knob/protocol mismatches, malformed
// derived-record arguments and driver-incompatible keys up front — without
// building environments or swarms — and the diagnostics must name the
// offending key or selector.

#include <string>

#include <gtest/gtest.h>

#include "scenario/executor.h"
#include "scenario/spec.h"

namespace dynagg {
namespace scenario {
namespace {

/// Parses a single-experiment scenario text and returns its dry-run
/// verdict (parse errors fail the test — these cases target validation).
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

// ------------------------------------------------ protocol knob paths ---

TEST(DryRunValidationTest, RejectsUnknownGossipMode) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nprotocol.mode = pull\n",
      "protocol.mode must be push or pushpull");
}

TEST(DryRunValidationTest, RejectsRevertOnProtocolWithoutReversion) {
  // push-sum has no reversion machinery; the knob must fail loudly instead
  // of being silently ignored.
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nprotocol.revert = adaptive\n",
      "protocol.revert");
  // ...while the same key validates on push-sum-revert.
  EXPECT_TRUE(DryRun("protocol = push-sum-revert\nhosts = 16\n"
                     "protocol.revert = adaptive\n")
                  .ok());
}

TEST(DryRunValidationTest, RejectsRetiredIntraRoundThreadsKey) {
  // Rounds run on one thread; the old scatter-thread key is an unknown key
  // now, as a value and as a sweep axis, and the diagnostic names it.
  for (const char* line :
       {"intra_round_threads = 2\n", "intra_round_threads = 1\n",
        "sweep = intra_round_threads: 1, 2\n"}) {
    const auto specs = ParseScenarioFile(
        std::string("protocol = push-sum\nhosts = 16\n") + line);
    ASSERT_FALSE(specs.ok()) << "spec unexpectedly valid: " << line;
    EXPECT_NE(specs.status().message().find("intra_round_threads"),
              std::string::npos)
        << specs.status().ToString();
  }
}

TEST(DryRunValidationTest, RejectsUnknownRevertValue) {
  ExpectDryRunError(
      "protocol = push-sum-revert\nhosts = 16\nprotocol.revert = maybe\n",
      "protocol.revert must be fixed or adaptive");
}

TEST(DryRunValidationTest, RejectsOutOfRangeKnobs) {
  ExpectDryRunError(
      "protocol = epoch-push-sum\nhosts = 16\nprotocol.epoch_length = 0\n",
      "protocol.epoch_length");
  ExpectDryRunError(
      "protocol = full-transfer\nhosts = 16\nprotocol.parcels = 0\n",
      "protocol.parcels");
  ExpectDryRunError(
      "protocol = extreme-recovery\nhosts = 16\n"
      "protocol.recover_pct = 101\n",
      "protocol.recover_pct");
}

TEST(DryRunValidationTest, RejectsConflictingEpochPhaseKnobs) {
  ExpectDryRunError(
      "protocol = epoch-push-sum\nhosts = 16\n"
      "protocol.phase_spread = 2\nprotocol.random_phases = true\n",
      "protocol.random_phases and protocol.phase_spread");
}

TEST(DryRunValidationTest, RejectsBadKnobValueInSweep) {
  // The base spec is fine; the swept value -1 lands in a validated knob.
  ExpectDryRunError(
      "protocol = full-transfer\nhosts = 16\n"
      "sweep = protocol.parcels: 4, -1\n",
      "protocol.parcels");
}

TEST(DryRunValidationTest, RejectsWorkloadMultiplicityUnderTrace) {
  ExpectDryRunError(
      "protocol = count-sketch-reset\ndriver = trace\n"
      "environment = haggle\nrecord = rms\n"
      "protocol.multiplicity = workload\n",
      "protocol.multiplicity");
}

// --------------------------------------------- derived-record grammar ---

TEST(DryRunValidationTest, RejectsMalformedRoundsBelowThreshold) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\n"
      "record = rounds_below(rms, banana)\n",
      "rounds_below(rms, T)");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = rounds_below(rms)\n",
      "rounds_below(rms, T)");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\n"
      "record = rounds_below(final_error, 1.0)\n",
      "rounds_below(rms, T)");
  EXPECT_TRUE(DryRun("protocol = push-sum\nhosts = 16\n"
                     "record = rounds_below(rms, 1.5)\n")
                  .ok());
}

TEST(DryRunValidationTest, RejectsMalformedRmsAtAndRelErrorArgs) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = rms_at(0)\n", "rms_at");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = rms_at(2.5)\n", "rms_at");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = final_rel_error(-1)\n",
      "final_rel_error");
}

TEST(DryRunValidationTest, RejectsRecoveryRoundsOnForeignSeries) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = recovery_rounds(bytes)\n",
      "recovery_rounds");
}

TEST(DryRunValidationTest, RejectsUnknownRecordKnob) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = rms\n"
      "record.recovery_mutl = 2\n",
      "record.recovery_mutl");
}

TEST(DryRunValidationTest, RejectsCounterQuantilesOutsideUnitInterval) {
  ExpectDryRunError(
      "protocol = count-sketch-reset\nhosts = 16\n"
      "record = counter_quantiles(0.5, 1.5)\n",
      "counter_quantiles");
  // ...and the selector is CSR-only: push-sum has no counters.
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\n"
      "record = counter_quantiles(0.5)\n",
      "counter_quantiles");
}

// count-sketch-reset's counter-record knobs and the spatial grid's host
// count are checked by the parse every trial runs first, so --dry-run
// rejects these specs with the message a trial would fail with.
TEST(DryRunValidationTest, RejectsOutOfRangeCounterRecordKnobs) {
  const std::string base = "protocol = count-sketch-reset\nhosts = 16\n";
  ExpectDryRunError(base + "record = cdf(counter)\nrecord.max_counter = 0\n",
                    "record.max_counter must be in [1, 254]");
  ExpectDryRunError(base +
                        "record = counter_quantiles(0.5)\n"
                        "record.counter_hist_buckets = 0\n",
                    "record.counter_hist_buckets >= 1");
  EXPECT_TRUE(DryRun(base +
                     "record = cdf(counter), counter_quantiles(0.5)\n"
                     "record.max_counter = 254\n"
                     "record.counter_hist_buckets = 1\n")
                  .ok());
}

TEST(DryRunValidationTest, RejectsHostsThatDisagreeWithSpatialGrid) {
  const std::string base =
      "protocol = push-sum\nenvironment = spatial\nenv.width = 10\n"
      "env.height = 10\n";
  ExpectDryRunError(base + "hosts = 50\n",
                    "does not match the environment's intrinsic size 100");
  EXPECT_TRUE(DryRun(base + "hosts = 100\n").ok());
  EXPECT_TRUE(DryRun(base + "hosts = 0\n").ok());
}

// ------------------------------------------- driver-compatibility paths ---

TEST(DryRunValidationTest, RejectsGossipBytesOnProtocolWithoutModel) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = gossip_bytes\n",
      "gossip_bytes");
  EXPECT_TRUE(DryRun("protocol = invert-average\nhosts = 16\n"
                     "record = gossip_bytes\n")
                  .ok());
  EXPECT_TRUE(DryRun("protocol = count-sketch-reset\nhosts = 16\n"
                     "record = gossip_bytes\n")
                  .ok());
}

TEST(DryRunValidationTest, RejectsFailurePlanKeysOnTraceDriver) {
  ExpectDryRunError(
      "protocol = push-sum-revert\ndriver = trace\nenvironment = haggle\n"
      "record = rms\nfailure.kind = churn\nfailure.death_prob = 0.01\n",
      "failure.");
}

TEST(DryRunValidationTest, RejectsRoundMetricsOnTraceDriver) {
  ExpectDryRunError(
      "protocol = push-sum-revert\ndriver = trace\nenvironment = haggle\n"
      "record = rms_tail_mean\n",
      "rms_tail_mean");
}

TEST(DryRunValidationTest, RejectsBandwidthOnProtocolsWithoutMeter) {
  // These swarms record no traffic; the spec used to pass --dry-run and
  // then fail every trial.
  for (const std::string protocol :
       {"extremes", "epoch-push-sum", "invert-average"}) {
    ExpectDryRunError(
        "protocol = " + protocol + "\nhosts = 16\nrecord = bandwidth\n",
        "does not support the bandwidth metric");
  }
  // ...while metered swarms accept it.
  for (const std::string protocol :
       {"push-sum", "node-aggregator", "count-min"}) {
    const std::string workload = protocol == "count-min"
                                     ? "workload.kind = zipf\n"
                                     : "";
    EXPECT_TRUE(DryRun("protocol = " + protocol +
                       "\nhosts = 16\nrecord = bandwidth\n" + workload)
                    .ok())
        << protocol;
  }
}

TEST(DryRunValidationTest, RejectsRoundsDriverKeysOnTraceDriver) {
  // The trace driver reads no record.* knob and only the round stream;
  // both keys used to pass --dry-run and then fail at run time.
  const std::string base =
      "protocol = push-sum\ndriver = trace\nenvironment = haggle\n"
      "record = rms\n";
  ExpectDryRunError(base + "record.from = 3\n", "record.from");
  ExpectDryRunError(base + "seeds.failure_stream = 3\n",
                    "seeds.failure_stream");
  EXPECT_TRUE(DryRun(base + "seeds.round_stream = 3\n").ok());
}

TEST(DryRunValidationTest, RoundStreamGrammarResolvesAtRunTimeOnly) {
  // The sweepval grammar needs a sweep axis; with one present the spec
  // validates, and the ablation specs rely on it.
  EXPECT_TRUE(DryRun("protocol = push-sum-revert\nhosts = 16\n"
                     "sweep = protocol.lambda: 0.01, 0.1\n"
                     "seeds.round_stream = sweepval*10000+1\n")
                  .ok());
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
