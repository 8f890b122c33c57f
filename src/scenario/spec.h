// Declarative experiment specifications.
//
// A scenario file describes a whole experiment — protocol, environment,
// population, rounds, failure plan, seeds, sweeps, trials, output — in a
// simple key = value text format, replacing the hand-rolled main() of each
// bench harness. One file holds one or more experiments: keys before the
// first [section] are shared defaults; each [section] inherits them and
// overrides what it needs. Example:
//
//     # Compare two gossip modes on the same population.
//     name = my_experiment
//     hosts = 1000
//     rounds = 60
//     seed = 42
//     trials = 5
//     sweep = protocol.lambda: 0, 0.01, 0.1
//     sweep2 = rounds: 30, 60
//     record = rms, bandwidth, cdf(final_error)
//     aggregate = mean, stddev
//
//     [push]
//     protocol = push-sum-revert
//     protocol.mode = push
//
//     [pushpull]
//     protocol = push-sum-revert
//     protocol.mode = pushpull
//
// Top-level keys are strictly validated (a typo is an error); namespaced
// keys (protocol.*, env.*, failure.*, record.*, seeds.*, workload.*,
// net.*) are
// collected into a parameter map and validated by the protocol /
// environment factories that consume them (scenario/protocols.cc,
// scenario/environments.cc, stream/stream_protocols.cc).

#ifndef DYNAGG_SCENARIO_SPEC_H_
#define DYNAGG_SCENARIO_SPEC_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dynagg {
namespace scenario {

/// Strict numeric/boolean parsers ("12x" is an error, unlike std::stoll).
Result<int64_t> ParseInt64(std::string_view text);
Result<double> ParseDouble(std::string_view text);
Result<bool> ParseBool(std::string_view text);

/// One entry of the `record =` metric list: a metric name plus an optional
/// parenthesised argument — `rms`, `bandwidth`, `cdf(final_error)`. Which
/// selectors exist is decided by the protocol runner that executes the
/// trial; the spec layer only carries the grammar.
struct MetricSpec {
  std::string name;
  std::string arg;  // "" when no (...) argument was given

  /// "name" or "name(arg)" — the canonical selector spelling.
  std::string ToString() const {
    return arg.empty() ? name : name + "(" + arg + ")";
  }
  bool operator==(const MetricSpec& other) const {
    return name == other.name && arg == other.arg;
  }
};

/// One experiment: a protocol x environment x failure-plan configuration,
/// optionally swept over one parameter and replicated over trials.
struct ScenarioSpec {
  /// Experiment name; "<scenario name>/<section>" for sectioned files.
  std::string name = "scenario";
  /// Protocol registry key (see scenario/trial.h). Required.
  std::string protocol;
  /// Environment registry key.
  std::string environment = "uniform";
  /// Trial driver registry key: how simulated time advances. "rounds" is
  /// the paper's synchronous round loop; "trace" replays the environment's
  /// contact trace on the event-driven simulator core.
  std::string driver = "rounds";
  /// Trace driver: seconds of simulated time between gossip ticks
  /// (default 30, the paper's cadence). 0 = unset; setting it under a
  /// non-event driver is a validation error.
  double gossip_period = 0.0;
  /// Trace driver: seconds between metric samples (default 3600, the
  /// paper's hourly reporting). 0 = unset; same validation rule.
  double sample_period = 0.0;
  /// Always 1: no spec key or sweep writes this field, and rounds run on
  /// one thread. It remains only because the end-to-end benchmark harness
  /// (e2ebench/e2e_trace.cc) reads it; drop it with that read.
  int intra_round_threads = 1;
  /// Population size. 0 means "derive from the environment" (allowed for
  /// environments with intrinsic size, e.g. spatial grids and traces).
  int hosts = 0;
  /// Gossip rounds per trial.
  int rounds = 200;
  /// Whether `rounds =` was written explicitly (the parser sets this).
  /// Event-driven drivers ignore rounds — the trace horizon governs the
  /// length — so validation rejects an explicit value there instead of
  /// silently running a different length than declared.
  bool rounds_set = false;
  /// Independent repetitions. Trial 0 replays the base seed exactly (legacy
  /// bench parity); trial t > 0 uses a derived, decorrelated seed.
  int trials = 1;
  /// Base RNG seed for the whole experiment.
  uint64_t seed = 1;
  /// Swept parameter ("" = no sweep). May be "hosts", "rounds", or any
  /// namespaced key; one full run is executed per value in sweep_values.
  std::string sweep_key;
  std::vector<double> sweep_values;
  /// Optional second sweep axis (`sweep2 = key: v1, v2, ...`): the
  /// experiment runs the full cross product sweep x sweep2 x trials. Only
  /// valid together with `sweep`, and must name a different key.
  std::string sweep2_key;
  std::vector<double> sweep2_values;
  /// Metrics recorded in one pass per trial (`record = rms, bandwidth,
  /// cdf(final_error)`). The protocol runner decides which selectors it
  /// supports and errors on unknown ones. Defaults to the paper's per-round
  /// RMS-deviation series.
  std::vector<MetricSpec> metrics = {{"rms", ""}};
  /// Cross-trial aggregation (`aggregate = mean, stddev`): when non-empty,
  /// the executor collapses the trial axis and reports, per metric column,
  /// one column per listed statistic (mean, stddev, min, max). Histogram
  /// records are pooled (bucket counts summed) instead. Requires
  /// trials >= 2 — a one-trial stddev would silently read 0.
  std::vector<std::string> aggregates;
  /// Telemetry mode: "" / "off" (default) collects nothing; "summary"
  /// accumulates per-trial phase timings and engine counters, reported as a
  /// per-sweep-point table; "profile" additionally keeps the raw span
  /// stream for the Chrome trace-event export (dynagg_run
  /// --telemetry-out). Telemetry is a pure side channel: the experiment's
  /// metric tables are byte-identical with it on or off.
  std::string telemetry;
  /// Output destination: "-" for stdout or a file path.
  std::string output = "-";
  /// Output format: "csv" or "jsonl".
  std::string format = "csv";
  /// Namespaced parameters (protocol.*, env.*, failure.*, record.*,
  /// seeds.*, workload.*, net.*), consumed by the factories.
  std::map<std::string, std::string> params;

  bool HasParam(const std::string& key) const {
    return params.count(key) != 0;
  }
  /// Typed parameter accessors; the default is returned when the key is
  /// absent, a bad value is an InvalidArgument naming the key.
  Result<std::string> ParamString(const std::string& key,
                                  std::string def) const;
  Result<int64_t> ParamInt(const std::string& key, int64_t def) const;
  Result<double> ParamDouble(const std::string& key, double def) const;
  Result<bool> ParamBool(const std::string& key, bool def) const;

  /// Rejects any parameter under `prefix` (e.g. "protocol.") whose suffix is
  /// not in `allowed`: factories call this so typos in namespaced keys fail
  /// loudly instead of silently using defaults.
  Status CheckParams(const std::string& prefix,
                     const std::vector<std::string>& allowed) const;
};

/// Validates a metric list (non-empty names, no duplicate selectors) and an
/// aggregate list (known statistics, no duplicates). Shared by the file
/// parser and the executor preflight so file-parsed and hand-built specs
/// agree on validity.
Status ValidateMetricList(const std::vector<MetricSpec>& metrics);
Status ValidateAggregateList(const std::vector<std::string>& aggregates);

/// Parses a scenario file into one spec per [section] (or a single spec for
/// a sectionless file). `default_name` seeds ScenarioSpec::name when the
/// file sets none (callers pass the file stem). Errors carry line numbers.
/// Cross-field rules (sweep2 axis sanity, aggregate/trials interplay) are
/// enforced by the executor's ValidateExperiment preflight, not here.
Result<std::vector<ScenarioSpec>> ParseScenarioFile(
    std::string_view text, const std::string& default_name = "scenario");

}  // namespace scenario
}  // namespace dynagg

#endif  // DYNAGG_SCENARIO_SPEC_H_
