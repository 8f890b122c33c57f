#!/usr/bin/env bash
# Tier-1 verify sequence (CI entrypoint): configure, build, ctest.
# Usage: tools/check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"
# cd instead of --test-dir: the latter needs ctest >= 3.20, the project's
# declared minimum is 3.16.
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")
# Every checked-in scenario spec must at least validate (registry lookups,
# record/aggregate/sweep grammar, driver compatibility) without executing.
"$BUILD_DIR"/dynagg_run --dry-run bench/scenarios/*.scenario
# Smoke execution: run the tiny checked-in smoke scenario end-to-end (both
# trial drivers, 2 trials each) and demand byte-identical output to the
# checked-in golden. Catches regressions that change numbers, not just
# structure; see smoke.scenario for how to regenerate after an intentional
# change.
"$BUILD_DIR"/dynagg_run --threads=2 --output="$BUILD_DIR/smoke_out.csv" \
  bench/scenarios/smoke.scenario
diff -u bench/scenarios/golden/smoke.csv "$BUILD_DIR/smoke_out.csv"
echo "check.sh: smoke scenario output matches golden"
# Streaming smoke: the heavy-hitter grid (keyed Zipf stream -> count-min
# swarms on the round kernel) must execute and reproduce its golden
# byte-for-byte; see heavy_hitters.scenario for regeneration.
"$BUILD_DIR"/dynagg_run --threads=2 \
  --output="$BUILD_DIR/heavy_hitters_out.csv" \
  bench/scenarios/heavy_hitters.scenario
diff -u bench/scenarios/golden/heavy_hitters.csv \
  "$BUILD_DIR/heavy_hitters_out.csv"
echo "check.sh: heavy_hitters scenario output matches golden"
# Sketch frontier: both sketch kinds (count-min and the signed
# count-sketch-freq) over an epsilon sweep, scored by hh_frontier and
# hh_weighted_err — the unranked scoring path heavy_hitters does not
# reach; see sketch_frontier.scenario for regeneration.
"$BUILD_DIR"/dynagg_run --threads=2 \
  --output="$BUILD_DIR/sketch_frontier_out.csv" \
  bench/scenarios/sketch_frontier.scenario
diff -u bench/scenarios/golden/sketch_frontier.csv \
  "$BUILD_DIR/sketch_frontier_out.csv"
echo "check.sh: sketch_frontier scenario output matches golden"
# Async smoke: the loss-rate x protocol grid on the async driver (network
# models, message-level scheduling, push-sum vs push-flow under drops)
# must execute and reproduce its golden byte-for-byte; see
# loss_sweep.scenario for regeneration.
"$BUILD_DIR"/dynagg_run --threads=2 \
  --output="$BUILD_DIR/loss_sweep_out.csv" \
  bench/scenarios/loss_sweep.scenario
diff -u bench/scenarios/golden/loss_sweep.csv "$BUILD_DIR/loss_sweep_out.csv"
echo "check.sh: loss_sweep scenario output matches golden"
# Churn smoke: the arrival-rate x protocol grid under two-sided membership
# churn (deaths, rebirths with ID reuse, Poisson arrivals) must execute
# and reproduce its golden byte-for-byte — this is the determinism
# contract's membership clause under test; see churn_sweep.scenario for
# regeneration.
"$BUILD_DIR"/dynagg_run --threads=2 \
  --output="$BUILD_DIR/churn_sweep_out.csv" \
  bench/scenarios/churn_sweep.scenario
diff -u bench/scenarios/golden/churn_sweep.csv \
  "$BUILD_DIR/churn_sweep_out.csv"
echo "check.sh: churn_sweep scenario output matches golden"
# Spec-grammar fuzzer, fixed corpus: 500 generated/mutated specs, each of
# which must either fail --dry-run with an actionable diagnostic or
# execute clean — any runtime-only rejection is a validation gap and dumps
# a fuzz_repro_*.scenario artifact.
mkdir -p "$BUILD_DIR/fuzz"
"$BUILD_DIR"/dynagg_fuzz --seed-corpus --out-dir="$BUILD_DIR/fuzz"
echo "check.sh: fuzz seed corpus clean"
# Perf smoke: the round-kernel microbenchmarks must still run and the
# 100k-host scale spec must validate. The full perf snapshot
# (BENCH_roundkernel.json) is regenerated with `tools/bench.sh`.
tools/bench.sh --smoke "$BUILD_DIR"
