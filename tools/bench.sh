#!/usr/bin/env bash
# Round-kernel perf snapshot: benchmarks the Environment API v2 hot path
# (pre-refactor per-host SamplePeer round vs the plan -> apply kernel, via
# bench/micro_protocol_ops) across the 10k/100k/1M size trajectory, times
# the scale_100k and scale_1m scenarios end-to-end, and records the
# per-phase breakdown from the telemetry summary. Writes BENCH_roundkernel.json, carrying the previous
# snapshot forward in a `history` array so the perf trajectory is recorded
# in-repo.
#
# Usage:
#   tools/bench.sh [build-dir]            full run, rewrites BENCH_roundkernel.json
#   tools/bench.sh --smoke [build-dir]    quick CI sanity: every round_ns key
#                                         in the checked-in snapshot is
#                                         re-measured (best-of-N repetitions)
#                                         and gated two ways — per key at a
#                                         2x blowup, and at >35% on the
#                                         geometric-mean slowdown across all
#                                         keys (the CI host is a noisy 1-CPU
#                                         VM whose memory bandwidth drifts;
#                                         single memory-bound keys swing too
#                                         much for a tight per-key gate).
#                                         Snapshot keys the local build
#                                         cannot produce are warned about
#                                         and skipped — never silently
#                                         dropped. The scale scenario specs
#                                         (100k/1M/10M) are --dry-run
#                                         validated.
#   tools/bench.sh --scale10m [build-dir] times the ten-million-host rung
#                                         end-to-end (~600 MB RAM) and
#                                         records it into the snapshot as
#                                         scale_10m_scenario_seconds.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=full
if [[ "${1:-}" == "--smoke" ]]; then
  MODE=smoke
  shift
elif [[ "${1:-}" == "--scale10m" ]]; then
  MODE=scale10m
  shift
fi
BUILD_DIR="${1:-build}"
MICRO="$BUILD_DIR/micro_protocol_ops"
RUNNER="$BUILD_DIR/dynagg_run"
FILTER='PushRoundLegacy|PushRoundKernel|PushPullRoundLegacy|PushPullRoundKernel|ChurnedPushRound|StreamCountMinRound|AsyncDriverStep'

if [[ ! -x "$RUNNER" ]]; then
  echo "bench.sh: $RUNNER not built (run tools/check.sh or cmake first)" >&2
  exit 1
fi

# One timed scenario run; extra flags pass through to the runner.
time_scenario_run() {
  local scenario="$1"
  local out="$2"
  shift 2
  local start
  start=$(date +%s.%N)
  "$RUNNER" --output="$out" "$@" "$scenario"
  python3 -c "import time; print(f'{time.time() - $start:.3f}')"
}

if [[ "$MODE" == scale10m ]]; then
  # On-demand top rung: one end-to-end run (the trial dwarfs scheduler
  # noise at this size — ~600 MB of state, seconds per sweep point).
  SECONDS_10M=$(time_scenario_run bench/scenarios/scale_10m.scenario \
    "$BUILD_DIR/scale_10m_out.csv")
  echo "bench.sh --scale10m: scale_10m end-to-end ${SECONDS_10M}s"
  python3 - "$SECONDS_10M" <<'PY'
import json, sys

try:
    with open("BENCH_roundkernel.json") as f:
        snapshot = json.load(f)
except FileNotFoundError:
    print("bench.sh --scale10m: no BENCH_roundkernel.json; timing not "
          "recorded (run tools/bench.sh first)")
    sys.exit(0)
snapshot["scale_10m_scenario_seconds"] = float(sys.argv[1])
with open("BENCH_roundkernel.json", "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=False)
    f.write("\n")
print("bench.sh --scale10m: recorded scale_10m_scenario_seconds in "
      "BENCH_roundkernel.json")
PY
  exit 0
fi

if [[ "$MODE" == smoke ]]; then
  # CI sanity + perf gate: every round_ns key of the checked-in snapshot is
  # re-measured and individually gated, and the scale specs must validate.
  GATE_PCT="${DYNAGG_BENCH_GATE_PCT:-35}"
  if [[ -x "$MICRO" ]]; then
    SMOKE_JSON="$BUILD_DIR/bench_smoke_raw.json"
    AVAIL_LIST="$BUILD_DIR/bench_smoke_avail.txt"
    "$MICRO" --benchmark_filter="$FILTER" --benchmark_list_tests > "$AVAIL_LIST"
    # Best-of-N rather than median: the CI VM's throughput swings by tens
    # of percent under neighbor load, which slows *some* repetitions; a
    # genuine code regression slows the fastest one too, so the minimum is
    # the noise-robust gate statistic.
    # Random interleaving shuffles repetitions across benchmarks so a
    # multi-second slow window on the VM cannot inflate every repetition
    # of one key while leaving its neighbors untouched.
    # The microsecond-scale kernel family runs in its own invocation with
    # more repetitions, separated from the second-scale 1M-host
    # stream/async benchmarks: a 600 MB stream round interleaved between
    # kernel repetitions evicts every cache level and inflates whichever
    # kernel key runs next past the gate on unchanged code. The snapshot
    # numbers come from the same two-invocation scheme (full mode), so
    # gate and baseline measure like against like. The kernel family also
    # keeps full mode's 0.25s min_time: the 1M-host keys run 40-65 ms per
    # iteration, and a shorter window times 1-2 iterations per repetition
    # — all unamortized cold page-touch on the 64 MB state arrays, which
    # alone reads as +50% vs the warm snapshot number. The second-scale
    # stream/async keys amortize their cold start within one iteration,
    # so they stay on the short window.
    SMOKE_HEAVY_JSON="$BUILD_DIR/bench_smoke_heavy_raw.json"
    "$MICRO" \
      --benchmark_filter='PushRoundLegacy|PushRoundKernel|PushPullRoundLegacy|PushPullRoundKernel|ChurnedPushRound' \
      --benchmark_min_time="${DYNAGG_BENCH_SMOKE_MIN_TIME:-0.25}" \
      --benchmark_repetitions=5 \
      --benchmark_enable_random_interleaving=true \
      --benchmark_format=json > "$SMOKE_JSON"
    "$MICRO" --benchmark_filter='StreamCountMinRound|AsyncDriverStep' \
      --benchmark_min_time="${DYNAGG_BENCH_SMOKE_HEAVY_MIN_TIME:-0.05}" \
      --benchmark_repetitions=3 \
      --benchmark_enable_random_interleaving=true \
      --benchmark_format=json > "$SMOKE_HEAVY_JSON"
    python3 - "$SMOKE_JSON" "$SMOKE_HEAVY_JSON" <<'PY'
import json, sys
a = json.load(open(sys.argv[1]))
a["benchmarks"] = (a.get("benchmarks", []) +
                   json.load(open(sys.argv[2])).get("benchmarks", []))
json.dump(a, open(sys.argv[1], "w"))
PY
    HARD_PCT="${DYNAGG_BENCH_GATE_HARD_PCT:-100}"
    echo "bench.sh --smoke: round-kernel microbenchmarks ran"
    python3 - "$SMOKE_JSON" "$GATE_PCT" "$AVAIL_LIST" "$HARD_PCT" <<'PY'
import json, math, sys

raw = json.load(open(sys.argv[1]))
gate_pct = float(sys.argv[2])
available = set(open(sys.argv[3]).read().split())
hard_pct = float(sys.argv[4])

# Best-of-repetitions per benchmark, real ns.
best = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "iteration":
        name = b.get("run_name", b["name"])
        t = b["real_time"]
        if name not in best or t < best[name]:
            best[name] = t

try:
    snapshot = json.load(open("BENCH_roundkernel.json"))
except FileNotFoundError:
    print("bench.sh --smoke: no BENCH_roundkernel.json; skipping perf gate "
          "(run tools/bench.sh to create the snapshot)")
    sys.exit(0)
round_ns = snapshot.get("round_ns", {})
if not round_ns:
    sys.exit("bench.sh --smoke: BENCH_roundkernel.json has no round_ns "
             "table (corrupt snapshot; regenerate with tools/bench.sh)")

# Every snapshot key is gated. A key the local build cannot produce (renamed
# benchmark, stale snapshot) is warned about and skipped — visible in the CI
# log, never a silent drop; a full tools/bench.sh run resyncs.
#
# Two-level gate. The shared VM's memory bandwidth drifts by tens of
# percent minute to minute, so a single memory-bound 1M-host key can read
# +85% against a snapshot minted in a faster window on unchanged code —
# and across 22 keys, a per-key 35% gate fails some key on almost every
# clean run. Per key, only a >= hard_pct (default 100%, i.e. 2x) blowup
# fails — that still catches a catastrophic single-key regression (a
# broken parallel scatter, an accidental O(n^2)). The tighter gate_pct
# threshold applies to the geometric mean of measured/snapshot across all
# gated keys: uncorrelated bandwidth swings cancel there, while a genuine
# broad regression moves every key and the mean with it. Per-key drifts
# past gate_pct still print as [slow] for the log reader.
failures = []
ratios = {}
for key in sorted(round_ns):
    baseline = round_ns[key]
    if key not in available:
        print(f"bench.sh --smoke: WARNING: snapshot key {key} is no longer "
              "produced by micro_protocol_ops — skipping its gate (stale "
              "entry; resync with tools/bench.sh)")
        continue
    measured = best.get(key)
    if measured is None:
        print(f"bench.sh --smoke: WARNING: benchmark {key} is registered "
              "but produced no measurement — skipping its gate")
        continue
    ratio = measured / baseline
    if ratio > 1 + hard_pct / 100:
        flag = " [FAIL]"
        failures.append(key)
    elif ratio > 1 + gate_pct / 100:
        flag = " [slow]"
    else:
        flag = ""
    print(f"bench.sh --smoke: {key} {measured:.0f} ns vs snapshot "
          f"{baseline:.0f} ns ({100 * (ratio - 1):+.1f}%){flag}")
    ratios[key] = ratio
for k in sorted(available - set(round_ns)):
    print(f"bench.sh --smoke: note: benchmark {k} is not in "
          "BENCH_roundkernel.json (resync with tools/bench.sh to track it)")

if failures:
    sys.exit(f"bench.sh --smoke: round-kernel regression gate failed for "
             f"{len(failures)}/{len(ratios)} keys ({', '.join(failures)}): "
             f"more than {hard_pct:.0f}% slower than the checked-in "
             "snapshot. If the slowdown is intentional, regenerate "
             "BENCH_roundkernel.json with tools/bench.sh")
if ratios:
    geomean = math.exp(sum(map(math.log, ratios.values())) / len(ratios))
    if geomean > 1 + gate_pct / 100:
        sys.exit(f"bench.sh --smoke: round-kernel regression gate failed: "
                 f"geometric-mean slowdown across {len(ratios)} keys is "
                 f"{100 * (geomean - 1):+.1f}% vs the checked-in snapshot "
                 f"(gate {gate_pct:.0f}%). If the slowdown is intentional, "
                 "regenerate BENCH_roundkernel.json with tools/bench.sh")
    print(f"bench.sh --smoke: perf gate passed for all {len(ratios)} "
          f"snapshot keys (geometric-mean ratio "
          f"{100 * (geomean - 1):+.1f}%, per-key ceiling {hard_pct:.0f}%)")
PY
  else
    echo "bench.sh --smoke: micro_protocol_ops not built (Google Benchmark absent); skipping perf gate"
  fi
  "$RUNNER" --dry-run bench/scenarios/scale_100k.scenario
  "$RUNNER" --dry-run bench/scenarios/scale_1m.scenario
  "$RUNNER" --dry-run bench/scenarios/scale_10m.scenario
  exit 0
fi

if [[ ! -x "$MICRO" ]]; then
  echo "bench.sh: $MICRO not built (system Google Benchmark required for the full run)" >&2
  exit 1
fi

# Best-of-N randomly-interleaved repetitions, matching the --smoke gate's
# statistic: the CI VM's throughput swings by tens of percent under
# neighbor load in multi-second windows. Many short repetitions give each
# benchmark several shots at a quiet window, interleaving decorrelates the
# slow windows from any one benchmark, and a genuine code change slows the
# fastest repetition too — so the minimum is the noise-robust number to
# check in. The microsecond-scale kernel family is measured in its own
# invocation, separated from the second-scale 1M-host stream/async
# benchmarks: interleaving a 600 MB stream round between kernel
# repetitions evicts every cache level and skews whichever kernel key
# runs next (measured at up to +15% on supposedly identical code paths).
MICRO_JSON="$BUILD_DIR/bench_roundkernel_raw.json"
MICRO_HEAVY_JSON="$BUILD_DIR/bench_roundkernel_heavy_raw.json"
"$MICRO" \
  --benchmark_filter='PushRoundLegacy|PushRoundKernel|PushPullRoundLegacy|PushPullRoundKernel|ChurnedPushRound' \
  --benchmark_min_time="${DYNAGG_BENCH_MIN_TIME:-0.25}" \
  --benchmark_repetitions="${DYNAGG_BENCH_REPS:-9}" \
  --benchmark_enable_random_interleaving=true \
  --benchmark_format=json > "$MICRO_JSON"
"$MICRO" --benchmark_filter='StreamCountMinRound|AsyncDriverStep' \
  --benchmark_min_time="${DYNAGG_BENCH_MIN_TIME:-0.25}" \
  --benchmark_repetitions=3 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_format=json > "$MICRO_HEAVY_JSON"

# Host CPU budget as the runner sees it: hardware_concurrency alone lies on
# cgroup-limited CI runners, so the snapshot records both the hardware
# count and the affinity-visible count (dynagg_run's default --threads).
HOSTINFO=$("$RUNNER" --hostinfo)
HW_CPUS=$(sed -n 's/^hardware_concurrency=//p' <<<"$HOSTINFO")
AFF_CPUS=$(sed -n 's/^affinity_cpus=//p' <<<"$HOSTINFO")

SCALE_OUT="$BUILD_DIR/scale_100k_out.csv"
SCALE_TEL_CSV="$BUILD_DIR/scale_100k_telemetry.csv"

# Best-of-2 end-to-end timings: the 100k scenario finishes in well under a
# second, so a single sample is mostly scheduler noise — and the telemetry
# overhead number below is a difference of two such samples.
S1=$(time_scenario_run bench/scenarios/scale_100k.scenario "$SCALE_OUT")
S2=$(time_scenario_run bench/scenarios/scale_100k.scenario "$SCALE_OUT")
SCALE_SECONDS=$(python3 -c "print(min($S1, $S2))")

# Same scenario with the telemetry summary collected: the end-to-end delta
# against the plain runs above is the checked-in telemetry overhead number,
# and the one-row phase table becomes the snapshot's breakdown.
T1=$(time_scenario_run bench/scenarios/scale_100k.scenario \
  "$BUILD_DIR/scale_100k_out_tel.csv" \
  --telemetry=summary --telemetry-out="$SCALE_TEL_CSV")
T2=$(time_scenario_run bench/scenarios/scale_100k.scenario \
  "$BUILD_DIR/scale_100k_out_tel.csv" \
  --telemetry=summary --telemetry-out="$SCALE_TEL_CSV")
TEL_SECONDS=$(python3 -c "print(min($T1, $T2))")
if ! cmp -s "$SCALE_OUT" "$BUILD_DIR/scale_100k_out_tel.csv"; then
  echo "bench.sh: scale_100k output differs with telemetry on (determinism bug)" >&2
  exit 1
fi

# Million-host rung, timed end-to-end (best-of-2; ~40 MB of swarm state,
# about a second per run on the CI host).
M1=$(time_scenario_run bench/scenarios/scale_1m.scenario \
  "$BUILD_DIR/scale_1m_out.csv")
M2=$(time_scenario_run bench/scenarios/scale_1m.scenario \
  "$BUILD_DIR/scale_1m_out.csv")
SCALE_1M_SECONDS=$(python3 -c "print(min($M1, $M2))")

python3 - "$MICRO_JSON" "$SCALE_SECONDS" "$TEL_SECONDS" "$SCALE_TEL_CSV" \
  "$SCALE_1M_SECONDS" "$HW_CPUS" "$AFF_CPUS" "$MICRO_HEAVY_JSON" <<'PY'
import json, sys, datetime

raw = json.load(open(sys.argv[1]))
raw["benchmarks"] = (raw.get("benchmarks", []) +
                     json.load(open(sys.argv[8])).get("benchmarks", []))
scale_seconds = float(sys.argv[2])
telemetry_seconds = float(sys.argv[3])
scale_1m_seconds = float(sys.argv[5])
hw_cpus = int(sys.argv[6])
affinity_cpus = int(sys.argv[7])

# Phase breakdown of the scenario's single point from the telemetry
# summary CSV (comment lines start with '#').
phase_cols = ("trial_ms", "setup_ms", "plan_ms", "apply_ms", "scatter_ms",
              "record_ms", "span_cover_pct")
with open(sys.argv[4]) as f:
    rows = [ln.strip() for ln in f if ln.strip() and not ln.startswith("#")]
if len(rows) != 2:
    sys.exit(f"bench.sh: expected one scale_100k telemetry row, got "
             f"{len(rows) - 1}")
vals = dict(zip(rows[0].split(","), rows[1].split(",")))
phase_ms = {c: round(float(vals[c]), 3) for c in phase_cols if c in vals}

# best-of-repetitions real time per benchmark, in nanoseconds
best = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "iteration":
        name = b["run_name"] if "run_name" in b else b["name"]
        t = b["real_time"]
        if name not in best or t < best[name]:
            best[name] = t

def ns(name):
    return best.get(name)

# Carry the previous snapshot forward as a trajectory: each full bench.sh
# run appends the headline numbers of the snapshot it replaces.
prev = {}
try:
    with open("BENCH_roundkernel.json") as f:
        prev = json.load(f)
except (FileNotFoundError, json.JSONDecodeError):
    pass
history = prev.get("history", [])
if prev:
    history.append({
        "generated": prev.get("generated"),
        "gate_round_ns": prev.get("round_ns", {}).get(
            "BM_PushRoundKernel/10000"),
        "push_100k_speedup": prev.get("speedup", {}).get("push_100k"),
        "scale_100k_scenario_seconds": prev.get(
            "scale_100k_scenario_seconds"),
    })
history = history[-20:]

snapshot = {
    "note": ("Round-kernel perf snapshot (tools/bench.sh). 'legacy' is the "
             "pre-refactor per-host virtual SamplePeer round, replicated in "
             "bench/micro_protocol_ops.cc; 'kernel' is the Environment API "
             "v2 plan -> apply round. Times are best-of-7 real ns per "
             "round on the CI host (the minimum over randomly "
             "interleaved repetitions — the noise-robust statistic on a "
             "loaded VM, same as the --smoke gate), across the "
             "10k/100k/1M size "
             "trajectory; speedups are legacy/kernel. cpus records both "
             "the hardware thread count and the affinity-visible count "
             "(dynagg_run's default --threads — on a cgroup-limited host "
             "they differ, and hardware_concurrency alone lies). Rounds "
             "run on one thread. scale_100k_phase_ms is the per-trial "
             "telemetry phase breakdown; telemetry_overhead_pct is "
             "the end-to-end scale_100k cost of telemetry=summary vs off; "
             "scale_1m_scenario_seconds times the million-host rung "
             "end-to-end (scale_10m_scenario_seconds via tools/bench.sh "
             "--scale10m, on demand); churn_100k is a 100k-host push-sum "
             "round with a churn-plan round applied first (~1%/round "
             "deaths + arrivals, on_join resets, partner-plan cache "
             "invalidation included); stream_* is the count-min sketch "
             "gossip round (keyed Zipf arrivals + merge, src/stream/); "
             "async_* is the async gossip step (push-flow tick + "
             "network-model decisions + batched in-flight deliveries, "
             "src/net/); history holds headline numbers of superseded "
             "snapshots, oldest first."),
    "generated": datetime.date.today().isoformat(),
    "host": raw.get("context", {}).get("host_name", "unknown"),
    "cpus": {"hardware_concurrency": hw_cpus,
             "affinity_visible": affinity_cpus},
    "round_ns": {k: v for k, v in sorted(best.items())},
    "speedup": {},
    "scale_100k_scenario_seconds": scale_seconds,
    "scale_1m_scenario_seconds": scale_1m_seconds,
    "scale_100k_phase_ms": phase_ms,
    "telemetry_overhead_pct": round(
        100.0 * (telemetry_seconds - scale_seconds) / scale_seconds, 2),
    "history": history,
}
if "scale_10m_scenario_seconds" in prev:
    snapshot["scale_10m_scenario_seconds"] = prev[
        "scale_10m_scenario_seconds"]

pairs = {
    "push_10k": ("BM_PushRoundLegacy/10000", "BM_PushRoundKernel/10000"),
    "push_100k": ("BM_PushRoundLegacy/100000", "BM_PushRoundKernel/100000"),
    "push_1m": ("BM_PushRoundLegacy/1000000", "BM_PushRoundKernel/1000000"),
    "pushpull_100k": ("BM_PushPullRoundLegacy/100000",
                      "BM_PushPullRoundKernel/100000"),
    "pushpull_1m": ("BM_PushPullRoundLegacy/1000000",
                    "BM_PushPullRoundKernel/1000000"),
}
for key, (legacy, kernel) in pairs.items():
    if ns(legacy) and ns(kernel):
        snapshot["speedup"][key] = round(ns(legacy) / ns(kernel), 3)

# Headline numbers for the streaming-sketch and async-network subsystems
# at the 100k and 1M rungs, best-of-reps real ns per round/step.
for key, name in (("churn_100k", "BM_ChurnedPushRound/100000"),
                  ("stream_100k", "BM_StreamCountMinRound/100000"),
                  ("stream_1m", "BM_StreamCountMinRound/1000000"),
                  ("async_100k", "BM_AsyncDriverStep/100000"),
                  ("async_1m", "BM_AsyncDriverStep/1000000")):
    if ns(name):
        snapshot[key] = round(ns(name), 1)

with open("BENCH_roundkernel.json", "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=False)
    f.write("\n")

print(json.dumps(snapshot["speedup"], indent=2))
target = snapshot["speedup"].get("push_100k")
if target is None:
    sys.exit("bench.sh: missing push_100k benchmarks in output")

print(f"bench.sh: wrote BENCH_roundkernel.json "
      f"(100k push-sum round speedup {target}x, "
      f"scale_100k scenario {scale_seconds}s, "
      f"scale_1m scenario {scale_1m_seconds}s, "
      f"telemetry overhead {snapshot['telemetry_overhead_pct']:+.2f}%)")
PY
