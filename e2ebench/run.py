#!/usr/bin/env python3
"""End-to-end benchmark for dynagg.

    python3 e2ebench/run.py --workload push_1m --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --mint            # re-mint e2ebench/reference.json

Run from the repository root. The first run configures and builds the
harnesses under .bench_build/ (CMake package in e2ebench/, which builds the
repository's library from src/). Workloads, their accuracy scoring and the
layer -> end-to-end predictions are defined in e2ebench/workloads.json.

--trace 0 runs the untraced harness (e2e_run): timed set-ups and
RunExperiment trials at one executor worker for --seconds seconds, and
reports the end_to_end metrics of BENCHMARK.json. --trace 1 runs the traced
harness (e2e_trace) and reports the per_layer metrics; it also writes its
spans as Chrome trace-event JSON to .bench_out/.

Stdout: a manifest line, a metric table, then one JSON line
{"correct", "attempted", "failed", "metrics"} as the last line. The full
result, with the manifest, is also written to .bench_out/ for compare.py.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
OUT = ROOT / ".bench_out"
HARNESS_TIMEOUT_S = 150
MINT_SEEDS = [9001, 9002, 9003, 9004, 9005]
MIN_TRACE_COVER_PCT = 90.0
DELIVERY_TOLERANCE = 0.01


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(target):
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail(f"building {target} failed")
    return BUILD / target


def run_harness(binary, flags):
    cmd = [str(binary)] + [f"--{k}={v}" for k, v in flags.items()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{binary.name} did not finish within {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{binary.name} exited with {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    if not lines or lines[-1].get("kind") != "end":
        fail(f"{binary.name} printed no end record")
    return lines


def spec_params(path):
    params = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            key, value = line.split("=", 1)
            params[key.strip()] = value.strip()
    return params


def trial_problems(scalars, workload, params):
    """Correctness checks on one trial's recorded values. The accuracy
    records are checked per run (run_problems): a single trial's error is
    heavy-tailed (the sketch hash geometry is drawn per trial)."""
    problems = [f"{k} is not finite" for k, v in scalars.items() if v is None]
    est = scalars.get(workload["est_error"])
    if est is None or not est > 0:
        problems.append(f"{workload['est_error']} missing or not positive")
    if "net.loss" in params:
        expected = 1.0 - float(params["net.loss"])
        rate = scalars.get("delivery_rate")
        if rate is None or abs(rate - expected) > DELIVERY_TOLERANCE:
            problems.append(f"delivery_rate {rate} not within "
                            f"{DELIVERY_TOLERANCE} of {expected}")
    return problems


def run_level(trials, workload):
    """The run's accuracy figures over its first accuracy_trials trials:
    est_error and, where recorded, the median hh_precision_16. None when
    fewer trials were scored."""
    k = workload["accuracy_trials"]
    scored = [t["scalars"] for t in trials[:k]]
    if len(scored) < k or any(s.get(workload["est_error"]) is None
                              for s in scored):
        return None
    how = statistics.median if workload["est_error_agg"] == "median" \
        else statistics.mean
    est = how([s[workload["est_error"]] for s in scored])
    precisions = [s["hh_precision_16"] for s in scored
                  if s.get("hh_precision_16") is not None]
    return est, (statistics.median(precisions) if precisions else None)


def run_problems(figures, ref):
    est, precision = figures
    problems = []
    if abs(est / ref["value"] - 1.0) > ref["tolerance"]:
        problems.append(f"est_error {est:.6g} not within "
                        f"{ref['tolerance']:.0%} of {ref['value']:.6g}")
    if "hh_precision_floor" in ref and precision < ref["hh_precision_floor"]:
        problems.append(f"median hh_precision_16 {precision} below floor "
                        f"{ref['hh_precision_floor']}")
    return problems


def git_describe():
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def manifest(args, end):
    """Everything needed to decide whether two results are comparable."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "build_type": end.get("build_type"),
        "compiler": end.get("compiler"),
        "git_describe": git_describe(),
    }


def sustained_rate(rates):
    """Alive host-rounds per wall second that nine in ten trials reached:
    the lower decile of the per-trial rates, after the first trial, which
    warms caches and the allocator. On a shared 4-CPU host the per-trial
    rates switch between a slow and a fast level, up to 1.7x apart, for
    seconds to minutes as the other tenants' load changes; every resource
    (ALU, caches, memory bandwidth) slows together. Over sets of ten 30 s
    runs the lower decile spread 4-16% of its median between runs, the
    median of the trial rates up to 31%."""
    warm = rates[1:]
    if len(warm) < 2:
        return 0.0
    return statistics.quantiles(warm, n=10, method="inclusive")[0]


def untraced(args, workload, ref, spec, params):
    lines = run_harness(build("e2e_run"), {
        "spec": spec, "seed": args.seed, "seconds": args.seconds,
        "trials": workload["accuracy_trials"]})
    trials = [l for l in lines if l["kind"] == "trial"]
    problems = []
    failed = 0
    for t in trials:
        p = ([t["error"]] if t["error"] else []) + \
            trial_problems(t["scalars"], workload, params)
        if not t["digest"]:
            p.append("no result table")
        if p:
            failed += 1
            problems += [f"trial {t['index']}: {x}" for x in p]
    figures = run_level(trials, workload)
    if figures is None:
        problems.append(f"fewer than {workload['accuracy_trials']} scored "
                        "trials")
    elif ref:
        problems += run_problems(figures, ref)
    rates = [t["host_rounds"] / t["wall_s"] for t in trials if t["wall_s"]]
    metrics = {
        "setup_s": statistics.median(t["setup_s"] for t in trials),
        "host_rounds_per_s": sustained_rate(rates),
        "peak_rss_mb": lines[-1]["peak_rss_mb"],
        "est_error": figures[0] if figures else 0.0,
    }
    extra = {"failed_frac": failed / len(trials), "trials": len(trials),
             "trial_rates": rates, "digests": [t["digest"] for t in trials]}
    return lines[-1], metrics, len(trials), failed, problems, extra


def traced(args, workload, spec, params, declared):
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"{args.workload}-seed{args.seed}.trace.json"
    lines = run_harness(build("e2e_trace"), {
        "spec": spec, "seed": args.seed, "seconds": args.seconds,
        "trace-out": trace_file})
    iterations = [l for l in lines if l["kind"] == "iteration"]
    # The untraced run of the same workload and seed, when this checkout
    # has one, ran the same trial seeds: its tables must match byte for byte.
    untraced_record = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
    untraced_digests = (load_json(untraced_record).get("digests", [])
                        if untraced_record.exists() else [])
    problems = []
    failed = 0
    for it in iterations:
        p = [it["error"]] if it["error"] else []
        if not it["faithful"]:
            p.append("replica records differ from RunExperiment's")
        if not it["tables_identical"]:
            p.append("telemetry off/summary result tables differ")
        p += trial_problems(it["scalars"], workload, params)
        if it["index"] < len(untraced_digests) and \
                it["digest"] != untraced_digests[it["index"]]:
            p.append("result table differs from the untraced run's")
        cover = it["layers"].get("obs.trace_cover_pct", 0.0)
        if cover < MIN_TRACE_COVER_PCT:
            p.append(f"trace cover {cover:.1f}% < {MIN_TRACE_COVER_PCT}%")
        if p:
            failed += 1
            problems += [f"iteration {it['index']}: {x}" for x in p]
    undeclared = {k for it in iterations for k in it["layers"]} - set(declared)
    if undeclared:
        problems.append(f"undeclared layer metrics {sorted(undeclared)}")
    # A layer the workload never exercises (the net layer under the rounds
    # driver, churn without a churn plan, ...) reads 0.
    metrics = {name: statistics.median(it["layers"].get(name, 0.0)
                                       for it in iterations)
               for name in declared}
    extra = {"failed_frac": failed / len(iterations),
             "iterations": len(iterations), "trace_file": str(trace_file)}
    return lines[-1], metrics, len(iterations), failed, problems, extra


def mint(names, workloads):
    """Re-mints reference.json from MINT_SEEDS. The reference is the median
    run-level est_error. Its tolerance is the widest of 5%, three times the
    largest run deviation seen, and five standard errors of a K-trial
    aggregate (from the per-trial spread), so unseen seeds pass. The
    precision floor is 0.8 x the lowest run-level median."""
    path = HERE / "reference.json"
    refs = load_json(path) if path.exists() else {}
    binary = build("e2e_run")
    for name in names:
        w = workloads[name]
        runs, trial_values = [], []
        for seed in MINT_SEEDS:
            lines = run_harness(binary, {
                "spec": HERE / w["spec"], "seed": seed, "seconds": 0,
                "trials": w["accuracy_trials"]})
            trials = [l for l in lines if l["kind"] == "trial"]
            runs.append(run_level(trials, w))
            trial_values += [t["scalars"][w["est_error"]] for t in trials]
        value = statistics.median(est for est, _ in runs)
        trial_cv = (statistics.pstdev(trial_values)
                    / statistics.mean(trial_values))
        ref = {
            "value": value,
            "tolerance": max(0.05,
                             3 * max(abs(est / value - 1) for est, _ in runs),
                             5 * trial_cv / w["accuracy_trials"] ** 0.5),
            "mint_seeds": MINT_SEEDS,
        }
        if runs[0][1] is not None:
            ref["hh_precision_floor"] = round(0.8 * min(p for _, p in runs), 4)
        refs[name] = ref
        print(f"{name}: {json.dumps(ref)}")
    path.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mint", action="store_true")
    args = parser.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json")
    config = load_json(HERE / "workloads.json")
    workloads = config["workloads"]
    if args.mint:
        mint([args.workload] if args.workload else list(workloads), workloads)
        return
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (have {sorted(workloads)})")
    workload = workloads[args.workload]
    refs_path = HERE / "reference.json"
    refs = load_json(refs_path) if refs_path.exists() else {}
    ref = refs.get(args.workload)
    spec = HERE / workload["spec"]
    params = spec_params(spec)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        end, values, attempted, failed, problems, extra = traced(
            args, workload, spec, params, [m["name"] for m in declared])
    else:
        end, values, attempted, failed, problems, extra = untraced(
            args, workload, ref, spec, params)
    if ref is None:
        problems.append("no minted reference (run --mint)")
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    record = {"manifest": manifest(args, end), "metrics": metrics,
              "problems": problems, **extra}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=2) + "\n")

    print(f"manifest {json.dumps(record['manifest'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {extra['failed_frac']:>16.6g} frac "
          f"({failed} of {attempted})")
    for p in problems:
        print(f"  problem: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
