#!/usr/bin/env python3
"""Compare e2ebench result records (.bench_out/*.json written by run.py).

    python3 e2ebench/compare.py BASE.json [BASE.json ...] -- NEW.json [...]

Each side may hold several runs of one workload (different seeds); the
report gives each side's median per metric and the change against the
base. Runs made on different host shapes (CPU count, affinity-visible CPUs,
build type, compiler) or of different workloads or modes are refused:
their numbers do not compare.
"""

import json
import statistics
import sys

SHAPE = ("workload", "trace", "seconds", "nproc", "affinity_cpus",
         "build_type", "compiler")


def load(paths):
    return [json.load(open(p)) for p in paths]


def main(argv):
    if "--" not in argv or argv.index("--") in (0, len(argv) - 1):
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    shapes = {tuple(r["manifest"][k] for k in SHAPE) for r in base + new}
    if len(shapes) != 1:
        print("refusing to compare runs of different shapes:", file=sys.stderr)
        for shape in sorted(shapes, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(SHAPE, shape)),
                  file=sys.stderr)
        return 2
    print(f"{'metric':34s} {'base':>14s} {'new':>14s} {'change':>9s}")
    for name, m in base[0]["metrics"].items():
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        change = f"{(n - b) / b:+.1%}" if b else "n/a"
        print(f"{name:34s} {b:>14.6g} {n:>14.6g} {change:>9s} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
