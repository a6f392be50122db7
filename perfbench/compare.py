#!/usr/bin/env python3
"""Compares two sets of perfbench reports (the JSON files run.py writes to
<build>/results/), metric by metric, against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py --base a1.json a2.json ... \\
                                 --change b1.json b2.json ...

Refuses (exit 3) when the reports do not share one build environment
(compiler, build type, flags, nproc), one workload and one trace mode:
numbers from different environments are not comparable. Exit 1 when a
metric's median got worse than its bound allows, else 0.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV_KEYS = ("compiler", "build_type", "flags", "nproc")


def load(paths):
    out = []
    for p in paths:
        with open(p) as fh:
            out.append(json.load(fh))
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    base, change = load(args.base), load(args.change)

    reports = base + change
    envs = {tuple(r["fingerprint"][k] for k in ENV_KEYS) for r in reports}
    kinds = {(r["workload"], r["trace"]) for r in reports}
    if len(envs) != 1 or len(kinds) != 1:
        print("refused: reports differ in build environment %s or in "
              "workload/trace %s" % (sorted(envs), sorted(kinds)))
        return 3

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"] if base[0]["trace"] == 0 else spec["per_layer"]
    worse = 0
    print("%-32s %14s %8s %14s %8s %8s  %s" % (
        "metric", "base median", "spread", "change median", "spread",
        "delta", "verdict"))
    for m in metrics:
        name = m["name"]
        b_med, b_spr = spread([r["metrics"][name]["value"] for r in base])
        c_med, c_spr = spread([r["metrics"][name]["value"] for r in change])
        delta = (c_med - b_med) / abs(b_med) if b_med else 0.0
        loss = delta if m["better"] == "lower" else -delta
        verdict = ""
        if "bound" in m:
            if loss > m["bound"]:
                verdict = "WORSE than bound %.3g" % m["bound"]
                worse += 1
            elif max(b_spr, c_spr) > m["bound"]:
                verdict = "unresolved (spread > bound)"
            else:
                verdict = "within bound"
        print("%-32s %14.6g %8.4f %14.6g %8.4f %+8.4f  %s" % (
            name, b_med, b_spr, c_med, c_spr, delta, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
