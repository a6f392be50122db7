#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark and the libraries it drives
are compiled from source into $CARGO_TARGET_DIR (default .bench_build) on
first use. The last line printed is the result object; the full report,
stamped with the build fingerprint, is written to <build>/results/.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("replay-hit", "replay-miss", "serve-flash")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found beside "
                           "perfbench/")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def code_identity():
    """Git commit when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one measurement; returns (exit code, stdout lines, result)."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (workload, seed, trace))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", code_identity(), "--report", stem + ".json"]
    if trace == 1:
        cmd += ["--spans", stem + ".spans.jsonl"]
    cmd += list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def measure(args):
    binary = build()
    code, lines, result = run_binary(binary, args.workload, args.seed,
                                     args.seconds, args.trace)
    if result is None:
        log("benchmark produced no result (exit %d)" % code)
        return code or 1
    for line in lines:
        print(line)
    return code


# ------------------------------------------------------------------ self-test

def check_result(result, expected, label, problems):
    if not isinstance(result, dict):
        problems.append(label + ": no result object")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(label + ": result keys are %s" % sorted(result))
        return
    metrics = result["metrics"]
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append("%s: metric %s missing" % (label, name))
        elif m.get("unit") != unit:
            problems.append("%s: metric %s has unit %r, expected %r"
                            % (label, name, m.get("unit"), unit))
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append("%s: metric %s is not a finite number"
                            % (label, name))
    for name in metrics:
        if name not in expected:
            problems.append("%s: unexpected metric %s" % (label, name))
        if not NAME_RE.match(name):
            problems.append("%s: bad metric name %r" % (label, name))


def selftest(_args):
    """Small-scale end-to-end check of the benchmark itself."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]):
                problems.append("BENCHMARK.json: bad name/unit %r" % m)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from %s"
                        % (WORKLOADS,))

    binary = build()
    # At 0.3 of the default scale every round still has enough batches and
    # windows (at least 1,170) for a p99 with 10 samples beyond it.
    small = ["--scale", "0.3"]
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            before = len(problems)
            code, _, result = run_binary(binary, workload, 7, 2, trace, small)
            check_result(result, expected[trace], label, problems)
            if code != 0 or not (result or {}).get("correct"):
                problems.append("%s: exit %d, result %s"
                                % (label, code, result))
            log("selftest: %s %s" % (label, "ok" if len(problems) == before
                                     else "FAILED"))

    # Injected faults must be reported as failures, with a non-zero exit.
    for fault in ("flip-hit", "drop-request"):
        code, _, result = run_binary(binary, "replay-hit", 7, 1, 0,
                                     small + ["--fault", fault])
        check_result(result, expected[0], "fault " + fault, problems)
        caught = (code != 0 and result is not None
                  and result.get("correct") is False
                  and result.get("failed", 0) >= 1
                  and result["metrics"]["ok_frac"]["value"] < 1.0)
        if not caught:
            problems.append("fault %s was not reported (exit %d, result %s)"
                            % (fault, code, result))
        log("selftest: fault %s %s" % (fault, "caught" if caught else "MISSED"))

    # Without the library sources the benchmark must refuse to run.
    bare = os.path.join(build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "replay-hit", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run without src/ exited %d with output %r"
                        % (proc.returncode, proc.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)
    log("selftest: refuses to run without src/")

    for p in problems:
        log("selftest FAILED: " + p)
    if not problems:
        log("selftest passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check the benchmark itself at small scale")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest(args)
        if args.workload is None:
            ap.error("--workload is required")
        return measure(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
