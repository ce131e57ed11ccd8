#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or all of them.

    python3 perfbench/run.py --workload wide-tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout. The build goes to .bench_build/ in
release profile. With --workload all, every workload runs untraced and
traced, and the tracing overhead (traced minus untraced end-to-end
numbers) is printed per workload; the last line is then one JSON object
per workload keyed by name.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["wide-tables", "small-tables"]
BUILD_DIR = ".bench_build"
RUN_TIMEOUT = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root):
    for needed in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("not the root of a checkout: %s is missing" % needed)
    os.makedirs(os.path.join(root, BUILD_DIR), exist_ok=True)
    cmd = [
        "dune", "build", "--root", ".", "--profile", "release",
        "--build-dir", os.path.join(root, BUILD_DIR, "dune"),
        "perfbench/bench.exe", "bin/ipbm.exe",
    ]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        fail("build failed with code %d" % proc.returncode)
    out = os.path.join(BUILD_DIR, "dune", "default")
    return os.path.join(out, "perfbench", "bench.exe"), os.path.join(out, "bin", "ipbm.exe")


def run_one(root, exe, ipbm, workload, seed, seconds, trace):
    """Run bench.exe once; returns (exit code, stdout lines)."""
    sock = os.path.join(BUILD_DIR, "ipbmd-%d.sock" % os.getpid())
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--ipbm", ipbm, "--sock", sock]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT))
    finally:
        for path in (sock, sock + ".replay"):
            if os.path.exists(os.path.join(root, path)):
                os.remove(os.path.join(root, path))
    return proc.returncode, out.splitlines()


def end_to_end(lines, mode):
    """Every end-to-end number a run printed on its `<mode> end-to-end:` line."""
    prefix = mode + " end-to-end: "
    return json.loads([l for l in lines if l.startswith(prefix)][-1][len(prefix):])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    root = os.getcwd()
    exe, ipbm = build(root)
    if args.workload != "all":
        code, lines = run_one(root, exe, ipbm, args.workload, args.seed, args.seconds, args.trace)
        for line in lines[:-1]:
            print(line, file=sys.stderr)
        if code == 0 and lines:
            print(lines[-1])
        elif lines:
            print(lines[-1], file=sys.stderr)
        sys.exit(code if code != 0 else (0 if lines else 2))
    results = {}
    worst = 0
    for w in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            code, lines = run_one(root, exe, ipbm, w, args.seed, args.seconds, trace)
            for line in lines[:-1]:
                print(line)
            worst = max(worst, code)
            if code != 0 or not lines:
                fail("%s (trace %d) failed with code %d" % (w, trace, code), code or 2)
            runs[trace] = (json.loads(lines[-1]), lines)
        untraced = runs[0][0]
        e2e = [end_to_end(runs[trace][1], mode) for trace, mode in ((0, "untraced"), (1, "traced"))]
        print("%s: %d ops attempted, %d failed" % (w, untraced["attempted"], untraced["failed"]))
        print("  %-26s %14s %14s %14s" % ("metric", "untraced", "traced", "overhead"))
        for name, m in e2e[0].items():
            t = e2e[1][name]["value"]
            print("  %-26s %14.4f %14.4f %+14.4f %s" % (name, m["value"], t, t - m["value"], m["unit"]))
        results[w] = {"untraced": untraced, "traced": runs[1][0]}
    print(json.dumps(results))
    sys.exit(worst)


if __name__ == "__main__":
    main()
