#!/usr/bin/env python3
"""Run every workload untraced and traced, print every metric, check answers.

    python3 bench_e2e/report.py                 # full report, seed 1
    python3 bench_e2e/report.py --seed 7 --seconds 20
    python3 bench_e2e/report.py --selftest      # short runs + format checks

The report prints each end-to-end and per-layer metric by name with its unit,
the tracing overhead (traced against untraced goodput and p50 latency of the
same seed) and the parts-add-up checks, and exits non-zero on any wrong or
failed answer.  --selftest makes short runs and also checks the output
against BENCHMARK.json: metric names and units, the result keys, and that
each phase's sent count equals succeeded + wrong + failed.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PHASE = re.compile(r"^phase (\w+)\s+sent (\d+)\s+ok (\d+)\s+wrong (\d+)\s+failed (\d+)")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("%s trace %d: exit %d" % (workload, trace, proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def check_run(spec, kind, workload, lines, result):
    """Format checks of one run; returns a list of problems."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append("%s metrics differ: missing %s, extra %s, units %s" % (
            kind, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(n for n in want if n in got and got[n] != want[n])))
    sent = 0
    for line in lines:
        m = PHASE.match(line)
        if m:
            n, ok, wrong, failed = (int(x) for x in m.groups()[1:])
            sent += n
            if n != ok + wrong + failed:
                problems.append("phase %s: sent %d != %d+%d+%d" % (m.group(1), n, ok, wrong, failed))
    if sent != result["attempted"]:
        problems.append("attempted %d != sent %d" % (result["attempted"], sent))
    if any(line.startswith("parts check") and line.endswith("FAIL") for line in lines):
        problems.append("parts-add-up check failed")
    return ["%s %s: %s" % (workload, kind, p) for p in problems]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or (2 if args.selftest else spec["run_seconds"])

    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run(workload, args.seed, seconds, trace)
            runs[trace] = result
            print("== %s (%s, seed %d, %s s)" % (workload, kind, args.seed, seconds))
            for line in lines:
                if line.startswith(("phase", "  wrong", "error_rate", "parts check", "replay")):
                    print("   " + line)
            for name, m in result["metrics"].items():
                print("   %-28s %16.6f %s" % (name, m["value"], m["unit"]))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s %s: %d of %d answers wrong or failed" % (
                    workload, kind, result["failed"], result["attempted"]))
            if args.selftest:
                problems += check_run(spec, kind, workload, lines, result)
        plain, traced = runs[0]["metrics"], runs[1]["metrics"]
        print("   tracing overhead: goodput %+.1f%%, latency p50 %+.1f%%" % (
            100 * (traced["trace.goodput_rps"]["value"] / plain["goodput_rps"]["value"] - 1),
            100 * (traced["trace.latency_p50_ms"]["value"] / plain["latency_p50_ms"]["value"] - 1)))
    for p in problems:
        print("PROBLEM: " + p)
    print("report: %s" % ("FAIL" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
