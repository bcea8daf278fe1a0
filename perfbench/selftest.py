#!/usr/bin/env python3
"""Self-test of the benchmark: a short untraced and a short traced run of
every workload in BENCHMARK.json.

Checks that each run exits 0 with ``correct`` true and ``failed`` 0, that
it prints exactly the metrics BENCHMARK.json declares (end-to-end
untraced, per-layer traced) with their units, and that ``code_words``
equals the value pinned in perfbench/pinned.json.  Run from the
repository root::

    python3 perfbench/selftest.py [--workloads kernels,server] [--seconds 2]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seconds: float, trace: int):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, json.loads(lines[-1]) if lines else None, completed.stderr


def problems_of(result, declared, pinned_words):
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append("failed %d of %d" % (result["failed"], result["attempted"]))
    if result["attempted"] < 1:
        problems.append("no operation attempted")
    printed = result["metrics"]
    if set(printed) != set(declared):
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(declared) - set(printed)), sorted(set(printed) - set(declared))))
    for name, unit in declared.items():
        metric = printed.get(name)
        if metric is not None and metric.get("unit") != unit:
            problems.append("%s printed in %r, declared %r" % (name, metric.get("unit"), unit))
        if metric is not None and not isinstance(metric.get("value"), (int, float)):
            problems.append("%s has no numeric value" % name)
    if pinned_words is not None and printed.get("code_words", {}).get("value") != pinned_words:
        problems.append("code_words %r, pinned %d" % (
            printed.get("code_words", {}).get("value"), pinned_words))
    return problems


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    with open(os.path.join(HERE, "pinned.json")) as handle:
        pinned = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    declared = {
        0: {metric["name"]: metric["unit"] for metric in benchmark["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]},
    }
    failures = 0
    for workload in args.workloads.split(","):
        for trace in (0, 1):
            code, result, stderr = run(workload, args.seconds, trace)
            if result is None:
                problems = ["no result line (exit %d): %s" % (code, stderr.strip()[-300:])]
            else:
                words = pinned["code_words"][workload] if trace == 0 else None
                problems = problems_of(result, declared[trace], words)
                if code != 0:
                    problems.append("exit status %d" % code)
            failures += bool(problems)
            print("%s %-8s trace=%d %s" % (
                "FAIL" if problems else "ok  ", workload, trace, "; ".join(problems)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
