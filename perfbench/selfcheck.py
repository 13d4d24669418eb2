#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload (stream_bw included) at --tiny scale with --trace 0
and --trace 1, and asserts that each run is correct and reports every
metric BENCHMARK.json names, with the unit named there.  Run it from the
root of a checkout after changing anything under perfbench/.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("matrix", "stream_bw", "sampled_mcf")


def main():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--tiny",
                   "--workload", workload, "--seconds", "0.5",
                   "--trace", str(trace)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            label = "%s --trace %d" % (workload, trace)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append("%s: exit code %d" % (label, done.returncode))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: not correct" % label)
            metrics = result["metrics"]
            for m in wanted[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" % (label, m["name"]))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s: %s has unit %r, expected %r"
                                    % (label, m["name"], got.get("unit"),
                                       m["unit"]))
            extra = set(metrics) - {m["name"] for m in wanted[trace]}
            if extra:
                problems.append("%s: unlisted metrics %s"
                                % (label, sorted(extra)))
            print("%-26s %d metrics, attempted %d, failed %d"
                  % (label, len(metrics), result["attempted"],
                     result["failed"]), flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selfcheck %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
