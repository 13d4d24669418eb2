#!/usr/bin/env python3
"""Shared parser for the perf-gate stderr footers.

Both throughput gates (perf-smoke on fig7_comparison, perf-smoke-fig8 on
fig8_bandwidth --perf) emit a one-line stderr footer per timed run:

    [parallel] N jobs in X.XXs (Y.Y jobs/sec, T threads)
    [simpar]   T ticks in X.XXs (Y.YY mticks/sec)

This script replaces the formerly-duplicated inline parsers in
.github/workflows/ci.yml: it extracts the three samples, asserts the
work count (jobs / ticks) matches the committed baseline, takes the
median, writes a *_measured.json artifact, and exits non-zero when the
median falls below baseline * (1 - regression_tolerance).

Host-class guard: committed baselines record ``host_cpus``, the core
count of the machine they were measured on.  When the current runner's
core count differs, absolute throughput is not comparable, so the gate
emits a GitHub Actions ::warning annotation and exits 0 instead of
failing — the measured artifact is still written (with
``host_cpus_mismatch: true``) for manual inspection.

Usage:
    parse_perf_footer.py --kind parallel --baseline BENCH_fig7.json \
        --footer perf_footer.txt --out BENCH_fig7_measured.json
"""

import argparse
import json
import os
import re
import statistics
import sys

KINDS = {
    "parallel": {
        "pattern": re.compile(
            r"\[parallel\] (\d+) jobs in [\d.]+s "
            r"\(([\d.]+) jobs/sec, \d+ threads\)"
        ),
        "count_key": "jobs",
        "rate_key": "jobs_per_sec",
        "rate_unit": "jobs/sec",
        "schema": "silc.bench.fig7.perf.v1",
    },
    "simpar": {
        "pattern": re.compile(
            r"\[simpar\] (\d+) ticks in [\d.]+s "
            r"\(([\d.]+) mticks/sec\)"
        ),
        "count_key": "ticks",
        "rate_key": "mticks_per_sec",
        "rate_unit": "mticks/sec",
        "schema": "silc.bench.fig8.perf.v1",
    },
}

EXPECTED_SAMPLES = 3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=sorted(KINDS), required=True)
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_*.json baseline")
    ap.add_argument("--footer", required=True,
                    help="file holding the captured stderr footers")
    ap.add_argument("--out", required=True,
                    help="path for the measured-throughput artifact")
    args = ap.parse_args()

    kind = KINDS[args.kind]
    with open(args.baseline) as f:
        base = json.load(f)

    rates = []
    with open(args.footer) as f:
        for line in f:
            m = kind["pattern"].search(line)
            if not m:
                continue
            count = int(m.group(1))
            if count != base[kind["count_key"]]:
                sys.exit(
                    f"{kind['count_key']} count {count} != baseline "
                    f"{base[kind['count_key']]} — the fixture's simulated "
                    f"behavior changed; regenerate {args.baseline} "
                    f"deliberately if intended"
                )
            rates.append(float(m.group(2)))
    if len(rates) != EXPECTED_SAMPLES:
        sys.exit(f"expected {EXPECTED_SAMPLES} footers, got {rates}")

    measured = statistics.median(rates)
    floor = base[kind["rate_key"]] * (1 - base["regression_tolerance"])
    host_cpus = os.cpu_count()
    baseline_cpus = base.get("host_cpus")
    cpus_mismatch = (baseline_cpus is not None
                     and host_cpus != baseline_cpus)

    result = {
        "schema": kind["schema"],
        "command": base["command"],
        kind["count_key"]: base[kind["count_key"]],
        kind["rate_key"]: measured,
        "samples": rates,
        "baseline_" + kind["rate_key"]: base[kind["rate_key"]],
        "floor_" + kind["rate_key"]: floor,
        "host_cpus": host_cpus,
        "baseline_host_cpus": baseline_cpus,
        "host_cpus_mismatch": cpus_mismatch,
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)

    print(f"measured {measured} {kind['rate_unit']} "
          f"(baseline {base[kind['rate_key']]}, floor {floor:.2f})")

    if cpus_mismatch:
        print(f"::warning title=perf gate skipped::runner has "
              f"{host_cpus} cores but {args.baseline} was measured on "
              f"{baseline_cpus}; absolute throughput is not comparable, "
              f"so the regression floor is not enforced "
              f"(measured {measured} {kind['rate_unit']})")
        return 0

    if measured < floor:
        sys.exit(
            f"perf regression: {measured} < {floor:.2f} "
            f"{kind['rate_unit']} ({base['regression_tolerance']:.0%} "
            f"below committed baseline)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
