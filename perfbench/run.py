#!/usr/bin/env python3
"""Run one workload of the SILC-FM repository benchmark.

    python3 perfbench/run.py --workload matrix --seed 7 --seconds 10 --trace 0

Run from the root of a checkout.  The first run configures and builds
perfbench/ (which compiles the simulator from src/) into .bench_build/,
or into $CARGO_TARGET_DIR when that is set.  Each measuring mode runs in
a fresh process, so peak RSS is per workload.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of the traced run.  Either way the workload's short oracle-checked runs
also execute, and on the default seed the model outputs are compared
with perfbench/expected.json.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 only when every check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("matrix", "stream_bw", "sampled_mcf")
DEFAULT_SEED = 7
# Later performance claims are rechecked on this seed, which was not
# used while tuning the benchmark.
HELD_OUT_SEED = 1009
# What each model output is compared against in the paper.  The model is
# not validated against hardware, so no error figure is given.
REFERENCES = {
    "silcfm_speedup_geomean":
        "paper fig7: SILC-FM +36% over the state of the art",
    "silcfm_vs_best_alternative":
        "paper fig7: +0.36 over the best alternative",
    "silcfm_nm_share": "paper fig8: SILC-FM NM share 0.76 (ideal 0.80)",
    "sim_ipc": "no published reference",
}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def info(line):
    print("# " + line, flush=True)


def build(root):
    """Configure (once) and build; return the benchmark binary."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no simulator sources at src/ in " + str(root))
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                out.flush()
                tail = log.read_text().splitlines()[-20:]
                raise RuntimeError("build failed:\n" + "\n".join(tail))
    return build_dir / "silc_perfbench"


def run_mode(binary, mode, args):
    """Run one measuring mode; return its result object (or None)."""
    cmd = [str(binary), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        info("ERROR %s timed out after %d s" % (mode, RUN_TIMEOUT_S))
        return None
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    for line in done.stderr.splitlines():
        info("%s stderr: %s" % (mode, line))
    if done.returncode != 0 or not lines:
        info("ERROR %s exited with code %d" % (mode, done.returncode))
        return None
    return json.loads(lines[-1])


def compare_model(workload, model):
    """Exact comparison with the stored default-seed model outputs."""
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    want = expected["workloads"][workload]
    errors = []
    for name, value in want.items():
        got = model.get(name)
        if got != value:
            errors.append("model output %s = %r, expected %r"
                          % (name, got, value))
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-check scale (not comparable)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build(Path.cwd())
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print("benchmark build failed: %s" % err, file=sys.stderr)
        return 2
    for key in sorted(os.environ):
        if key.startswith("SILC_"):
            info("environment %s=%s (ignored: configurations are explicit)"
                 % (key, os.environ[key]))
    info("workload %s, seed %d (default %d, held-out %d), %s s, trace %d"
         % (args.workload, args.seed, DEFAULT_SEED, HELD_OUT_SEED,
            args.seconds, args.trace))

    attempted = failed = 0
    errors = []
    metrics = {}
    for mode in ("trace" if args.trace else "measure", "check"):
        result = run_mode(binary, mode, args)
        if result is None:
            attempted += 1
            failed += 1
            errors.append(mode + " did not complete")
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        errors += result["errors"]
        metrics.update(result["metrics"])
        model = result["model"]
        for name, value in model.items():
            info("model %s = %.6f  (%s)" % (name, value,
                                            REFERENCES.get(name, "")))
        if model:
            info("model outputs are simulated statistics of an "
                 "unvalidated model, not measured on hardware")
        if model and args.seed == DEFAULT_SEED and not args.tiny:
            mismatch = compare_model(args.workload, model)
            attempted += 1
            if mismatch:
                failed += 1
                errors += mismatch
            else:
                info("model outputs match expected.json exactly")

    for err in errors:
        info("ERROR " + err)
    info("failed_frac = %d / %d = %.6f"
         % (failed, attempted, failed / attempted if attempted else 1.0))
    correct = failed == 0 and not errors and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
