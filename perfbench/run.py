#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload spin64|paper8|observe_large \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke            # tiny pass + unit tests
    python3 perfbench/run.py --record-golden    # rewrite golden.txt

Run from the repository root. The simulator is compiled from source
(Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; build output goes to stderr so the last stdout
line stays the benchmark's JSON result. Standard library only.
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["spin64", "paper8", "observe_large"]
GOLDEN = os.path.join(HERE, "golden.txt")
GOLDEN_SEEDS = range(0, 33)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    bdir = build_dir()
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target"]
                   + targets, check=True, stdout=sys.stderr, env=env)
    return bdir


def driver_cmd(bdir, workload, seed, seconds, trace, extra=()):
    return [os.path.join(bdir, "perfbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--golden", GOLDEN,
            "--out", os.path.join(bdir, "out")] + list(extra)


def smoke(bdir):
    """Tiny pass of every workload in both modes: every metric named in
    BENCHMARK.json appears with its unit, and nothing fails."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    subprocess.run([os.path.join(bdir, "perfbench_test")], check=True,
                   stdout=sys.stderr)
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                driver_cmd(bdir, w["name"], 1, 1, trace, ["--tiny"]),
                check=True, capture_output=True, text=True, timeout=170)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                sys.exit("smoke: %s trace %d: metrics %s != %s"
                         % (w["name"], trace, sorted(got), sorted(want)))
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                sys.exit("smoke: %s trace %d failed: %s"
                         % (w["name"], trace, out.stdout))
            print("smoke: %s trace %d ok (%d simulations)"
                  % (w["name"], trace, res["attempted"]))
    print("smoke ok")


def record_golden(bdir):
    cases = [(w, s, []) for w in WORKLOADS for s in GOLDEN_SEEDS]
    cases += [(w, 1, ["--tiny"]) for w in WORKLOADS]

    def one(case):
        w, s, extra = case
        cmd = driver_cmd(bdir, w, s, 0, 0, ["--record"] + extra)
        return subprocess.run(cmd, check=True, capture_output=True,
                              text=True).stdout

    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        lines = "".join(pool.map(one, cases))
    with open(GOLDEN, "w") as f:
        f.write("# Outcome digests (perfbench/measure.hh encodeOutcome) of "
                "every simulation at\n# seed 1 and of every pass at seeds "
                "0-32. Rewrite with run.py --record-golden\n# only when "
                "a change is meant to alter simulated results.\n")
        f.write(lines)
    print("wrote %s (%d lines)" % (GOLDEN, lines.count("\n")))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()

    if args.smoke:
        smoke(build(["perfbench", "perfbench_test"]))
        return 0
    if args.record_golden:
        record_golden(build(["perfbench"]))
        return 0
    if not args.workload:
        ap.error("--workload is required")
    bdir = build(["perfbench"])
    cmd = driver_cmd(bdir, args.workload, args.seed, args.seconds,
                     args.trace)
    return subprocess.run(cmd, timeout=args.seconds + 150).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
