#!/usr/bin/env python3
"""Attribute the simulator's host time to its layers with gprof.

    python3 scripts/layer_profile.py --workload observe_large
        [--build-dir DIR] [--root CHECKOUT]

Builds perfbench/ of CHECKOUT (default: this checkout) in BUILD_DIR
(default: a fresh temporary directory), runs one pass of the named
perfbench workload at seed SEED pinned to host CPU CPU (so the host
needs at least CPU + 1 CPUs), and sums the self time of `gprof -b -p`
by the first `hintm::<ns>::` in each symbol: tir, mem, htm, vm, sim,
and everything else as other. Standard library only.

Why the build links with -pg but compiles without it: a compiled-in -pg
calls mcount at every function entry. The simulator spends its time in
millions of calls to small functions, so an instrumented build spends
much of its pass inside mcount, which gprof charges to no layer: on a
4-vCPU x86-64 host, an instrumented observe_large pass of 5.9 s had
only 2.4 s attributed to named functions. Linking with -pg alone keeps
glibc's PC-sampling profiler: the samples land in the simulator's own
code and cover nearly the whole pass. The price is that gprof reports
no call counts.
"""

import argparse
import collections
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
LAYERS = ["tir", "mem", "htm", "vm", "sim"]
SEED = 3  # perfbench seed of the profiled pass
CPU = 2   # host CPU the pass is pinned to

# A flat-profile row: %time, cumulative s, self s, then the optional
# calls / self-per-call / total-per-call columns, then the symbol.
ROW = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+"
                 r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
NAMESPACE = re.compile(r"hintm::(\w+)::")


def layer_of(symbol):
    """The layer a symbol belongs to: the first hintm::<ns>:: in it."""
    m = NAMESPACE.search(symbol)
    return m.group(1) if m and m.group(1) in LAYERS else "other"


def parse_flat(text):
    """Sum the self seconds of a `gprof -b -p` flat profile by layer."""
    sums = collections.OrderedDict((k, 0.0) for k in LAYERS + ["other"])
    for line in text.splitlines():
        m = ROW.match(line)
        if m:
            sums[layer_of(m.group(4))] += float(m.group(3))
    return sums


def report(sums):
    total = sum(sums.values())
    lines = ["layer  self_s  share"]
    for layer, s in sums.items():
        share = 100.0 * s / total if total else 0.0
        lines.append("%-5s %7.2f %5.1f%%" % (layer, s, share))
    lines.append("total %7.2f" % total)
    return "\n".join(lines)


def build(root, bdir):
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
                        "-DCMAKE_EXE_LINKER_FLAGS=-pg"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target",
                    "perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def profile(binary, root, workload):
    """One pass of @workload on CPU; returns gprof's flat profile."""
    with tempfile.TemporaryDirectory(prefix="layer_profile_") as run_dir:
        # gmon.out lands in the working directory.
        subprocess.run(
            [binary, "--workload", workload, "--seed", str(SEED),
             "--seconds", "0", "--trace", "0",
             "--golden", os.path.join(root, "perfbench", "golden.txt"),
             "--out", run_dir],
            check=True, cwd=run_dir, stdout=sys.stderr,
            preexec_fn=lambda: os.sched_setaffinity(0, {CPU}))
        out = subprocess.run(
            ["gprof", "-b", "-p", binary, os.path.join(run_dir, "gmon.out")],
            check=True, capture_output=True, text=True)
    return out.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="perfbench workload to profile")
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="checkout whose perfbench/ is built")
    ap.add_argument("--build-dir",
                    help="build directory (default: a temporary one)")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    if args.build_dir:
        flat = profile(build(root, os.path.abspath(args.build_dir)), root,
                       args.workload)
    else:
        with tempfile.TemporaryDirectory(prefix="layer_build_") as bdir:
            flat = profile(build(root, bdir), root, args.workload)
    print(report(parse_flat(flat)))


if __name__ == "__main__":
    main()
