#!/usr/bin/env python3
"""End-to-end benchmark of the mbcr pipeline (see perfbench/README.md).

    python3 perfbench/run.py --workload study_crc_tac --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout. The first run builds the perfbench
package (the mbcr library, the `mbcr` CLI and the perfbench program) into
.bench_build/; later runs only re-check the build. Each call runs one
workload in its own process, so peak RSS and process-wide state (the obs
switch the fuzz workload arms) never leak between workloads. The last line
of stdout is the result JSON.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("study_crc_tac", "multipath_bs", "sweep_measure_l2",
             "fuzz_cases")
# One run must end within 180 s; leave room for start-up and the build
# check.
RUN_TIMEOUT_S = 170
JOBS = str(min(4, os.cpu_count() or 1))


def step(cmd):
    """Runs one build step quietly; its output goes to stderr on failure."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def build():
    if not (BUILD / "build.ninja").exists() and \
            not (BUILD / "Makefile").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", str(BUILD), "--target", "perfbench",
          "mbcr_cli", "-j", JOBS])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build()
    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--mbcr", str(BUILD / "mbcr" / "mbcr"),
           "--work", str(work)]
    if args.trace == "1":
        out = BUILD / "traces"
        out.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(out / f"{args.workload}-seed{args.seed}.trace.json")]

    # Own session, so a timeout also stops the sweep's worker processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        sys.exit(f"perfbench: program exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: program printed no result line")
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
