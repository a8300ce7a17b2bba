#!/usr/bin/env python3
"""Build macs_serve and the benchmark program from source, then run one
benchmark of macs_serve.

    python3 perfbench/run.py --workload sim-stdio --seed 1 --seconds 20 --trace 0

Run from anywhere; it works in the repository root that holds it.  The
last line of standard output is the JSON result of macs_bench (see
perfbench/README.md).  Exits non-zero, printing no result, when the
sources are missing, the build fails or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["./bin/macs_serve.exe", "./perfbench/macs_bench.exe"]
BUILD_TIMEOUT_S = 700  # with the run, under the 900 s a first build may take
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def run_group(cmd, timeout, stdout, cpus=None, env=None):
    """Run cmd in its own process group, on the given CPUs if any; kill
    the whole group afterwards, so no server it spawned outlives it."""
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True,
                            preexec_fn=pin, env=env)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        code = 124
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sim-stdio", "analyze-tcp", "replay-tcp"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    for need in ["dune-project", "bin/macs_serve.ml", "lib/serve/server.ml"]:
        if not os.path.exists(need):
            print(f"run.py: {need} is missing; run from a full source checkout",
                  file=sys.stderr)
            return 2
    # the shared dune cache lives outside the checkout: keep the build in it
    code = run_group(["dune", "build", "--root", ".", "-j", "2"] + TARGETS,
                     BUILD_TIMEOUT_S, sys.stderr,
                     env=dict(os.environ, DUNE_CACHE="disabled"))
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    # Client and server share one CPU: a closed loop keeps only one of them
    # busy at a time, and same-CPU hand-offs avoid cross-CPU wake-up
    # latency, which spread replay latency most in probes on a small VM.
    cpu = max(os.sched_getaffinity(0))
    return run_group(
        ["_build/default/perfbench/macs_bench.exe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        RUN_TIMEOUT_S, None, {cpu})


if __name__ == "__main__":
    sys.exit(main())
