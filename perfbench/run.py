#!/usr/bin/env python3
"""Builds the AB-ORAM benchmark from source and runs its workloads.

    python3 perfbench/run.py --workload <sim-mcf|protocol-churn|kv-zipf|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Each workload runs single-threaded in its
own process; `all` runs the three one after another. The last line of
standard output is the workload's JSON result, and the exit code is nonzero
when the build or any correctness check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["sim-mcf", "protocol-churn", "kv-zipf"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        sys.exit("error: the repository's crates/ are missing; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("error: building the benchmark failed")
    return os.path.join(os.path.abspath(target), "release", "aboram-perfbench")


def hermetic_env():
    """The environment without the repository's ABORAM_* knobs; every
    workload setting is pinned in the benchmark's code. ABORAM_SIMD stays,
    so a SIMD A/B needs only that one variable flipped."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("ABORAM_") or k == "ABORAM_SIMD"}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=2023)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(cmd, cwd=ROOT, env=hermetic_env()).returncode
        if code != 0:
            print(f"{workload}: exit code {code}", file=sys.stderr)
            status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
