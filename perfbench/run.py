#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the repository root. The first form runs one workload in its
own process; its last line of output is the JSON result. `all` runs the
three workloads untraced, one process each, and prints every end-to-end
metric with its unit and sample count. The build goes to
`$CARGO_TARGET_DIR` (default `.bench_build`).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["refine-sparse", "fleet-dense", "ingest-ooc"]


def flag(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    if flag(args, "--workload", None) != "all":
        return subprocess.run([exe] + args, env=env).returncode
    seed = flag(args, "--seed", "1")
    seconds = flag(args, "--seconds", "25")
    status = 0
    for w in WORKLOADS:
        cmd = [exe, "--workload", w, "--seed", seed, "--seconds", seconds, "--trace", "0"]
        status = max(status, subprocess.run(cmd, env=env).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
