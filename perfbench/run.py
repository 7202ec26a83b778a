#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload job|synthetic|serve \
        [--seed N] [--seconds S] [--trace 0|1|all] [more perfbench flags]

The benchmark is its own Cargo package (``perfbench/Cargo.toml``) that
depends on the engine crates by path. It is built in release mode into
``$CARGO_TARGET_DIR`` (default ``.bench_build`` at the repository root),
then run with the given arguments. Without ``--trace`` the run prints the
end-to-end metrics followed by the per-layer metrics. The last line of
standard output is the JSON result; build output goes to standard error.
Traced runs write the benchmark's own spans under
``<target dir>/perfbench-spans/``.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def arg(argv, flag, default):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    args = list(argv)
    if arg(args, "--trace", "all") != "0" and "--spans-out" not in args:
        name = "spans-{}-seed{}.jsonl".format(arg(args, "--workload", "none"),
                                               arg(args, "--seed", "1"))
        args += ["--spans-out", os.path.join(target, "perfbench-spans", name)]
    binary = os.path.join(target, "release", "perfbench")
    try:
        ran = subprocess.run([binary] + args, cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark failed: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
