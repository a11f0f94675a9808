#!/usr/bin/env python3
"""Builds the round-level benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <paper|dense|day> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (`perfbench/Cargo.toml`) that
depends on the repository's crates by path. It is built in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), then run with the same
arguments. Build output goes to stderr; the last line of stdout is the
result object. Exits non-zero, printing no result, when the build or the
run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, target, "release", "fta-perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
