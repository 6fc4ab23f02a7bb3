#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the `perfbench` package
(release, offline) into $CARGO_TARGET_DIR (default `.bench_build`), then runs
one workload in a fresh process. The last line of standard output is the
JSON result. Exits non-zero without a result when the checkout lacks the
workspace sources, the build fails, or the run does not finish in time.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# The workspace crates the benchmark links against.
SOURCES = os.path.join(ROOT, "crates", "insitu", "Cargo.toml")
RUN_TIMEOUT_S = 170


def main(argv):
    if not os.path.isfile(SOURCES):
        print(f"run.py: no workspace sources at {os.path.dirname(SOURCES)}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # a relative path is taken from the root
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    try:
        run = subprocess.run([exe] + argv, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
