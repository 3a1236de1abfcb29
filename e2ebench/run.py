#!/usr/bin/env python3
"""End-to-end analysis-job benchmark entry point.

Run from the repository root:

    python3 e2ebench/run.py --workload cold_apps --seed 1 --seconds 15 --trace 0

Builds the release `scalana` binary (the daemon under test) and the
benchmark driver in `e2ebench/` (a cargo package of its own), both into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the driver, which
prints the metrics; its last line of output is one JSON object. Build
output goes to standard error. Exits non-zero, without a result, when
either build fails or the driver does.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver's own bound on one run; it stops its daemon on every path,
# this only guards against a hang.
RUN_TIMEOUT_S = 175


def cargo_build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
        return False
    return True


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("run.py: no Cargo.toml at the repository root; nothing to benchmark", file=sys.stderr)
        return 2
    if not cargo_build(["--bin", "scalana"], env):
        return 2
    if not cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env):
        return 2

    cmd = [
        os.path.join(target, "release", "e2ebench"),
        "--scalana",
        os.path.join(target, "release", "scalana"),
    ] + sys.argv[1:]
    # A session of its own, so a hung or interrupted run can be stopped
    # with everything it started (the driver and its daemon).
    child = subprocess.Popen(cmd, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
