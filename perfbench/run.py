#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite|corpus|serve_edit \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

It builds perfbench/main.exe and the daemon (bin/main.exe) with dune,
then runs the benchmark, whose last line of standard output is the
result. Build output goes to standard error. Any process the benchmark
leaves behind is killed and waited for before this script exits.
"""

import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 880
# On top of --seconds: the pass under way when the time is up, set-up,
# output checks, or a whole traced run.
RUN_MARGIN_S = 140
DEFAULT_SECONDS = 30


def run_timeout(argv):
    """How long the benchmark may run, from its --seconds argument."""
    try:
        seconds = int(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = DEFAULT_SECONDS
    return max(seconds, 0) + RUN_MARGIN_S


def group_members(pgid):
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def stop_group(pgid):
    """Kill every process left in the benchmark's process group and wait
    until they are gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("BASELINE.json")):
        print("run.py: no repository sources here; run it from the root of "
              "a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe",
             "./bin/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:], start_new_session=True)
    try:
        code = proc.wait(timeout=run_timeout(sys.argv[1:]))
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark did not finish in time", file=sys.stderr)
        code = 3
    finally:
        stop_group(proc.pid)
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
