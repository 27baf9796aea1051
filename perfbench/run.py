#!/usr/bin/env python3
"""Build and run the served benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/bench.exe and host.exe with
dune (inside ./_build), then runs bench.exe with the same arguments; its
last line of output is the result JSON. Exits non-zero, without a result,
when the tree to build is missing or the build or run fails.
"""

import os
import subprocess
import sys


def main():
    args = sys.argv[1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        sys.stderr.write("run.py: no dune project with lib/ at %s\n" % root)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet",
         "./perfbench/bench.exe", "./perfbench/host.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 3
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
