#!/usr/bin/env python3
"""Build spselect from source and run one benchmark workload.

    python3 perfbench/run.py --workload serve-mtx --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the shipped binaries the workloads
drive (spsel, spsel-serve, table4, table6, table7) and the perfbench
binary, in release mode, into $CARGO_TARGET_DIR (default .bench_build),
then hands the arguments to it. Build output goes to stderr; its last
stdout line is the result object. See perfbench/README.md.
"""

import os
import subprocess
import sys

BINS = ["spsel", "spsel-serve", "table4", "table6", "table7"]


def main():
    root = os.getcwd()
    bench = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), root)
    for needed in ("Cargo.toml", "crates", "baselines"):
        if not os.path.exists(os.path.join(root, needed)):
            sys.stderr.write(f"perfbench: {needed} missing; run from the repository root\n")
            return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    program = ["cargo", "build", "--release", "--offline", "-p", "spsel-serve", "-p", "spsel-bench"]
    for b in BINS:
        program += ["--bin", b]
    perfbench = ["cargo", "build", "--release", "--offline",
                 "--manifest-path", os.path.join(bench, "Cargo.toml")]
    for cmd in (program, perfbench):
        if subprocess.call(cmd, env=env, cwd=root, stdout=sys.stderr) != 0:
            sys.stderr.write(f"perfbench: build failed: {' '.join(cmd)}\n")
            return 1
    release = os.path.join(target, "release")
    exe = os.path.join(release, "perfbench")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:] + ["--bin-dir", release])


if __name__ == "__main__":
    sys.exit(main())
