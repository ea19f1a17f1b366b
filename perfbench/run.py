#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm-compile --seed 1 --seconds 10 --trace 0

The arguments are passed to perfbench/bench.exe (see bench.ml); this
wrapper builds it with dune, records the commit and a digest of the
measured sources, and exits with the benchmark's status.  The last line
of standard output is the JSON result.
"""

import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: run from the root of a linear_layouts checkout "
            "(dune-project and lib/ not found)\n"
        )
        return 2
    # Keep every file the build and the run write inside the checkout.
    tmp = os.path.abspath(os.path.join("_perfbench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"], stdout=sys.stderr, env=env
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    cmd = [EXE] + sys.argv[1:] + ["--commit", commit(), "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 2


if __name__ == "__main__":
    sys.exit(main())
