#!/usr/bin/env python3
"""Entry point of the benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source tree.  Builds the benchmark and the CLI
with dune, then runs the benchmark executable; its last line of stdout is
the JSON result.  Build output goes to stderr.  Exits non-zero, without a
result, when the tree cannot be built.
"""

import hashlib
import os
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
SELFTEST = "_build/default/perfbench/selftest.exe"
CLI = "_build/default/bin/dfm_resynth_cli.exe"
SOURCES = ("dune-project", "lib", "bin")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(*targets):
    if not os.path.isfile("dune-project"):
        fail("run from the root of the source tree (no dune-project here)")
    try:
        r = subprocess.run(["dune", "build"] + ["./" + t for t in targets],
                           stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune not found")
    if r.returncode != 0:
        fail("build failed")


def revision():
    """The git revision when the tree is a git checkout, else 'unknown'."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    except FileNotFoundError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the program's sources, so runs of unlabelled trees can
    still be told apart."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main(argv):
    if argv == ["--self-test"]:
        build(SELFTEST.replace("_build/default/", ""))
        sys.exit(subprocess.run([SELFTEST, "BENCHMARK.json"]).returncode)
    build(BENCH.replace("_build/default/", ""), CLI.replace("_build/default/", ""))
    cmd = [BENCH] + argv + ["--cli", CLI, "--rev", revision(), "--digest", source_digest()]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
