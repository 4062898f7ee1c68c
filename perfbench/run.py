#!/usr/bin/env python3
"""Build and run the geomcast end-to-end benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload steady_qos1 --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the repository's src/ plus
the benchmark driver) into .bench_build/perfbench; later calls rebuild
incrementally. The driver's result is the last line of stdout: one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is non-zero when the build fails or an output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "geomcast_perf")
RUN_TIMEOUT_S = 170


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once, then build incrementally; compiler output to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(usable_cpus())],
                   stdout=sys.stderr, check=True)


def source_provenance():
    """Git revision when the tree is a git checkout, and a digest of the
    sources the benchmark compiled, so a result names the code it measured."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):  # never look above the tree
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_rev": rev, "source_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3

    print(json.dumps({"provenance_source": source_provenance()}), flush=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(command, stdout=sys.stdout, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
