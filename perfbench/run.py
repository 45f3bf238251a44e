#!/usr/bin/env python3
"""Build and run the TAGLETS end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-paper|serve-unique|serve-hot \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package in release mode (offline, into
$CARGO_TARGET_DIR, default `.bench_build`) against the library crates of
the checkout it sits in, then runs one workload with `TAGLETS_THREADS`
and `TAGLETS_SCALE` cleared, so it measures the library's defaults. The
benchmark's last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only when every
output check passed.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("train-paper", "serve-unique", "serve-hot")
BIN = "taglets-perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        print("error: the library crates are missing next to perfbench/", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.pop("TAGLETS_THREADS", None)
    env.pop("TAGLETS_SCALE", None)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env["CARGO_TARGET_DIR"] = target

    # Build from the repository root so its .cargo/config.toml applies, as
    # it does to every other build of the library.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(target, "release", BIN),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_file = f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--trace-out", os.path.join(target, "perfbench-traces", trace_file)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=175)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
