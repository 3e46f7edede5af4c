#!/usr/bin/env python3
"""Build and run xmlrel's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <lookups|mixed_rw|all> \
        --seed <n> --seconds <n> --trace <0|1>

Run from the root of a checkout. The benchmark package is built from
source (`cargo build --release --offline`) into `$CARGO_TARGET_DIR`, which
defaults to `.bench_build`. The last line of standard output is the JSON
result of the (last) workload. The benchmark's standard error, which
includes the servers' access log, goes to `.bench_out/<workload>-<seed>.log`
and its tail is repeated here when a run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lookups", "mixed_rw"]
# A run takes its window plus set-ups, warm-up, output checks and the
# self-test.
SLACK_S = 140


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    # The benchmark links the repository's crates by path; without them
    # there is nothing to measure.
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the repository's crates are missing next to perfbench/")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if subprocess.run(cmd, cwd=ROOT, env=env).returncode != 0:
        fail("build failed")
    binary = os.path.join(target_dir, "release", "xmlrel-perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def run_one(binary, workload, args):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, f"{workload}-{args.seed}.log")
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    timeout = args.seconds + SLACK_S
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=log, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"{workload} did not finish within {timeout} s")
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-20:]))
        fail(f"{workload} exited with code {proc.returncode}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    binary = build(os.path.abspath(os.path.join(ROOT, target_dir)))
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run_one(binary, workload, args)


if __name__ == "__main__":
    main()
