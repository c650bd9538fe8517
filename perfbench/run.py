#!/usr/bin/env python3
"""Builds the benchmark from source and runs it confined to one CPU.

Usage (from the repository root):

    python3 perfbench/run.py --workload <query|stream-refit|closed-loop> \
        --seed <n> --seconds <s> --trace <0|1>

The Rust program lives in perfbench/ as a package of its own. It is
built with `cargo build --release --offline` into $CARGO_TARGET_DIR
(default: .bench_build), then run under `taskset -c <cpu>` on the
highest-numbered CPU this process may use. The program's standard
output is passed through; its last line is the JSON result. The exit
code is the program's, or non-zero when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(target_dir):
    """Builds the release binary; cargo's output goes to stderr."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def main(argv):
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target_dir, "release", "etm-perfbench")
    cpu = max(os.sched_getaffinity(0))
    # One malloc arena: on one CPU more arenas buy nothing, and the
    # per-thread arenas of the simulator's threads make peak memory vary
    # from run to run.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    proc = subprocess.Popen(
        ["taskset", "-c", str(cpu), binary] + argv,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
