#!/usr/bin/env python3
"""Builds and runs the crowdjoin end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark package
(`perfbench/Cargo.toml`, a workspace of its own that depends on the
repository's crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), records a host fingerprint, and runs one measurement. The
last line of standard output is the result object; build output goes to
standard error. The exit code is non-zero when the build fails, an output
check fails, or the run overstays its time limit.

`--tiny` shrinks the workload and `--inject-wrong-label` flips one output
label before the checks; `perfbench/selftest.py` uses both.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("product_cross_50k", "product_amt_14k", "paper_self_40k")
# A measurement must end within 180 s; the limit excludes a first build.
RUN_LIMIT_S = 170


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the sources the benchmark builds: names and bytes."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), BENCH_DIR]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_fingerprint():
    commit = None
    if command_output(["git", "rev-parse", "--show-toplevel"]) == ROOT:
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "commit": commit,
        "source_digest": source_digest(),
    }


def kill_with_children(proc):
    """Kills a process and the reference-sample processes it started, and
    waits until all of them have ended."""
    os.kill(proc.pid, signal.SIGSTOP)
    try:
        with open(f"/proc/{proc.pid}/task/{proc.pid}/children", encoding="ascii") as f:
            children = [int(p) for p in f.read().split()]
    except OSError:
        children = []
    for pid in children:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.kill()
    proc.wait()
    deadline = time.monotonic() + 5
    while any(alive(pid) for pid in children) and time.monotonic() < deadline:
        time.sleep(0.01)


def alive(pid):
    """Whether a process still runs: it exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--inject-wrong-label", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be non-negative and --seconds positive")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # a relative path is the checkout's
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(target, "release", "crowdjoin-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", os.path.join(target, "perfbench"),
        "--host", json.dumps(host_fingerprint(), separators=(",", ":")),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_wrong_label:
        cmd.append("--inject-wrong-label")
    bench = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return bench.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        kill_with_children(bench)
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
