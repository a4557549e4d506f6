#!/usr/bin/env python3
"""Self-test of the benchmark, through the real command.

    python3 perfbench/selftest.py

Run it from the repository root. It checks that:

* each workload the command knows, at a tiny size, passes every output
  check, untraced and traced, and reports exactly the metrics
  `BENCHMARK.json` names;
* one injected wrong label makes each workload fail its checks and exit
  non-zero, so the checks cannot pass silently;
* in a directory holding only `BENCHMARK.json` and the benchmark's files
  the command exits non-zero without printing a result.

Exits non-zero on the first failed expectation.
"""

import json
import os
import shutil
import subprocess
import sys

from run import ROOT, WORKLOADS


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return out.returncode, result, out


def expect(ok, what, out=None):
    if not ok:
        print(f"FAIL: {what}")
        if out is not None:
            print(out.stdout[-2000:])
            print(out.stderr[-2000:])
        sys.exit(1)
    print(f"ok: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    for w in WORKLOADS:
        for trace in ("0", "1"):
            code, result, out = run(
                ["--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny"]
            )
            expect(code == 0 and result is not None, f"{w} trace {trace} runs", out)
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{w} trace {trace} prints the result object",
                out,
            )
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{w} trace {trace} passes every output check",
                out,
            )
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == names[trace], f"{w} trace {trace} reports the named metrics", out)

    for w in WORKLOADS:
        code, result, out = run(
            ["--workload", w, "--seed", "7", "--seconds", "1", "--trace", "0", "--tiny",
             "--inject-wrong-label"]
        )
        expect(
            code != 0 and result is not None and not result["correct"] and result["failed"] >= 1,
            f"{w} with one wrong label fails its checks",
            out,
        )

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path),
            os.path.join(bare, path),
            ignore=shutil.ignore_patterns("target", "__pycache__"),
        )
    code, result, out = run(
        ["--workload", WORKLOADS[0], "--seed", "7", "--seconds", "1", "--trace", "0"], cwd=bare
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None, "a bare benchmark directory fails without a result", out)
    print("selftest passed")


if __name__ == "__main__":
    main()
