#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package (perfbench/Cargo.toml) is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then run with
the same arguments. Its last line of output is the JSON result; the exit status
is the benchmark's. The traced run (--trace 1) writes a Chrome trace to
<target dir>/perfbench-trace/<workload>.json.

The result line is checked against BENCHMARK.json: it must carry exactly the
declared end-to-end metrics (--trace 0) or per-layer metrics (--trace 1), each
with its declared unit and a numeric value.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def parse(argv):
    args = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    return args


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last output line is not JSON")
    want = declared(trace)
    got = result.get("metrics", {})
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name}: bad value or unit {m}")


def main():
    args = parse(sys.argv[1:])
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")

    trace = args["--trace"] == "1"
    cmd = [os.path.join(target, "release", "perfbench")]
    cmd += [arg for kv in args.items() for arg in kv]
    if trace:
        out = os.path.join(target, "perfbench-trace", f"{args['--workload']}.json")
        cmd += ["--trace-out", out]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = run.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    # A failed run prints no result line on standard output.
    if run.returncode != 0 or not lines:
        print("\n".join(lines[-1:]), file=sys.stderr)
        fail(f"benchmark exited with status {run.returncode}")
    check_result(lines[-1], trace)
    print(lines[-1])


if __name__ == "__main__":
    main()
