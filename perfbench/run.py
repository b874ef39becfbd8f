#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see METHOD.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the photon library
and the perfbench binary (Release) into .bench_build/ (or $CARGO_TARGET_DIR),
later calls reuse that build. The binary's human-readable lines are echoed;
the last line of standard output is the JSON result. Exits non-zero without
a result when the checkout holds no photon source tree or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build(targets):
    """Configures once, then builds `targets`; build output goes to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    cmd = ["cmake", "--build", out, "-j", "4", "--target", *targets]
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    out = build(["perfbench"])
    work = os.path.join(out, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", os.path.relpath(work, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        spans = os.path.join(work, "spans.jsonl")
        if os.path.exists(spans):
            shutil.copyfile(spans, os.path.join(
                out, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"perfbench exited {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    spec = load_spec()
    key = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        log(f"metrics differ from BENCHMARK.json {key}: "
            f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


def self_test():
    out = build(["perfbench", "perfbench_tests"])
    subprocess.run([os.path.join(out, "perfbench_tests")], check=True)
    env = dict(os.environ, PERFBENCH_BIN=os.path.join(out, "perfbench"))
    subprocess.run([sys.executable, "-m", "unittest", "-v", "test_benchmark_json"],
                   cwd=os.path.join(HERE, "tests"), env=env, check=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no photon source tree at {ROOT}")
        return 2
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        return run(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as err:
        log(str(err))
        return 1


if __name__ == "__main__":
    sys.exit(main())
