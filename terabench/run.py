#!/usr/bin/env python3
"""Builds terabench from the repository's sources and runs it.

    python3 terabench/run.py --workload web --seed 1 --seconds 10 --trace 0
    python3 terabench/run.py --workload web --seed 1 --seconds 10 --trace 1
    python3 terabench/run.py --workload web --seed 1 --seconds 1 --trace 0 --smoke
    python3 terabench/run.py --parity
    python3 terabench/run.py --self-test
    python3 terabench/run.py --compare BASE.jsonl NEW.jsonl

Run from the repository root. The build goes to $CARGO_TARGET_DIR/terabench
(default .bench_build/terabench). A run prints readable lines and, as its
last line, the JSON result; --record FILE appends each run's result with its
workload, seed and input identity to FILE, which --compare reads. A traced
run writes its spans as Chrome trace JSON under the build directory.
Workloads: web, rhg-dense, web-strong-serve.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
# A run ends within 180 s; leave room for process start and exit.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"terabench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quietly(command):
    """Runs a build step with its output on stderr; fails on a nonzero exit."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if result.returncode != 0:
        fail(f"build step failed ({result.returncode}): {' '.join(map(str, command))}")


def build(target):
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_root.resolve() / "terabench"
    # Configuring every time is cheap once cached, and recovers from a
    # configure that failed half-way.
    generator = []
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        generator = ["-G", "Ninja"]
    run_quietly(["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release", *generator])
    run_quietly(["cmake", "--build", str(build_dir), "--target", target,
                 "--parallel", "4"])
    return build_dir


def execute(command, timeout=None, cwd=None):
    """Runs the benchmark binary with inherited output and waits for it."""
    with subprocess.Popen(command, cwd=cwd) as process:
        try:
            return process.wait(timeout=timeout)
        except BaseException:
            process.kill()
            process.wait()
            raise


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="the small size of the workload, which finishes in seconds")
    parser.add_argument("--record", help="append the run's result to this JSON-lines file")
    parser.add_argument("--parity", action="store_true",
                        help="check the traced composition against the public API at p=1")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two --record files against BENCHMARK.json's bounds")
    args = parser.parse_args()

    if args.self_test:
        build_dir = build("terabench_tests")
        # The tests write their scratch files into the working directory.
        sys.exit(execute([str(build_dir / "terabench_tests")], cwd=build_dir))

    build_dir = build("terabench")
    binary = str(build_dir / "terabench")
    if args.compare:
        sys.exit(execute([binary, "compare", "--bounds", str(BENCHMARK_JSON), *args.compare]))
    if args.parity:
        sys.exit(execute([binary, "parity", "--seed", str(args.seed)]))

    if args.workload is None or args.seconds is None or args.trace is None:
        parser.error("a run needs --workload, --seconds and --trace")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.record:
        command += ["--record", args.record]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        code = execute(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
