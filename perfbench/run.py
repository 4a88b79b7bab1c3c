"""Builds streamq and the benchmark binary from source, runs one workload,
and prints the result as one JSON line (the last line of stdout).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build tree is $CARGO_TARGET_DIR
(default .bench_build) under the current directory; the traced run's Chrome
trace goes to <build tree>/perfbench-out/. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import trace_check  # noqa: E402

# A hung run is stopped before it reaches three minutes.
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds streamq_perfbench; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(2, "no %s under %s: run from a full checkout" % (needed, ROOT))
    tree = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree])
    steps.append(["cmake", "--build", tree, "--target", "streamq_perfbench", "-j4"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(3, "build step failed: " + " ".join(step))
    return os.path.join(tree, "streamq_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        out_dir = os.path.join(build_dir, "perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        trace_file = os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed))
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, "streamq_perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail(proc.returncode, "streamq_perfbench exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(5, "streamq_perfbench printed no result")
    result = json.loads(lines[-1])
    if trace_file is not None:
        with open(trace_file) as f:
            problems = trace_check.check_trace(json.load(f))
        for problem in problems[:10]:
            print("trace: " + problem, file=sys.stderr)
        if problems:
            result["correct"] = False
        else:
            print("trace: %s nests properly" % trace_file, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
