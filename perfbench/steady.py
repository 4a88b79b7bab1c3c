"""Steadiness check: runs one workload N times, each with its own seed, and
prints each metric's median, quartiles and quartile spread (q3 - q1 as a
share of the median) beside the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--save FILE]

Run it from the root of a checkout. --seconds defaults to run_seconds.
--save appends every run's JSON line to FILE.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--save")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    units = {}
    failed_shares = set()
    incorrect = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            sys.exit("seed %d: run.py exited with %d" % (seed, proc.returncode))
        line = proc.stdout.strip().splitlines()[-1]
        if args.save:
            with open(args.save, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "result": json.loads(line)}) + "\n")
        result = json.loads(line)
        incorrect += not result["correct"]
        failed_shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d done" % seed, file=sys.stderr)

    print("%s: %d runs of %g s, %d incorrect, failed share(s) %s"
          % (args.workload, args.runs, seconds, incorrect, sorted(failed_shares)))
    print("%-36s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        print("%-36s %14.6g %14.6g %14.6g %8.4f %6s %s"
              % (name, med, q1, q3, spread, "-" if bound is None else bound, units[name]))


if __name__ == "__main__":
    main()
