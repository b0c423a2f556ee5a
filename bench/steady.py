"""Run workloads several times and report how steady each metric is.

    python3 bench/steady.py --runs 10                 # every workload
    python3 bench/steady.py --workload census-fq --runs 5 --first-seed 11

Runs ``bench/run.py`` once per seed (first-seed, first-seed + 1, ...), one
run at a time, with the run length from BENCHMARK.json.  For each
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  A spread above a third of its bound is marked ``WIDE``
(set-up time excepted: its bound applies to medians only).  It also checks
that every run failed the same share of its ops.  A summary goes to
``bench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")


def one_run(config: dict, workload: str, seed: int) -> dict:
    cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(config["run_seconds"]),
                               "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(config: dict, workload: str, results: list) -> dict:
    summary = {"workload": workload, "runs": len(results),
               "failed_share": sorted({r["failed"] / r["attempted"]
                                       for r in results}),
               "correct": all(r["correct"] for r in results), "metrics": {}}
    for spec in config["end_to_end"]:
        name = spec["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary["metrics"][name] = {
            "values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": spec["bound"],
            "unit": spec["unit"]}
    return summary


def report(summary: dict) -> None:
    print(f"{summary['workload']}: {summary['runs']} runs, correct="
          f"{summary['correct']}, failed share {summary['failed_share']}")
    for name, m in summary["metrics"].items():
        flag = ""
        if name != "setup_s" and m["spread"] > m["bound"] / 3:
            flag = "  WIDE"
        print(f"  {name:14s} median {m['median']:10.4f} {m['unit']:4s} "
              f"q1 {m['q1']:10.4f} q3 {m['q3']:10.4f} "
              f"spread {m['spread']:6.3f} bound {m['bound']:.2f}{flag}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    os.makedirs(OUT, exist_ok=True)
    for workload in args.workload or names:
        results = []
        for k in range(args.runs):
            results.append(one_run(config, workload, args.first_seed + k))
            print(f"  {workload} seed {args.first_seed + k} done",
                  file=sys.stderr, flush=True)
        summary = summarize(config, workload, results)
        report(summary)
        with open(os.path.join(OUT, f"steady-{workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
