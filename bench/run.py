"""Run one benchmark workload against the compvar sources of this checkout.

    python3 bench/run.py --workload point-sparse --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each op is one in-process call of
``compvar.cli.main([... , "--json"])`` on input files generated from the
seed, timed from the call to its return, and its report is checked against
the references in refs.py.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

# Every run holds at least this many ops, so p90 has ten samples beyond it.
MIN_OPS = 100
# How often set-up is repeated; setup_s is the median.
SETUP_REPEATS = 7
# Seconds one round takes on the seed program (2-core sandbox, Python
# 3.11); with --seconds S a run holds max(MIN_OPS worth, S / this) rounds.
# A fixed table, not a measurement, so every run of a workload does the
# same ops whatever the machine's speed.
NOMINAL_ROUND_S = {"point-sparse": 7.3, "derived-dense": 7.2,
                   "census-fq": 5.8}


def fresh_import():
    """Import compvar from this checkout's src/ as if for the first time."""
    for name in [m for m in sys.modules if m == "compvar"
                 or m.startswith("compvar.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("compvar.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"compvar was imported from {cli.__file__}, "
                          f"not from {SRC}")
    return cli


def set_up(workload: str, seed: int, rounds: int, work: str):
    """Import compvar, build every algebra the workload uses and write the
    inputs of every round.  Returns the cli module and the op list."""
    cli = fresh_import()
    schemas = importlib.import_module("compvar.schemas")
    shutil.rmtree(work, ignore_errors=True)
    inputs = workloads.Inputs(work)
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for index in range(rounds):
        ops.extend(workloads.build_round(workload, inputs, rng, index))
    for path in sorted(inputs.alg.values()):
        schemas.parse_algebra(schemas.load_json(path))
    return cli, ops


def run_op(cli, op) -> tuple:
    """Call the CLI once; returns (seconds, exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv + ["--json"])
        except Exception as exc:  # a crash is a failed op, not a dead run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue() or err.getvalue()


def end_to_end(times: list, setup_s: float) -> dict:
    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "op_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": metric(statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "peak_rss_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": metric(setup_s, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "compvar", "cli.py")):
        print(f"error: no compvar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    rounds = max(math.ceil(MIN_OPS / workloads.round_size(args.workload)),
                 round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    work = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cli, ops = set_up(args.workload, args.seed, rounds, work)
            setups.append(time.perf_counter() - start)
        tracer = None
        if args.trace:
            import trace_layers
            tracer = trace_layers.Tracer()
            tracer.install()
        times, failures, wrong = [], [], []
        try:
            for index, op in enumerate(ops):
                if tracer:
                    tracer.begin_op(index)
                elapsed, code, text = run_op(cli, op)
                times.append(elapsed)
                if code != 0:
                    failures.append(f"{op.label}: exit {code}: "
                                    f"{text.strip()[:200]}")
                    continue
                try:
                    bad = op.check(json.loads(text))
                except (ValueError, KeyError, TypeError) as exc:
                    bad = [f"report cannot be checked: {exc!r}"]
                if bad:
                    wrong.append(f"{op.label}: {'; '.join(bad)}")
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(failures) + len(wrong)
    for line in failures + wrong:
        print(f"FAILED {line}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
              "setup_s": setups, "ops": [[op.label, t]
                                         for op, t in zip(ops, times)]}
    if tracer:
        metrics = tracer.metrics()
        tracer.write(os.path.join(OUT, f"trace-{stem}.json"), record)
    else:
        metrics = end_to_end(times, statistics.median(setups))
        with open(os.path.join(OUT, f"run-{stem}.json"), "w") as fh:
            json.dump(record, fh)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"ops: {len(ops)} attempted, {failed} failed, "
          f"{sum(times):.2f} s in ops")
    print(json.dumps({"correct": not wrong,
                      "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
