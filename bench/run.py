"""The risload benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload ica-ideal --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The command starts the measured worker
(``worker.py``) and a few set-up probes as child processes with BLAS
pinned to one thread and the checkout's ``src`` on the import path.  It
prints every metric with its unit, the failure breakdown and the
environment, keeps the full record under ``.bench_results/``, and ends
with one JSON object holding ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  A failed correctness check
exits non-zero without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")

SETUP_PROBES = 4            # extra process starts timed for setup_s
DEADLINE_S = 170.0          # every child must end within this of our start
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in PINNED_THREADS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list, deadline: float) -> tuple:
    """Run the worker to completion; return (set-up seconds, its JSON).

    The set-up time runs from just before the process is started to the
    moment the worker reports it is ready for the first row.
    """
    start = time.monotonic()
    if deadline - start <= 0:
        raise BenchError("no time left for the worker")
    try:
        proc = subprocess.run([sys.executable, WORKER, *argv], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=deadline - start)
    except subprocess.TimeoutExpired:
        raise BenchError("the worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"the worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("the worker printed no result")
    out = json.loads(lines[-1])
    return out["ready"] - start, out


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def report(args, spec: dict, units: dict, setups: list, res: dict) -> dict:
    """Print the human-readable lines; return every metric by name."""
    plain = res["untraced"]
    if not plain["ok"]:
        raise BenchError("no row returned a solution")
    end_to_end = {
        "throughput_ips": plain["throughput_ips"],
        "solve_s_p50": plain["solve_s_p50"],
        "solve_s_tail": plain["solve_s_tail"],
        "total_load_gmean": plain["total_load_gmean"],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    lo, hi = res["scenario_seeds"]
    print(f"workload {args.workload} seed {args.seed}: scenario seeds "
          f"{lo}..{hi}, {plain['attempted']} rows attempted, {plain['ok']} "
          f"answered, {plain['infeasible']} verified infeasible, "
          f"{plain['failed']} failed, {plain['wall_s']:.3f} s in the harness")
    raised = sum(plain["raised"].values())
    print(f"failed_ratio {raised / plain['attempted']:.6g} ratio "
          f"({raised}/{plain['attempted']} rows raised; by class "
          f"{json.dumps(plain['raised'], sort_keys=True)})")
    for name, value in end_to_end.items():
        note = ""
        if name == "solve_s_tail":
            note = (f" (p{plain['tail_percentile']:.4g} of {plain['ok']} "
                    f"rows; slowest {plain['slowest_s']:.6g} s)")
        elif name == "setup_s":
            note = f" (median of {len(setups)} starts)"
        elif name == "total_load_gmean":
            note = f" (arithmetic mean {plain['total_load_mean']:.6g})"
        print(f"{name} {_fmt(value)} {units[name]}{note}")
    metrics = dict(end_to_end)
    if args.trace:
        layers = res["per_layer"]
        for name in (m["name"] for m in spec["per_layer"]):
            print(f"{name} {_fmt(layers[name])} {units[name]}")
        shares = ", ".join(f"{n} {v:.1%}" for n, v in
                           sorted(res["self_shares"].items(),
                                  key=lambda kv: -kv[1]))
        print(f"self-time shares of the harness time: {shares}")
        print(f"tracing overhead: throughput_ips traced "
              f"{_fmt(res['traced']['throughput_ips'])} vs untraced "
              f"{_fmt(plain['throughput_ips'])} 1/s "
              f"({layers['trace.overhead_ratio']:+.2%} wall)")
        metrics.update(layers)
    print(f"env {json.dumps(res['env'], sort_keys=True)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "risload",
                                           "__init__.py")):
            raise BenchError(f"no risload sources under {ROOT}/src")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        units = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
        child_args = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds)]
        setups = [run_child(child_args + ["--probe"], deadline)[0]
                  for _ in range(SETUP_PROBES)]
        setup, res = run_child(child_args + ["--trace", str(args.trace)],
                               deadline)
        setups.append(setup)
        if res["problem_count"]:
            for p in res["problems"]:
                print(f"check failed: {p}", file=sys.stderr)
            raise BenchError(f"{res['problem_count']} correctness problems")
        metrics = report(args, spec, units, setups, res)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    counts = res["traced"] if args.trace else res["untraced"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "finished": time.time(), "setup_samples": setups,
        "metrics": metrics, "worker": res,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": True,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
