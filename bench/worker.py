"""One measured benchmark process.

Drives ``risload.harness.run_experiment`` over a workload's generated
configurations as a single closed-loop caller, one scenario seed per
call, checks every row it returns, and prints its figures as one JSON
line.  ``run.py`` starts it with BLAS pinned to one thread and the
checkout's ``src`` on ``PYTHONPATH``.  With ``--probe`` it stops once it
is ready for the first row, which gives one sample of the set-up time.

    python3 bench/worker.py --workload load-eval --seed 0 --seconds 10 --trace 0
"""

import argparse
import json
import math
import os
import resource
import sys
import time

import risload
from risload import harness
from risbench import checks, envinfo, stats, tracing
from risbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
MAX_PROBLEMS = 20


def _row_key(r) -> tuple:
    return (r.scheme, r.value, r.seed, r.total_load.hex(), r.feasible,
            r.sweeps, r.error)


class Pass:
    """Rows, timed wall and check results of one pass over the configs."""

    def __init__(self):
        self.rows = []
        self.wall = 0.0
        self.kinds = []
        self.problems = []

    def summary(self) -> dict:
        ok = [r for r, k in zip(self.rows, self.kinds) if k == checks.OK]
        raised = {}
        for r in self.rows:
            if r.error:
                name = r.error.split(":", 1)[0]
                raised[name] = raised.get(name, 0) + 1
        walls = [r.wall_time for r in ok]
        tail = stats.tail_percentile(walls) if walls else (None, None)
        return {
            "attempted": len(self.rows),
            "ok": len(ok),
            "infeasible": sum(k == checks.INFEASIBLE for k in self.kinds),
            "failed": sum(k == checks.FAILED for k in self.kinds),
            "raised": raised,
            "wall_s": self.wall,
            "throughput_ips": len(ok) / self.wall if self.wall else 0.0,
            "solve_s_p50": stats.median(walls) if walls else None,
            "solve_s_tail": tail[1],
            "tail_percentile": tail[0],
            "slowest_s": max(walls) if walls else None,
            "total_load_gmean":
                stats.geometric_mean(r.total_load for r in ok) if ok else None,
            "total_load_mean":
                math.fsum(r.total_load for r in ok) / len(ok) if ok else None,
        }


def run_pass(configs, tracer=None) -> Pass:
    """Run every config through the harness, timing only the harness calls.

    Each call's rows are checked against the scheme outcomes captured
    during it, after the call returns and outside the timed region.
    """
    out = Pass()
    run = harness.run_experiment
    if tracer is not None:
        run = tracer.wrap("harness", run)
    clock = time.perf_counter
    sink = []
    with tracing.installed(sink, tracer):
        for cfg in configs:
            sink.clear()
            start = clock()
            table = run(cfg)
            out.wall += clock() - start
            if len(sink) != len(table.rows):
                out.problems.append(f"{len(table.rows)} rows for "
                                    f"{len(sink)} scheme calls")
            for row, outcome in zip(table.rows, sink):
                kind, found = checks.classify(row, outcome)
                out.kinds.append(kind)
                out.problems.extend(found)
            out.rows.extend(table.rows)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(risload.__file__).startswith(src):
        print(f"risload imported from {risload.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # A traced run makes two passes over the same configurations, so each
    # is sized to half the run and the run as a whole measures --seconds.
    seconds = args.seconds / 2 if args.trace else args.seconds
    configs = WORKLOADS[args.workload].configs(args.seed, seconds)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    plain = run_pass(configs)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "ready": ready,
        "scenario_seeds": [configs[0].seeds[0], configs[-1].seeds[0]],
        "untraced": plain.summary(),
        "peak_rss_mb": peak_kb / 1024.0,
        "problems": plain.problems,
        "env": envinfo.environment(ROOT),
    }
    if args.trace:
        tracer = tracing.Tracer()
        traced = run_pass(configs, tracer)
        if [_row_key(r) for r in traced.rows] != [_row_key(r)
                                                  for r in plain.rows]:
            traced.problems.append("traced and untraced rows differ")
        summary = traced.summary()
        layers = tracer.per_layer()
        layers["harness.rows"] = summary["attempted"]
        layers["harness.failed_ratio"] = (
            sum(summary["raised"].values()) / summary["attempted"])
        layers["trace.overhead_ratio"] = traced.wall / plain.wall - 1.0
        result.update(traced=summary, per_layer=layers,
                      self_shares=tracer.self_shares())
        result["problems"] += traced.problems
        os.makedirs(RESULTS_DIR, exist_ok=True)
        tracer.write(os.path.join(
            RESULTS_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    result["problem_count"] = len(result["problems"])
    result["problems"] = result["problems"][:MAX_PROBLEMS]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
