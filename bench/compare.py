"""Compare two result sets of the benchmark, metric by metric.

    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

A result set is the ``.bench_results/`` directory ``run.py`` writes in a
checkout.  Runs are paired by workload and seed; run the two sides
alternately, one seed at a time, and on the same seeds.  Only untraced
(``--trace 0``) runs of equal length are compared.  Each end-to-end
metric of BENCHMARK.json gets one label per workload:

better      at least ten pairs, the change wins at least nine in ten of
            them (ties count for neither side), and the medians differ
            in its favour by more than the parent's quartile spread;
worse       the change's median is worse than the parent's by more than
            the metric's bound;
unresolved  the parent's quartile spread is wider than the bound, unless
            every change run reads better than every parent run;
unchanged   otherwise.
"""

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from risbench.stats import median, quartiles  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_set(directory: str) -> dict:
    """Untraced records of a result set, keyed by (workload, seed)."""
    out = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        with open(path) as fh:
            rec = json.load(fh)
        out[(rec["workload"], rec["seed"])] = rec
    return out


def wins(parent: list, change: list, higher_better: bool) -> int:
    """Pairs in which the change reads strictly better."""
    sign = 1.0 if higher_better else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def label(parent: list, change: list, higher_better: bool,
          bound: float) -> str:
    """Label of one (metric, workload): paired values, parent first."""
    sign = 1.0 if higher_better else -1.0
    n = len(parent)
    q1, p_med, q3 = quartiles(parent)
    gain = sign * (median(change) - p_med)
    if (n >= MIN_PAIRS and wins(parent, change, higher_better) >= WIN_SHARE * n
            and gain > q3 - q1):
        return "better"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (q3 - q1) > bound * abs(p_med) and not all_better:
        return "unresolved"
    if -gain > bound * abs(p_med):
        return "worse"
    return "unchanged"


def compare(parent: dict, change: dict, spec: dict) -> list:
    """One result line per (workload, metric) the two sets share."""
    lines = []
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    for wl in workloads:
        seeds = sorted(s for w, s in parent
                       if w == wl and (w, s) in change
                       and parent[(w, s)]["seconds"]
                       == change[(w, s)]["seconds"])
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [parent[(wl, s)]["metrics"][name] for s in seeds]
            c = [change[(wl, s)]["metrics"][name] for s in seeds]
            higher = m["better"] == "higher"
            pq, cq = quartiles(p), quartiles(c)
            lines.append({
                "workload": wl, "metric": name, "unit": m["unit"],
                "pairs": len(seeds), "wins": wins(p, c, higher),
                "parent": pq, "change": cq,
                "delta": (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0,
                "label": label(p, c, higher, m["bound"]),
            })
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="result set of the parent commit")
    ap.add_argument("change", help="result set of the change")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    lines = compare(load_set(args.parent), load_set(args.change), spec)
    if not lines:
        print("the two result sets share no untraced runs", file=sys.stderr)
        return 1
    print(f"{'workload':<13} {'metric':<17} {'pairs':>5} {'wins':>4} "
          f"{'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'delta':>8}  label")
    for ln in lines:
        p = "/".join(f"{v:.4g}" for v in ln["parent"])
        c = "/".join(f"{v:.4g}" for v in ln["change"])
        print(f"{ln['workload']:<13} {ln['metric']:<17} {ln['pairs']:>5} "
              f"{ln['wins']:>4} {p:>32} {c:>32} {ln['delta']:>+8.2%}  "
              f"{ln['label']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
