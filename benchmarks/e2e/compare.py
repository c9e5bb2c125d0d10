"""Compare two sets of bench_e2e runs, metric by metric and pair by pair.

Usage::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/e2e/compare.py SET_DIR

Each directory holds ``bench_e2e.py --json`` outputs of untraced runs,
one or more seeds each.  For every workload and end-to-end metric of
BENCHMARK.json, one row gives each side's median and quartiles, the
share of seed-matched pairs the change wins (ties count for neither),
and a verdict:

* ``unresolved``: the parent's quartile spread is wider than the
  metric's bound, and not every change run beats every parent run;
* ``regression``: the change's median is worse than the parent's by
  more than the bound;
* ``gain``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile spread;
* ``same``: none of these.

With one directory it prints each metric's median, quartiles and
spread (quartile distance over the median) against its bound.  Exits 1
when any row is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: (workload, metric) -> seed -> values
Runs = Dict[Tuple[str, str], Dict[int, List[float]]]


def load(directory: Path) -> Runs:
    runs: Runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        for workload, result in record["results"].items():
            for metric, value in result["metrics"].items():
                runs[(workload, metric)][record["seed"]].append(value)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def flat(by_seed: Dict[int, List[float]]) -> List[float]:
    return [v for seed in sorted(by_seed) for v in by_seed[seed]]


def verdict(parent: Dict[int, List[float]], change: Dict[int, List[float]],
            better: str, bound: float) -> Tuple[str, float]:
    """The row's verdict and the change's win share over pairs."""
    sign = 1.0 if better == "higher" else -1.0
    p_values, c_values = flat(parent), flat(change)
    p1, p_med, p3 = quartiles(p_values)
    _, c_med, _ = quartiles(c_values)
    pairs = [pair for seed in sorted(parent.keys() & change.keys())
             for pair in zip(parent[seed], change[seed])]
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    every_run_better = (min(sign * c for c in c_values)
                        > max(sign * p for p in p_values))
    if (p3 - p1) / p_med > bound and not every_run_better:
        return "unresolved", share
    if sign * (p_med - c_med) / p_med > bound:
        return "regression", share
    if share >= 0.9 and sign * (c_med - p_med) > p3 - p1:
        return "gain", share
    return "same", share


def describe(values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:>11.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    sets = [load(Path(directory)) for directory in argv]
    workloads = sorted({w for w, _ in sets[0]})
    regressions = 0
    if len(sets) == 1:
        print(f"{'workload':<18} {'metric':<14} {'n':>3} "
              f"{'median [q1, q3]':>34} {'spread':>7} {'bound':>6}")
    else:
        print(f"{'workload':<18} {'metric':<14} {'parent median [q1, q3]':>34}"
              f" {'change median [q1, q3]':>34} {'wins':>5}  verdict")
    for workload in workloads:
        for metric in metrics:
            key = (workload, metric["name"])
            if len(sets) == 1:
                values = flat(sets[0][key])
                q1, med, q3 = quartiles(values)
                print(f"{workload:<18} {metric['name']:<14} {len(values):>3} "
                      f"{describe(values):>34} {(q3 - q1) / med:>7.3f} "
                      f"{metric['bound']:>6.2f}")
                continue
            parent, change = sets[0][key], sets[1][key]
            name, share = verdict(parent, change, metric["better"],
                                  metric["bound"])
            regressions += name == "regression"
            print(f"{workload:<18} {metric['name']:<14} "
                  f"{describe(flat(parent)):>34} {describe(flat(change)):>34} "
                  f"{share:>5.0%}  {name}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
