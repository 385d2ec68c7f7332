"""Compare two result sets of the suite under the benchmark's own bounds.

    python3 benchmarks/suite/run.py --repeat 10 --out A.json     # parent
    python3 benchmarks/suite/run.py --repeat 10 --out B.json     # change
    python3 benchmarks/suite/compare.py A.json B.json

One row per (end-to-end metric, workload).  ``B/A`` is the ratio of the
two medians and its base is A.  The verdict applies the bound that
``BENCHMARK.json`` fixes for the metric:

* ``unresolved`` - the run-to-run spread of either side (inter-quartile
  distance over median) is wider than the bound, so the runs cannot tell
  (not applied to ``setup_s``, as in the driver);
* ``worse`` / ``better`` - B's median is worse / better than A's by more
  than the bound;
* ``same`` - within the bound.

Exits 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from statistics import median
from typing import Any, Dict, List, Sequence, Tuple

from harness import load_benchmark_spec, spread


def load_values(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): [value per untraced run]}``."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in report["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float, check_spread: bool = True) -> Tuple[str, float]:
    """The row's verdict and by how much B is worse than A (a share of
    A's median; negative when B is better)."""
    base = median(a)
    change = (median(b) - base) / base
    worse_by = change if better == "lower" else -change
    if check_spread and max(spread(a), spread(b)) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def compare(path_a: str, path_b: str) -> List[Dict[str, Any]]:
    spec = load_benchmark_spec()
    a, b = load_values(path_a), load_values(path_b)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            # Like the driver, take set-up time by its medians alone: a
            # cold page cache now and then makes its spread meaningless.
            word, worse_by = verdict(
                a[key], b[key], metric["better"], metric["bound"],
                check_spread=metric["name"] != "setup_s",
            )
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "a": median(a[key]),
                "b": median(b[key]),
                "n_a": len(a[key]),
                "n_b": len(b[key]),
                "spread_a": spread(a[key]),
                "spread_b": spread(b[key]),
                "bound": metric["bound"],
                "worse_by": worse_by,
                "verdict": word,
            })
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(*argv)
    if not rows:
        print("no (metric, workload) pair is in both files", file=sys.stderr)
        return 2
    print(f"{'workload':12s} {'metric':20s} {'A (base)':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for r in rows:
        print(
            f"{r['workload']:12s} {r['metric']:20s} {r['a']:12.4f} {r['b']:12.4f} "
            f"{r['b'] / r['a']:7.3f} {r['spread_a']:9.3f} {r['spread_b']:9.3f} "
            f"{r['bound']:6.2f}  {r['verdict']}  "
            f"(n={r['n_a']}/{r['n_b']}, {r['unit']})"
        )
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
