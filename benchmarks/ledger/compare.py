"""Compare two sets of ledger runs: ``compare.py A/ B/``.

``A`` is the base (the parent commit, or the first set of runs), ``B``
the candidate; both are ``--out`` directories of ``run.py``, ideally
with ``--repeat 10``.  One row per (workload, end-to-end metric): both
medians, their ratio with its base, each side's spread (distance
between the first and third quartile as a share of the median), the
bound from BENCHMARK.json, and a verdict:

``ok``          B's median is not worse than A's by more than the bound
``regressed``   it is
``unresolved``  a spread is wider than the bound, so the runs cannot
                tell — unless every run of B reads better than every
                run of A, which is ``ok``

Exit code 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path, name: str) -> list[dict]:
    path = directory / name
    return json.loads(path.read_text())["runs"] if path.exists() else []


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    base, cand = statistics.median(a), statistics.median(b)
    worse = (cand - base) / base if better == "lower" else (base - cand) / base
    if max(spread(a), spread(b)) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "ok" if all_better else "unresolved"
    return "regressed" if worse > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    dir_a, dir_b = Path(argv[0]), Path(argv[1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(
        f"{'workload':<16} {'metric':<15} {'unit':<6} {'A median':>12} {'B median':>12} "
        f"{'B/A':>7} {'base (A)':>12} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict"
    )
    tally = {"ok": 0, "regressed": 0, "unresolved": 0}
    for workload in (w["name"] for w in bench["workloads"]):
        runs_a, runs_b = load(dir_a, f"{workload}.json"), load(dir_b, f"{workload}.json")
        if not runs_a or not runs_b:
            print(f"{workload:<16} missing in {'A' if not runs_a else 'B'}")
            tally["unresolved"] += 1
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            result = verdict(a, b, metric["better"], metric["bound"])
            tally[result] += 1
            base, cand = statistics.median(a), statistics.median(b)
            print(
                f"{workload:<16} {name:<15} {metric['unit']:<6} {base:>12.6g} {cand:>12.6g} "
                f"{cand / base:>7.3f} {base:>12.6g} {spread(a):>9.4f} {spread(b):>9.4f} "
                f"{metric['bound']:>6}  {result}"
            )
        # Same seeds on the same commit must repeat exactly in counts
        # and answers; between commits this line is informational.
        def identity(run: dict) -> tuple:
            return run["attempted"], run["failed"], run["digests"]["answers"]

        by_seed = {r["seed"]: identity(r) for r in runs_a}
        same = [identity(r) == by_seed[r["seed"]] for r in runs_b if r["seed"] in by_seed]
        if same:
            print(
                f"{workload:<16} attempted / failed / answers digest on {len(same)} shared seeds: "
                f"{'identical' if all(same) else 'DIFFER'}"
            )
        layers_a = load(dir_a, f"{workload}.layers.json")
        layers_b = load(dir_b, f"{workload}.layers.json")
        if layers_a and layers_b:
            differ = [
                name
                for name, m in layers_a[0]["metrics"].items()
                if m["unit"] in ("count", "share")
                and m["value"] != layers_b[0]["metrics"][name]["value"]
            ]
            print(
                f"{workload:<16} count-type layer metrics: "
                f"{'identical' if not differ else 'DIFFER ' + ', '.join(differ)}"
            )
    print(
        f"# {tally['ok']} ok, {tally['regressed']} regressed, {tally['unresolved']} unresolved "
        f"(A = {dir_a}, B = {dir_b})"
    )
    return 1 if tally["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
