"""Smoke test of the ledger: run explicitly, it is not part of tier-1.

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_smoke.py -q

Runs ``run.py --quick --traced`` (two sequential rounds, one batch and
one edit per workload, about 80 s) and checks that the output names
exactly the workloads and metrics BENCHMARK.json declares, each with
its unit.  ``PYTHONPATH`` is for ``benchmarks/conftest.py``; the ledger
itself needs none.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_quick_run_prints_exactly_the_declared_metrics(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--traced", "--out", str(tmp_path)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    printed: dict[str, dict[str, str]] = {}
    for line in done.stdout.splitlines():
        if line.startswith(("#", "VIOLATION")):
            continue
        workload, metric, value, unit = line.split()
        float(value)
        printed.setdefault(workload, {})[metric] = unit
    declared = {
        m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]
    }
    assert set(printed) == {w["name"] for w in bench["workloads"]}
    for workload, metrics in printed.items():
        assert metrics == declared, workload
    for workload in printed:
        for name in (f"{workload}.json", f"{workload}.layers.json", f"trace_{workload}.jsonl"):
            assert (tmp_path / name).stat().st_size > 0
