"""Freeze the serving-stack golden digests into tests/fixtures/.

Run from the repo root::

    PYTHONPATH=src:. python scripts/capture_service_golden.py

The workloads live in ``tests/golden_workloads.py`` so the test suite
re-runs *exactly* the same code.  This script exists to be run once,
against the engine implementation the fixtures should pin, making the
fixture a cross-refactor equivalence oracle rather than a
self-fulfilling snapshot; ``tests/test_service.py`` pins separately
which values a re-capture may and may not move.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.corpus.builder import build_default_corpus

from tests.golden_workloads import capture_all

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "service_golden.json"


def main() -> None:
    bundle = build_default_corpus()
    golden = capture_all(bundle)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    print(json.dumps(golden, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
