"""Freeze the serving-stack golden digests into tests/fixtures/.

Run from the repo root::

    PYTHONPATH=src:. python scripts/capture_service_golden.py
    PYTHONPATH=src:. python scripts/capture_service_golden.py --diff

The workloads live in ``tests/golden_workloads.py`` so the test suite
re-runs *exactly* the same code.  This script exists to be run once,
against the engine implementation the fixtures should pin, making the
fixture a cross-refactor equivalence oracle rather than a
self-fulfilling snapshot; ``tests/test_service.py`` pins separately
which values a re-capture may and may not move.

``--diff`` is a preview before a re-capture: it re-captures in memory,
writes nothing, prints ``unchanged | moved`` for every dotted key of the
fixture (``ask.spans``, ``batch.4.answers``, ...) and exits 1 if any
key moved.  It is no gate: the tier-1 golden tests already fail on any
key that moved from the committed fixture.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.corpus.builder import build_default_corpus

from bench_gate import moved_keys
from tests.golden_workloads import capture_all

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "service_golden.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--diff", action="store_true",
        help="compare a fresh capture with the committed fixture; write nothing",
    )
    args = parser.parse_args(argv)

    golden = capture_all(build_default_corpus())
    if args.diff:
        committed = json.loads(OUT.read_text())
        return 1 if moved_keys(OUT.name, committed, golden) else 0
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    print(json.dumps(golden, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
