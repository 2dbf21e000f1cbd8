"""CI digest gate for one legacy bench: run it twice, compare digests.

    python scripts/bench_gate.py benchmarks/bench_shards.py BENCH_shards.json \
        --equal default=sharded.4

Runs ``pytest <bench_file>`` twice, asserts the ``digests`` block of the
JSON it rewrites is identical across the two runs, and checks every
``--equal a.b=c.d`` pair of dotted paths *inside* that block (e.g. the
default-config digests equal the 4-shard ones).  Exits non-zero with
the differing values on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys


def _run(bench_file: str, bench_json: str) -> dict:
    subprocess.run([sys.executable, "-m", "pytest", bench_file, "-q"], check=True)
    with open(bench_json) as fh:
        return json.load(fh)["digests"]


def _lookup(digests: dict, path: str):
    value = digests
    for key in path.split("."):
        value = value[key]
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_file")
    parser.add_argument("bench_json")
    parser.add_argument("--equal", action="append", default=[], metavar="A=B")
    args = parser.parse_args(argv)

    first = _run(args.bench_file, args.bench_json)
    second = _run(args.bench_file, args.bench_json)
    if first != second:
        print(f"{args.bench_json}: digests drifted between identical runs:", file=sys.stderr)
        print(f"  run 1: {first}\n  run 2: {second}", file=sys.stderr)
        return 1
    for pair in args.equal:
        left, _, right = pair.partition("=")
        a, b = _lookup(second, left), _lookup(second, right)
        if a != b:
            print(f"{args.bench_json}: {left} != {right}:", file=sys.stderr)
            print(f"  {left}: {a}\n  {right}: {b}", file=sys.stderr)
            return 1
    print(f"{args.bench_json}: digest gate ok", *args.equal)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
