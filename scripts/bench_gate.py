"""CI digest gate for one legacy bench: run it twice, compare digests.

    python scripts/bench_gate.py benchmarks/bench_shards.py BENCH_shards.json \
        --equal default=sharded.4 [--base REV] [--moved KEY ...]

Runs ``pytest <bench_file>`` twice, asserts the ``digests`` block of
the JSON it rewrites is identical across the two runs, prints
``unchanged | moved`` for every dotted key against the block commit
``--base`` holds (default ``HEAD``: the parent of uncommitted work; CI
passes the parent of the commit under test), and checks every
``--equal a.b=c.d`` pair of dotted paths *inside* the block (e.g. the
default-config digests equal the 4-shard ones).  Diffing against the
base commit, not the working tree, means a change that moves a digest
must declare it whether or not it re-committed the JSON: the gate
fails unless the moved keys are exactly the ``--moved`` ones.  Exits
non-zero with the differing values on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def _committed(bench_json: str, base: str) -> dict:
    """The ``digests`` block of ``bench_json`` at commit ``base``; empty
    when the file is new since then (every key moves)."""
    probe = ["git", "rev-parse", "--verify", "--quiet", f"{base}^{{commit}}"]
    if subprocess.run(probe, capture_output=True).returncode:
        raise SystemExit(f"{bench_json}: no commit {base!r} to diff the digests against")
    spec = f"{base}:./{os.path.relpath(bench_json)}"
    shown = subprocess.run(["git", "show", spec], capture_output=True, text=True)
    return json.loads(shown.stdout)["digests"] if shown.returncode == 0 else {}


def _run(bench_file: str, bench_json: str) -> dict:
    subprocess.run([sys.executable, "-m", "pytest", bench_file, "-q"], check=True)
    with open(bench_json) as fh:
        return json.load(fh)["digests"]


def _lookup(digests: dict, path: str):
    value = digests
    for key in path.split("."):
        value = value[key]
    return value


def flatten(block: dict, prefix: str = "") -> dict:
    """Dotted leaf keys of a nested digest block."""
    leaves = {}
    for key, value in block.items():
        if isinstance(value, dict):
            leaves.update(flatten(value, f"{prefix}{key}."))
        else:
            leaves[f"{prefix}{key}"] = value
    return leaves


def moved_keys(label: str, before: dict, after: dict) -> set[str]:
    """Print ``unchanged | moved`` per dotted key of two digest blocks (a
    key on one side only has moved); return the moved ones."""
    before, after = flatten(before), flatten(after)
    keys = sorted(before.keys() | after.keys())
    moved = {k for k in keys if k not in before or k not in after or before[k] != after[k]}
    for key in keys:
        print(f"{label}: {key:<36} {'moved' if key in moved else 'unchanged'}")
        if key in moved:
            print(f"    before: {before.get(key)}\n    after:  {after.get(key)}")
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_file")
    parser.add_argument("bench_json")
    parser.add_argument("--equal", action="append", default=[], metavar="A=B")
    parser.add_argument(
        "--base", default="HEAD", metavar="REV",
        help="the commit whose digests block a moved key is measured against",
    )
    parser.add_argument(
        "--moved", action="extend", nargs="+", default=[], metavar="KEY",
        help="a dotted digest key this change moves on purpose",
    )
    args = parser.parse_args(argv)

    committed = _committed(args.bench_json, args.base)
    first = _run(args.bench_file, args.bench_json)
    second = _run(args.bench_file, args.bench_json)
    if first != second:
        print(f"{args.bench_json}: digests drifted between identical runs:", file=sys.stderr)
        print(f"  run 1: {first}\n  run 2: {second}", file=sys.stderr)
        return 1
    moved = moved_keys(args.bench_json, committed, second)
    if moved != set(args.moved):
        print(
            f"{args.bench_json}: moved since {args.base} {sorted(moved)}"
            f" != declared --moved {sorted(args.moved)}",
            file=sys.stderr,
        )
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
