"""The layer-cost ledger: one command for every metric in BENCHMARK.json.

    python3 benchmarks/ledger/run.py --seed 11            # four workloads, end to end
    python3 benchmarks/ledger/run.py --seed 11 --traced   # ... then each again, traced
    python3 benchmarks/ledger/run.py --workload hot_repeat --seed 3 --seconds 20 --trace 0

Every run is one fresh interpreter (``worker.py``).  A run prints each
metric by name with its unit, writes ``out/<workload>.json`` (traced:
``out/<workload>.layers.json`` and ``out/trace_<workload>.jsonl``), and
with ``--workload`` ends with one JSON line: ``correct``, ``attempted``,
``failed``, ``metrics``.  The exit code is non-zero when a correctness
check fails or the program under test is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
#: Set-up is timed in this many fresh interpreters per run: the run's
#: own worker, and a set-up-only one before and one after it.
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(args: list[str]) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"ledger: worker {' '.join(args)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def one_run(bench: dict, workload: str, seed: int, seconds: int, trace: int, quick: bool, out: Path):
    """One run of one workload; returns the worker's full record."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if quick:
        base.append("--quick")
    extra = ["--trace", str(trace)]
    if trace:
        extra += ["--trace-file", str(out / f"trace_{workload}.jsonl")]
    sample_setup = not trace and not quick
    setup_only = []
    if sample_setup:
        setup_only += [worker([*base, "--setup-only"]) for _ in range((SETUP_SAMPLES - 1) // 2)]
    record = worker([*base, *extra])
    if sample_setup:
        setup_only += [worker([*base, "--setup-only"]) for _ in range(SETUP_SAMPLES // 2)]
    metrics = record["metrics"]
    if not trace:
        setups = [s["setup_s"] for s in setup_only] + [metrics["setup_s"]["value"]]
        # The best of them, like every timing of the ledger (see
        # worker.py): interference from outside only ever adds time.
        metrics["setup_s"]["value"] = min(setups)
        record["repetitions"]["setup_s"] = setups
        record["attempted"] += sum(s["attempted"] for s in setup_only)
        record["failed"] += sum(s["failed"] for s in setup_only)

    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != expected:
        odd = sorted(set(emitted.items()) ^ set(expected.items()))
        record["violations"].append(f"metrics differ from BENCHMARK.json: {odd}")
    record["correct"] = not record["violations"] and record["failed"] == 0
    return record


def show(record: dict) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(
        f"# {record['workload']} seed={record['seed']} {kind}: "
        f"attempted={record['attempted']} failed={record['failed']} "
        f"correct={record['correct']} samples={record['samples']}"
    )
    for phase, counts in record["phases"].items():
        print(f"#   phase {phase}: {counts}")
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:<16} {name:<38} {metric['value']:>16.6g} {metric['unit']}")
    for violation in record["violations"]:
        print(f"VIOLATION {record['workload']}: {violation}")


def save(out: Path, workload: str, trace: int, runs: list[dict]) -> None:
    name = f"{workload}.layers.json" if trace else f"{workload}.json"
    (out / name).write_text(json.dumps({"workload": workload, "runs": runs}, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only and end with one JSON line")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="all workloads: also run each traced")
    parser.add_argument("--quick", action="store_true", help="one round per phase (smoke test)")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, on seed, seed+1, ...")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args()

    if not (SOURCE / "repro").is_dir():
        print(f"ledger: the program under test is missing: no {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    bench = declared()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; BENCHMARK.json has {names}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    args.out.mkdir(parents=True, exist_ok=True)

    if args.workload is not None:
        record = one_run(bench, args.workload, args.seed, seconds, args.trace, args.quick, args.out)
        show(record)
        save(args.out, args.workload, args.trace, [record])
        print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0 if record["correct"] else 1

    correct = True
    for workload in names:
        for trace in (0, 1) if args.traced else (0,):
            runs = []
            for seed in range(args.seed, args.seed + args.repeat):
                record = one_run(bench, workload, seed, seconds, trace, args.quick, args.out)
                show(record)
                runs.append(record)
                correct &= record["correct"]
            save(args.out, workload, trace, runs)
        if args.traced:
            # The proxies only delegate, so a traced run must answer
            # byte for byte like the untraced run of the same seed.
            plain = json.loads((args.out / f"{workload}.json").read_text())["runs"]
            for a, b in zip(plain, runs):
                if a["digests"]["answers"] != b["digests"]["answers"]:
                    print(f"VIOLATION {workload}: traced answers differ from untraced, seed {a['seed']}")
                    correct = False
    print(f"# ledger: {'all checks passed' if correct else 'CHECKS FAILED'}; results in {args.out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
