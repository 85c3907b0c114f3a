#!/usr/bin/env python3
"""Compare two source trees on the perfbench workloads, in alternating pairs.

    python3 tools/bench_pair.py --parent ../base --change . --label my-change \\
        --workload certify --pairs 10 --first-seed 101 --seconds 30 --trace 0

Each pair runs ``perfbench/run.py`` of both trees on the same seed, one after
the other, the first side alternating from pair to pair, so that a drift of
the host's speed falls on both sides alike.  Each tree runs its own
``perfbench/run.py`` unchanged, in its own directory.  The script also times
a fresh-process ``gnsbound bound`` on the Agmon problem and a fresh-process
``gnsbound verify gns`` on one fractional-problem certificate, which the
parent tree writes once, alternating likewise (``--bound-repeats``).

Results go to ``BENCH_<label>.json`` in the current directory.  A run of
the script adds its runs to that file if it exists, so one file can collect
several workloads and both ``--trace`` settings; the summary is recomputed
over all runs each time a pair completes.  The file
holds every run's metrics, exit code and output fingerprints
(``fingerprint <label> sha256=<digest>`` lines), then, per workload and
trace setting, each metric's per-side median and quartiles, the number of
pairs the change won (``better`` as in the parent's ``BENCHMARK.json``),
whether the two sides' fingerprints agreed in every pair, and per side the
runs that failed only the trace gate (``trace_gate_only_exits``: every failed
command left more than the gate's share of its wall time outside the spans)
and the largest ``trace.unattributed_frac_max`` of any run.

Only the standard library is used, so the script runs wherever perfbench does.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
AGMON = ["--d", "1", "--s", "0", "--p", "inf", "--s1", "1", "--p1", "2", "--s2", "0", "--p2", "2"]
FRACTIONAL = ["--d", "1", "--s", "0.5", "--p", "4", "--s1", "1", "--p1", "2", "--s2", "0",
              "--p2", "2"]
FRESH = ("fresh_bound_s", "fresh_verify_s")
ENTRY_POINT = "import sys; from gnsbound.cli import main; sys.exit(main(sys.argv[1:]))"
# The problem a traced command reports when the trace gate
# (``UNATTRIBUTED_TOLERANCE`` in perfbench/run.py) fails it.
GATE_PROBLEM = re.compile(r"FAILED command \S+: self times leave \S+ of its wall time unaccounted for")


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run of ``tree``: exit code, metrics, fingerprints, wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=20 * seconds + 600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    return {
        "seed": seed,
        "exit": proc.returncode,
        "wall_s": wall,
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
        "fingerprints": sorted(line for line in lines if line.startswith("fingerprint ")),
        "problems": [line for line in lines if line.startswith("FAILED ")]
        + ([proc.stderr.strip()[-500:]] if proc.returncode and proc.stderr.strip() else []),
    }


def time_command(tree: Path, *argv: str) -> float:
    """Wall seconds of one fresh-process ``gnsbound`` command of ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", ENTRY_POINT, *argv],
                          cwd=tree, env=env, capture_output=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} failed in {tree}: {proc.stderr.decode().strip()}")
    return wall


def failed_only_the_trace_gate(run: dict) -> bool:
    """Whether every failure of a run that exited nonzero is a trace-gate problem.

    Each gate problem counts one failed operation and prints one ``FAILED``
    line, and perfbench prints at most 20 of them, so a run with any other
    failure, or with more failures than lines, does not qualify.
    """
    lines = [line for line in run["problems"] if line.startswith("FAILED ")]
    return (run["exit"] != 0 and 0 < run["failed"] == len(lines)
            and all(GATE_PROBLEM.fullmatch(line) for line in lines))


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def directions(tree: Path) -> dict[str, str]:
    """metric name -> "lower" or "higher", from the tree's BENCHMARK.json."""
    with open(tree / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(doc: dict, better: dict[str, str]) -> dict:
    summary = {}
    for key, pairs in sorted(doc["pairs"].items()):
        metrics = sorted({name for p in pairs for side in SIDES for name in p[side]["metrics"]})
        entry = {
            "pairs": len(pairs),
            "failed_frac": {
                side: sum(p[side]["failed"] for p in pairs)
                / max(1, sum(p[side]["attempted"] for p in pairs))
                for side in SIDES
            },
            "nonzero_exits": {side: sum(p[side]["exit"] != 0 for p in pairs) for side in SIDES},
            "trace_gate_only_exits": {
                side: sum(failed_only_the_trace_gate(p[side]) for p in pairs) for side in SIDES
            },
            "fingerprints_match": all(
                p["parent"]["fingerprints"] == p["change"]["fingerprints"] for p in pairs
            ),
            "metrics": {},
        }
        shares = {side: [p[side]["metrics"]["trace.unattributed_frac_max"] for p in pairs
                         if "trace.unattributed_frac_max" in p[side]["metrics"]] for side in SIDES}
        if all(shares.values()):
            entry["unattributed_frac_max"] = {side: max(shares[side]) for side in SIDES}
        for name in metrics:
            complete = [p for p in pairs if all(name in p[side]["metrics"] for side in SIDES)]
            if not complete:
                continue
            stats = {side: quartiles([p[side]["metrics"][name] for p in complete]) for side in SIDES}
            direction = better.get(name)
            if direction is not None:
                sign = 1.0 if direction == "lower" else -1.0
                stats["better"] = direction
                stats["change_wins"] = sum(
                    sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) < 0.0
                    for p in complete
                )
                stats["median_gain_exceeds_parent_iqr"] = (
                    sign * (stats["parent"]["median"] - stats["change"]["median"])
                    > stats["parent"]["q3"] - stats["parent"]["q1"]
                )
            stats["pairs"] = len(complete)
            entry["metrics"][name] = stats
        summary[key] = entry
    for name in FRESH:
        times = doc.get(name, {})
        if all(times.get(side) for side in SIDES):
            summary[name] = {side: quartiles(times[side]) for side in SIDES}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the baseline source tree")
    parser.add_argument("--change", type=Path, required=True, help="the changed source tree")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--workload", choices=("certify", "sweep", "verify"), default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1, help="pair i runs seed first_seed + i")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bound-repeats", type=int, default=0,
                        help="fresh-process bound and verify gns timings per side")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py under the {side} tree {tree}", file=sys.stderr)
            return 2
    out = Path(f"BENCH_{args.label}.json")
    if out.exists():
        doc = json.loads(out.read_text(encoding="utf-8"))
    else:
        doc = {"label": args.label, "pairs": {}}
    for name in FRESH:
        doc.setdefault(name, {side: [] for side in SIDES})
    doc["trees"] = {side: tree.name for side, tree in trees.items()}
    doc["host"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                   "machine": platform.machine()}
    better = directions(trees["parent"])

    def save() -> None:
        doc["summary"] = summarize(doc, better)
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    if args.bound_repeats:
        with tempfile.TemporaryDirectory() as tmp:
            cert = str(Path(tmp) / "fractional.json")
            time_command(trees["parent"], "bound", *FRACTIONAL, "--json-out", cert)
            for name, argv in (("fresh_bound_s", ["bound", *AGMON]),
                               ("fresh_verify_s", ["verify", "gns", "--cert", cert])):
                for i in range(args.bound_repeats):
                    for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                        doc[name][side].append(time_command(trees[side], *argv))
        save()

    if args.workload is not None:
        key = f"{args.workload}/trace{args.trace}"
        pairs = doc["pairs"].setdefault(key, [])
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_perfbench(trees[side], args.workload, seed, args.seconds, args.trace)
            pairs.append(pair)
            save()
            print(f"{key} seed {seed}: exits {pair['parent']['exit']}/{pair['change']['exit']}",
                  file=sys.stderr)
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
