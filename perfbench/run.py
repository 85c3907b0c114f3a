#!/usr/bin/env python3
"""End-to-end benchmark of the gnsbound command-line interface.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One caller drives ``gnsbound.cli.main`` in-process, in a closed loop, one
command at a time, from the ``src/`` tree next to this directory.  Each run
is a fresh Python process, so import cost and cold oracle caches are paid
once per run as a CLI user pays them once per invocation.  The workload's
round of commands (see ``workloads.py``) repeats, command by command, for
about ``--seconds``; the first round always completes.

Every command's output is checked and fingerprinted (sha256); an op fails if
its command raises, exits nonzero, fails its output check, or writes bytes
that differ from an earlier round or an earlier run of the same code and
seed.  Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
spends half of ``--seconds`` in the untraced loop and half in a traced one,
and reports the per-layer metrics, including the tracing overhead.

Times in the JSON line are scaled to a reference host speed (see
``HostProbe``); the raw wall times are printed next to them.  Full results,
including the environment, go to ``.perfbench_out/`` in the checkout.  The
exit code is 1 when any op failed and 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
from tracer import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("certify", "sweep", "verify")
# All load comes from one process with one caller thread.  numpy and scipy
# each bundle an OpenBLAS pool, so any pool size above one would put more
# threads than cores into the process on a 2-core machine; set before numpy
# is imported, here and in the extra set-ups, which inherit the environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# Set-up runs this many extra times, each in a fresh process; setup_s is the
# median over those and the run's own set-up.  README.md gives the ten-run
# spreads of setup_s with one set-up per run and with this median.
EXTRA_SETUPS = 2

# A traced command fails when its spans' self times, which add up to its root
# span's duration, leave more than this share of its wall time unaccounted
# for.  The gap is the cost of opening and closing the root span, about 1e-5.
UNATTRIBUTED_TOLERANCE = 1e-3

# name -> unit; the order and units match BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "call_p50_s": "s",
    "peak_rss_mb": "MB",
    "cert_value_geomean": "1",
}


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def code_digest() -> str:
    """Hash of the package and benchmark sources: fingerprints are per code."""
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class HostProbe:
    """Times a fixed kernel to track how fast the host runs right now.

    On a shared host the same work can run 1.5x slower for minutes at a
    time, which no run length averages away.  The probe runs between
    commands, outside their timed region; a command's time is scaled by
    ``REFERENCE_S`` over the mean of the probes before and after it, which
    gives its time on an idle core of the reference host (a 2-core Xeon
    VM at 2.0 GHz, where the probe takes about REFERENCE_S).  The kernel
    mixes interpreter work with numpy transcendentals and a matrix-vector
    product, the two kinds of work the workloads do, and belongs to the
    benchmark, so no change to gnsbound moves it.
    """

    REFERENCE_S = 2.5e-3
    REPEATS = 9

    def __init__(self):
        import numpy as np

        self.grid = np.linspace(0.0, 40.0, 200_000)
        self.matrix = np.cos(np.outer(np.linspace(0.0, 1.0, 1024), np.linspace(0.0, 50.0, 256)))
        self.vector = np.linspace(1.0, 2.0, 256)
        self.np = np

    def _interpreter(self) -> int:
        total = 0
        for i in range(30_000):
            total += i * i
        return total

    def _numeric(self) -> float:
        return float(self.np.cos(self.grid).sum() + (self.matrix @ self.vector).sum())

    def seconds(self) -> float:
        """Geometric mean of the two kernels' median times."""
        medians = []
        for kernel in (self._interpreter, self._numeric):
            times = []
            for _ in range(self.REPEATS):
                start = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - start)
            medians.append(percentile(times, 50))
        return math.sqrt(medians[0] * medians[1])


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, workdir: str):
    """Import gnsbound and build the workload's inputs.

    Returns (workload, set-up wall seconds, set-up seconds at reference speed).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports gnsbound from SRC

    import gnsbound

    if Path(gnsbound.__file__).resolve().parent != SRC / "gnsbound":
        raise ImportError(f"gnsbound imported from {gnsbound.__file__}, not from {SRC}")
    built = workloads.BUILDERS[workload](seed, workdir)
    wall = time.perf_counter() - start
    return built, wall, wall * HostProbe.REFERENCE_S / HostProbe().seconds()


def extra_setups(workload: str, seed: int, workdir: str) -> list[tuple[float, float]]:
    """(wall, scaled) set-up times of fresh processes, run one after another."""
    times = []
    for i in range(EXTRA_SETUPS):
        setup_dir = os.path.join(workdir, f"setup{i}")
        os.makedirs(setup_dir)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only", setup_dir],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"extra set-up failed: {proc.stderr.strip()}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((doc["wall_s"], doc["setup_s"]))
    return times


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    labels: list[str] = field(default_factory=list)  # per command run
    walls: list[float] = field(default_factory=list)  # per command run, seconds
    scales: list[float] = field(default_factory=list)  # reference speed / host speed
    command_ids: list[int] = field(default_factory=list)
    round_ops: dict[str, int] = field(default_factory=dict)  # label -> ops per command
    attempted: int = 0
    failed: int = 0
    # label -> bound values of the command's first run; repeated runs write
    # the same bytes, so each command of the round counts once.
    values: dict[str, list[float]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def mean_walls(self, scaled: bool = True) -> dict[str, float]:
        """Mean time of each command of the round."""
        runs: dict[str, list[float]] = {}
        for label, wall, scale in zip(self.labels, self.walls, self.scales):
            runs.setdefault(label, []).append(wall * scale if scaled else wall)
        return {label: sum(times) / len(times) for label, times in runs.items()}

    def ops_per_s(self, scaled: bool = True) -> float:
        """Ops of one round that did not fail, over the round's time.

        The round's time is the sum of each command's mean time, so a run
        that stops part-way through a round weighs no command more than
        another.
        """
        ok_share = (self.attempted - self.failed) / self.attempted
        return sum(self.round_ops.values()) * ok_share / sum(self.mean_walls(scaled).values())

    def call_p50_s(self, scaled: bool = True) -> float:
        """Median time of one command over every command run."""
        times = [wall * scale if scaled else wall for wall, scale in zip(self.walls, self.scales)]
        return percentile(times, 50)


def run_command(cli_main, argv: list[str], tracer, command_id: int):
    """One CLI command; returns (exit code or None if it raised, wall s, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin_command(command_id)
        try:
            code = cli_main(argv)
        except Exception:  # a raising command is a failed op, not a crash
            code = None
            err.write(traceback.format_exc())
        finally:
            if tracer is not None:
                tracer.end_command()
        wall = time.perf_counter() - start
    return code, wall, out.getvalue(), err.getvalue()


def check_command(cmd, code, stdout: str, stderr: str, fingerprints: dict) -> tuple[int, list[float], list[str]]:
    if code != 0:
        return cmd.ops, [], [f"{cmd.label}: exit {code}: {stderr.strip()[-500:]}"]
    try:
        result = cmd.check(cmd, stdout)
    except Exception:  # malformed or missing output fails every op of the command
        return cmd.ops, [], [f"{cmd.label}: check raised\n{traceback.format_exc()}"]
    digest = sha256_file(cmd.output)
    expected = fingerprints.setdefault(cmd.label, digest)
    if digest != expected:
        return cmd.ops, [], [f"{cmd.label}: output sha256 {digest} != earlier {expected}"]
    return result.failed, result.values, result.problems


def closed_loop(workload, seconds: float, fingerprints: dict, probe: HostProbe, tracer=None) -> Phase:
    """Run the round's commands in order, over and over, for about ``seconds``.

    The next command starts only if its mean time so far still fits; the
    first round always completes.
    """
    from gnsbound.cli import main as cli_main

    phase = Phase()
    start = time.perf_counter()
    commands = workload.commands
    before = probe.seconds()
    for command_id in itertools.count(1):
        cmd = commands[(command_id - 1) % len(commands)]
        if command_id > len(commands):
            expected = phase.mean_walls(scaled=False)[cmd.label]
            if time.perf_counter() - start + expected > seconds:
                break
        code, wall, stdout, stderr = run_command(cli_main, cmd.argv, tracer, command_id)
        after = probe.seconds()
        failed, values, problems = check_command(cmd, code, stdout, stderr, fingerprints)
        phase.labels.append(cmd.label)
        phase.walls.append(wall)
        phase.scales.append(2.0 * HostProbe.REFERENCE_S / (before + after))
        phase.command_ids.append(command_id)
        phase.round_ops[cmd.label] = cmd.ops
        phase.attempted += cmd.ops
        phase.failed += failed
        phase.values.setdefault(cmd.label, values)
        phase.problems.extend(problems)
        before = after
    return phase


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _blas_threads() -> dict[str, int]:
    import ctypes

    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(lib)] = int(fn())
                break
    return threads


def environment() -> dict:
    import numpy
    import scipy

    with open("/proc/self/status", encoding="utf-8") as handle:
        status = dict(line.split(":", 1) for line in handle if ":" in line)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "load_processes": 1,
        "caller_threads": 1,
        "process_threads": int(status["Threads"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def end_to_end_metrics(phase: Phase, setup_times: list[float], scaled: bool = True) -> dict[str, float]:
    values = [value for label_values in phase.values.values() for value in label_values]
    return {
        "setup_s": percentile(setup_times, 50),
        "ops_per_s": phase.ops_per_s(scaled),
        "call_p50_s": phase.call_p50_s(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cert_value_geomean": geomean(values) if values else 0.0,
    }


def describe(phase: Phase, scaled: dict, raw: dict, setups: int, label: str) -> list[str]:
    def pair(name: str, unit: str) -> str:
        return f"[{label}] {name} = {scaled[name]:.6g} {unit} (raw {raw[name]:.6g} {unit})"

    return [
        pair("setup_s", "s") + f", median of {setups} set-ups",
        pair("ops_per_s", "1/s") + f", {phase.attempted - phase.failed} ops in "
        f"{sum(phase.walls):.3f} s of command time, {len(phase.walls)} commands",
        pair("call_p50_s", "s") + f", median of {len(phase.walls)} commands",
        f"[{label}] failed_frac = {phase.failed / phase.attempted:.6g} 1 "
        f"({phase.failed} of {phase.attempted} ops)",
        f"[{label}] peak_rss_mb = {scaled['peak_rss_mb']:.6g} MB (ru_maxrss)",
        f"[{label}] cert_value_geomean = {scaled['cert_value_geomean']:.12g} 1 "
        f"(over the bound values of the round's {len(phase.values)} commands)",
        f"[{label}] host speed vs reference: median {percentile([1 / s for s in phase.scales], 50):.3f}, "
        f"range {min(1 / s for s in phase.scales):.3f}..{max(1 / s for s in phase.scales):.3f}",
    ]


def load_fingerprints(path: Path) -> dict:
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    return {}


def save_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)  # run_seconds in BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only is not None:
        _, wall, scaled = setup(args.workload, args.seed, args.setup_only)
        print(json.dumps({"wall_s": wall, "setup_s": scaled}))
        return 0

    if not (SRC / "gnsbound").is_dir():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        try:
            workload, wall, scaled = setup(args.workload, args.seed, str(workdir))
        except ImportError as exc:
            print(f"error: cannot import gnsbound: {exc}", file=sys.stderr)
            return 2
        setups = [(wall, scaled)] + extra_setups(args.workload, args.seed, str(workdir))
        return measure(args, workload, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def measure(args, workload, setups: list[tuple[float, float]]) -> int:
    tag = f"{args.workload}-seed{args.seed}"
    fp_path = OUT_DIR / "fingerprints" / f"{code_digest()}-{tag}.json"
    fingerprints = load_fingerprints(fp_path)
    for label, path in workload.setup_outputs.items():
        digest = sha256_file(path)
        if fingerprints.setdefault(label, digest) != digest:
            print(f"error: set-up output {label} differs from an earlier run", file=sys.stderr)
            return 1

    probe = HostProbe()
    raw_setups = [wall for wall, _ in setups]
    scaled_setups = [scaled for _, scaled in setups]
    lines = [f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"]
    seconds = args.seconds / 2 if args.trace else args.seconds
    phase = closed_loop(workload, seconds, fingerprints, probe)
    e2e = end_to_end_metrics(phase, scaled_setups)
    lines += describe(phase, e2e, end_to_end_metrics(phase, raw_setups, scaled=False), len(setups), "untraced")
    phases = [phase]
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    if args.trace:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            traced = closed_loop(workload, seconds, fingerprints, probe, tracer)
        finally:
            restore()
        phases.append(traced)
        layers = tracing.layer_metrics(tracer, traced.attempted)
        self_sums = tracer.self_time_by_command()
        unattributed = []
        for command_id, wall in zip(traced.command_ids, traced.walls):
            share = (wall * 1e9 - self_sums[command_id]) / (wall * 1e9)
            if abs(share) > UNATTRIBUTED_TOLERANCE:
                traced.failed += 1
                traced.problems.append(
                    f"command {command_id}: self times leave {share:.2e} of its wall time unaccounted for"
                )
            unattributed.append(share)
        layers["trace.ops_per_s_untraced"] = phase.ops_per_s()
        layers["trace.ops_per_s_traced"] = traced.ops_per_s()
        layers["trace.overhead_ratio"] = (
            phase.ops_per_s() / traced.ops_per_s() if traced.ops_per_s() else 0.0
        )
        layers["trace.unattributed_frac_max"] = max(unattributed)
        lines += describe(
            traced,
            end_to_end_metrics(traced, scaled_setups),
            end_to_end_metrics(traced, raw_setups, scaled=False),
            len(setups),
            "traced",
        )
        lines += [f"[layer] {name} = {layers[name]:.6g} {unit}" for name, unit, _ in tracing.PER_LAYER]
        metrics = {
            name: {"value": layers[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER
        }
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(str(OUT_DIR / f"spans-{tag}.jsonl"))

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [problem for p in phases for problem in p.problems]
    save_json(fp_path, fingerprints)
    env = environment()
    lines += [f"fingerprint {label} sha256={digest}" for label, digest in sorted(fingerprints.items())]
    lines.append("env " + json.dumps(env, sort_keys=True))
    lines += [f"FAILED {problem}" for problem in problems[:20]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    save_json(
        OUT_DIR / f"result-{tag}-trace{args.trace}.json",
        {**result, "environment": env, "fingerprints": fingerprints, "problems": problems,
         "raw": {"setup_s": raw_setups, "setup_s_scaled": scaled_setups,
                 "command_walls": phase.walls, "host_scales": phase.scales},
         "workload": args.workload, "seed": args.seed, "seconds": args.seconds},
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
