"""Workload inputs, CLI commands and output checks for the gnsbound benchmark.

A workload is one round of CLI commands built from the workload seed; the
benchmark repeats the round in a closed loop with one caller.  Every command
writes one file (certificate JSON or sweep CSV); its check re-derives what it
can from that file without trusting stored verdicts, and returns how many of
the command's ops failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from gnsbound.cli import main as cli_main
from gnsbound.exponents import LebesgueExponent
from gnsbound.feasible import in_sigma
from gnsbound.optimizer import certificate_from_dict, objective
from gnsbound.oracle import (
    DOMINANCE_RTOL,
    RadialTestFunction,
    default_parabolic_grid,
    frequency_space_l2_norm,
    gaussian_lp_norm,
)

# Certificates are recomputed from their witness to this relative tolerance.
CERT_RTOL = 1e-9
# The oracle's own accuracy target; the independent closed forms must agree
# with measured rows to it, and dilated ratios must agree with each other.
ORACLE_RTOL = 1e-6

# (name, d, s, s1, s2, p, p1, p2) as CLI strings.
PROBLEMS = {
    "agmon": ("1", "0", "1", "0", "inf", "2", "2"),
    "fractional": ("1", "0.5", "1", "0", "4", "2", "2"),
    "agmon_swapped": ("1", "0", "0", "1", "inf", "2", "2"),
    "d2_s0": ("2", "0", "1", "0", "4", "2", "2"),
    "d2_half": ("2", "0.5", "1.5", "0", "4", "2", "2"),
    "d3_s1": ("3", "1", "2", "0", "2", "2", "2"),
    "d3_sup": ("3", "0", "2", "0", "inf", "2", "2"),
}
CERTIFY_PROBLEMS = tuple(PROBLEMS)
VERIFY_PROBLEMS = ("agmon", "fractional", "d2_s0", "d2_half", "d3_s1", "d3_sup")

# verify builds its certificates during set-up with this small fixed config,
# seed included, so they are the same for every workload seed; check_gns
# reads only the problem and theta, so the verify work does not depend on how
# good the certificate is.
VERIFY_CERT_STARTS = "4"
VERIFY_CERT_SAMPLES = "16"
VERIFY_CERT_SEED = 0
VERIFY_DILATIONS = 5  # the CLI default: factors 2^-5 .. 2^5
VERIFY_BASE_WIDTHS = 2
SWEEP_WIDTHS = 3
WIDTH_RANGE = (0.5, 2.0)


@dataclass
class CheckResult:
    failed: int
    values: list[float] = field(default_factory=list)  # bound values produced
    problems: list[str] = field(default_factory=list)


@dataclass
class Command:
    label: str
    argv: list[str]
    ops: int
    output: str
    check: Callable[["Command", str], CheckResult]


@dataclass
class Workload:
    name: str
    commands: list[Command]
    setup_outputs: dict[str, str] = field(default_factory=dict)  # label -> path


def _log_uniform_widths(rng: random.Random, count: int) -> list[float]:
    """Log-uniform widths in WIDTH_RANGE, one per equal stratum of log-width.

    Oracle cost grows with the width, so stratifying keeps the work of a
    round nearly the same for every seed while each width stays random.
    """
    lo, hi = (math.log(w) for w in WIDTH_RANGE)
    step = (hi - lo) / count
    return [round(math.exp(lo + step * (i + rng.random())), 6) for i in range(count)]


def _bound_argv(name: str, seed: int, path: str, *extra: str) -> list[str]:
    d, s, s1, s2, p, p1, p2 = PROBLEMS[name]
    return [
        "bound", "--d", d, "--s", s, "--s1", s1, "--s2", s2,
        "--p", p, "--p1", p1, "--p2", p2, "--seed", str(seed), "--json-out", path, *extra,
    ]


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def check_certificate(name: str, path: str, stdout: str) -> CheckResult:
    """Re-verify a certificate from its witness, trusting no stored verdict."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    cert = certificate_from_dict(doc)
    problems = []
    d, s, s1, s2, p, p1, p2 = PROBLEMS[name]
    expected = (int(d), float(s), float(s1), float(s2)) + tuple(
        LebesgueExponent.parse(x).recip for x in (p, p1, p2)
    )
    given = cert.problem
    if (given.d, given.s, given.s1, given.s2, given.p.recip, given.p1.recip, given.p2.recip) != expected:
        problems.append(f"{name}: certificate is for another problem")
    if not in_sigma(given, cert.point).ok:
        problems.append(f"{name}: witness is outside the feasible set")
        return CheckResult(1, [], problems)
    value = objective(given, cert.point)
    if _rel(value, doc["value"]) > CERT_RTOL:
        problems.append(f"{name}: stored value {doc['value']!r} != recomputed {value!r}")
    if f"value = {doc['value']!r}" not in stdout:
        problems.append(f"{name}: printed value differs from the certificate")
    return CheckResult(1 if problems else 0, [value], problems)


def build_certify(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    commands = []
    for name in CERTIFY_PROBLEMS:
        path = os.path.join(workdir, f"certify-{name}.json")
        commands.append(
            Command(
                label=f"certify-{name}",
                argv=_bound_argv(name, rng.randrange(2**31), path),
                ops=1,
                output=path,
                check=lambda cmd, out, name=name: check_certificate(name, cmd.output, out),
            )
        )
    return Workload("certify", commands)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def check_sweep_rows(rows: list[dict[str, str]], expected_rows: int, stdout: str) -> CheckResult:
    """Domination, row count, Plancherel (p = 2) and closed-form (s = 0) rows."""
    if "PASS" not in stdout:
        return CheckResult(expected_rows, [], ["sweep did not report PASS"])
    problems = []
    failed = 0
    if len(rows) != expected_rows:
        problems.append(f"sweep wrote {len(rows)} rows, expected {expected_rows}")
        failed += abs(expected_rows - len(rows))
    values = []
    for row in rows:
        d, s, t, width = int(row["d"]), float(row["s"]), float(row["t"]), float(row["width"])
        r, p = LebesgueExponent.parse(row["r"]), LebesgueExponent.parse(row["p"])
        measured, bound = float(row["measured"]), float(row["bound"])
        values.append(bound)
        norm = measured * gaussian_lp_norm(width, d, r)
        reference = None
        if p.recip == 0.5:
            reference = frequency_space_l2_norm(RadialTestFunction(width, d), s, t)
        elif s == 0.0:
            # heat flow of exp(-a|x|^2): (1+4at)^(-d/2) exp(-a|x|^2/(1+4at))
            spread = 1.0 + 4.0 * width * t
            reference = spread ** (-0.5 * d) * gaussian_lp_norm(width / spread, d, p)
        bad = (bound - measured) / bound < -DOMINANCE_RTOL
        if reference is not None and _rel(norm, reference) > ORACLE_RTOL:
            bad = True
            problems.append(f"row {row}: norm {norm!r} vs independent {reference!r}")
        failed += bad
    if failed and not problems:
        problems.append(f"{failed} rows violate domination")
    return CheckResult(min(failed, expected_rows), values, problems)


def build_sweep(seed: int, workdir: str) -> Workload:
    """One command per (dimension, width): the 774-row default grid per round.

    The oracle groups its evaluations by (d, t, width) either way, so a
    command per width keeps the kernel-cache reuse of one command over all
    widths, and keeps each command a few seconds long.
    """
    widths = _log_uniform_widths(random.Random(seed), SWEEP_WIDTHS)
    commands = []
    for d in (1, 2, 3):
        expected = len(default_parabolic_grid((d,)))
        for i, width in enumerate(widths):
            path = os.path.join(workdir, f"sweep-d{d}-w{i}.csv")
            commands.append(
                Command(
                    label=f"sweep-d{d}-w{i}",
                    argv=[
                        "verify", "parabolic", "--d", str(d),
                        "--widths", repr(width), "--csv-out", path,
                    ],
                    ops=expected,
                    output=path,
                    check=lambda cmd, out, expected=expected: check_sweep_rows(
                        _read_csv(cmd.output), expected, out
                    ),
                )
            )
    return Workload("sweep", commands)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def check_gns_rows(rows: list[dict[str, str]], widths: list[float], stdout: str) -> CheckResult:
    """Domination and dilation invariance of the ratios per base width."""
    expected = len(widths) * (2 * VERIFY_DILATIONS + 1)
    if "PASS" not in stdout:
        return CheckResult(expected, [], ["verify did not report PASS"])
    problems = []
    failed = abs(expected - len(rows))
    if failed:
        problems.append(f"verify wrote {len(rows)} ratios, expected {expected}")
    for width in widths:
        group = [row for row in rows if float(row["width"]) == width]
        ratios = [float(row["measured"]) for row in group]
        dominated = [
            (float(row["bound"]) - float(row["measured"])) / float(row["bound"]) >= -DOMINANCE_RTOL
            for row in group
        ]
        if ratios and (max(ratios) - min(ratios)) / min(ratios) > ORACLE_RTOL:
            problems.append(f"width {width}: ratios not dilation invariant")
            failed += len(group)
        else:
            failed += dominated.count(False)
    values = [float(rows[0]["bound"])] if rows else []
    return CheckResult(min(failed, expected), values, problems)


def build_verify(seed: int, workdir: str) -> Workload:
    widths = _log_uniform_widths(random.Random(seed), VERIFY_BASE_WIDTHS)
    workload = Workload("verify", [])
    for name in VERIFY_PROBLEMS:
        cert_path = os.path.join(workdir, f"verify-cert-{name}.json")
        argv = _bound_argv(
            name, VERIFY_CERT_SEED, cert_path,
            "--starts", VERIFY_CERT_STARTS, "--samples", VERIFY_CERT_SAMPLES,
        )
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"set-up certificate for {name} failed")
        workload.setup_outputs[f"setup-cert-{name}"] = cert_path
        csv_path = os.path.join(workdir, f"verify-{name}.csv")
        workload.commands.append(
            Command(
                label=f"verify-{name}",
                argv=[
                    "verify", "gns", "--cert", cert_path,
                    "--widths", ",".join(repr(w) for w in widths),
                    "--dilations", str(VERIFY_DILATIONS), "--csv-out", csv_path,
                ],
                ops=len(widths) * (2 * VERIFY_DILATIONS + 1),
                output=csv_path,
                check=lambda cmd, out: check_gns_rows(_read_csv(cmd.output), widths, out),
            )
        )
    return workload


BUILDERS = {"certify": build_certify, "sweep": build_sweep, "verify": build_verify}
