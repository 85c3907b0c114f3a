"""Command-line front end with reproducible, file-based outputs.

Commands:
  bound              minimize the interpolation constant; write a certificate
  parabolic          evaluate the heat-smoothing constant (optionally at a time)
  verify parabolic   sweep measured smoothing ratios against the bounds
  verify gns         re-verify a certificate, then check it against measured
                     Gaussian ratios

Exit codes: 0 success, 1 inequality violation, 2 bad input, 3 quadrature
accuracy failure, 4 search exhaustion (no feasible point found, though none
is proven absent).  Certificate JSON and sweep CSV payloads are byte-identical
across runs with the same flags; the run manifest (printed to stdout) carries
the timestamp and parameter echo.  The search is deterministic and seedless:
``bound`` still accepts --starts, --samples and --seed, which configured the
former multistart, and ignores them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .errors import (
    AccuracyError,
    EmptyFeasibleError,
    GnsboundError,
    InadmissibleError,
    OutOfRangeError,
    StructurallyEmptyError,
)
from .exponents import GnsProblem, LebesgueExponent
from .optimizer import certificate_from_dict, certificate_json, minimize
from .oracle import SweepReport, check_gns, check_parabolic, default_parabolic_grid
from .parabolic import ParabolicParams, a_par, bound_at_time

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_ACCURACY = 3
EXIT_SEARCH = 4


def _order(text: str) -> float:
    """A derivative order: ``a/b`` is rounded once from the exact fraction.

    Anything else is ``float(text)``, so decimal inputs parse as they always have.
    """
    if "/" not in text:
        return float(text)
    try:
        return float(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"order {text!r} has a zero denominator") from None
    except OverflowError:
        raise ValueError(f"order {text!r} is outside the float range") from None


def _parse_widths(text: str) -> list[float]:
    widths = [float(part) for part in text.split(",") if part.strip()]
    if not widths or not all(0.0 < w < math.inf for w in widths):
        raise ValueError(f"widths must be positive and finite, got {text!r}")
    return widths


def _manifest(command: str, args: argparse.Namespace, outputs: list[str]) -> str:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return json.dumps(
        {
            "command": command,
            "parameters": {k: str(v) for k, v in echo.items()},
            "artifact_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": outputs,
        },
        sort_keys=True,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnsbound",
        description="Certificate-backed constants for fractional interpolation inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="minimize the constant; emit a certificate")
    bound.add_argument("--d", type=int, required=True)
    bound.add_argument("--s", type=str, required=True)
    bound.add_argument("--s1", type=str, required=True)
    bound.add_argument("--s2", type=str, required=True)
    bound.add_argument("--p", type=str, required=True)
    bound.add_argument("--p1", type=str, required=True)
    bound.add_argument("--p2", type=str, required=True)
    for ignored in ("--starts", "--samples", "--seed"):
        bound.add_argument(ignored, type=int, default=None, help=argparse.SUPPRESS)
    bound.add_argument("--json-out", type=str, default=None)
    bound.set_defaults(func=_cmd_bound)

    para = sub.add_parser("parabolic", help="evaluate the smoothing constant")
    para.add_argument("--d", type=int, required=True)
    para.add_argument("--s", type=str, required=True)
    para.add_argument("--r", type=str, required=True)
    para.add_argument("--p", type=str, required=True)
    para.add_argument("--t", type=float, default=None)
    para.set_defaults(func=_cmd_parabolic)

    verify = sub.add_parser("verify", help="numerical verification sweeps")
    vsub = verify.add_subparsers(dest="verify_command", required=True)

    vpar = vsub.add_parser("parabolic", help="smoothing-bound domination sweep")
    vpar.add_argument("--d", type=int, default=None, help="restrict to one dimension")
    vpar.add_argument("--grid", choices=("default", "small"), default="default")
    vpar.add_argument("--widths", type=str, default="0.5,1,2")
    vpar.add_argument("--csv-out", type=str, default=None)
    vpar.set_defaults(func=_cmd_verify_parabolic)

    vgns = vsub.add_parser("gns", help="certificate domination sweep")
    vgns.add_argument("--cert", type=str, required=True)
    vgns.add_argument("--widths", type=str, default="0.5,1,2")
    vgns.add_argument(
        "--dilations",
        type=int,
        default=5,
        help="N gives dilation factors 2^k for k in -N..N",
    )
    vgns.add_argument("--csv-out", type=str, default=None)
    vgns.set_defaults(func=_cmd_verify_gns)

    return parser


def _problem_from_args(args: argparse.Namespace) -> GnsProblem:
    return GnsProblem(
        d=args.d,
        s=_order(args.s),
        s1=_order(args.s1),
        s2=_order(args.s2),
        p=LebesgueExponent.parse(args.p),
        p1=LebesgueExponent.parse(args.p1),
        p2=LebesgueExponent.parse(args.p2),
    )


def _cmd_bound(args: argparse.Namespace) -> int:
    try:
        problem = _problem_from_args(args)
    except (OutOfRangeError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    cert = minimize(problem)
    outputs = []
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                handle.write(certificate_json(cert))
        except OSError as exc:
            print(f"bad output path: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        outputs.append(args.json_out)
    print(f"value = {cert.value!r}")
    print(f"theta = {cert.theta.value!r}")
    print(_manifest("bound", args, outputs))
    return EXIT_OK


def _cmd_parabolic(args: argparse.Namespace) -> int:
    try:
        s = _order(args.s)
        if not math.isfinite(s):
            raise ValueError(f"--s must be finite, got {s!r}")
        if args.t is not None and not (0.0 < args.t < math.inf):
            raise ValueError(f"--t must be positive and finite, got {args.t!r}")
        params = ParabolicParams(
            p=LebesgueExponent.parse(args.p),
            r=LebesgueExponent.parse(args.r),
            s=s,
            d=args.d,
        )
        lines = [f"a_par = {a_par(params)!r}"]
        if args.t is not None:
            lines.append(f"bound_at_time = {bound_at_time(params, args.t)!r}")
    except (ValueError, OverflowError, GnsboundError) as exc:
        # a constant outside the positive normal floats is a GnsboundError too
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print("\n".join(lines))
    return EXIT_OK


def _report(command: str, args: argparse.Namespace, report: SweepReport, checked: str) -> int:
    """Write the CSV, print the summary and the manifest, list violations."""
    outputs = []
    if args.csv_out:
        try:
            report.to_csv(args.csv_out)
        except OSError as exc:
            print(f"bad output path: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        outputs.append(args.csv_out)
    print(f"{checked}; worst slack = {report.worst_slack!r}; {'PASS' if report.ok else 'FAIL'}")
    print(_manifest(command, args, outputs))
    for row in report.violations():
        print(f"violation: {row}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_verify_parabolic(args: argparse.Namespace) -> int:
    try:
        widths = _parse_widths(args.widths)
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    dims = (args.d,) if args.d is not None else (1, 2, 3)
    if args.d is not None and args.d not in (1, 2, 3):
        print("bad input: --d must be 1, 2 or 3", file=sys.stderr)
        return EXIT_BAD_INPUT
    grid = default_parabolic_grid(dims)
    if args.grid == "small":
        grid = [case for case in grid if case[4] == 1.0]
        widths = widths[:1]
    report = check_parabolic(grid, widths)
    return _report("verify parabolic", args, report, f"checked {len(report.rows)} cases")


def _cmd_verify_gns(args: argparse.Namespace) -> int:
    try:
        with open(args.cert, "r", encoding="utf-8") as handle:
            cert = certificate_from_dict(json.load(handle))
        widths = _parse_widths(args.widths)
    except (OSError, ValueError, KeyError, TypeError, GnsboundError) as exc:
        print(f"bad certificate or input: {exc!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if not 0 <= args.dilations < 1024:
        # 2.0**k overflows from k = 1024 on
        print("bad input: --dilations must be in 0..1023", file=sys.stderr)
        return EXIT_BAD_INPUT
    dilations = [2.0**k for k in range(-args.dilations, args.dilations + 1)]
    # check_gns measures at width * lam^2; a normal float a keeps pi/a finite
    for width in widths:
        for dilated in (width * lam * lam for lam in (dilations[0], dilations[-1])):
            if not sys.float_info.min <= dilated < math.inf:
                print(f"bad input: --dilations {args.dilations} takes width {width!r} to "
                      f"{dilated!r}, outside the normal float range", file=sys.stderr)
                return EXIT_BAD_INPUT
    report = check_gns(cert, widths, dilations)
    checked = f"checked {len(report.rows)} ratios against value {cert.value!r}"
    return _report("verify gns", args, report, checked)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InadmissibleError as exc:
        print(f"inadmissible parameters: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except StructurallyEmptyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except EmptyFeasibleError as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except GnsboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
