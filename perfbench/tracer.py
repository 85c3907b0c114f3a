"""In-memory span tracer for the gnsbound benchmark.

Spans are recorded from the benchmark's side only: :func:`install` rebinds
each traced public function in every ``gnsbound`` module namespace where a
caller looks it up, so no file of the package changes.  A span has a name,
start, end, the span that caused it and the id of the CLI command it belongs
to.  Hot leaf calls (tens of thousands per certificate) are aggregated per
enclosing full span instead of being stored one by one.

Self time is a span's duration minus the durations of its direct child
spans, so by construction the self times of all spans of one command add up
to the duration of the command's root span; what can be checked is how much
of the command's separately timed wall time that root span covers.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    command: int
    start: int
    end: int
    self_ns: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Aggregate:
    """All calls of one name directly or indirectly under one full span."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def percentile(values: list[float], q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Tracer:
    """Collects spans while a command is active; does nothing otherwise."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        # (command, enclosing full span id, name) -> Aggregate
        self.aggregates: dict[tuple[int, int, str], Aggregate] = {}
        self.command: int | None = None
        self._stack: list[list] = []
        self._next_id = 1

    def open(self, name: str, aggregate: bool = False, attrs: dict | None = None) -> None:
        if aggregate:
            full_id = self._stack[-1][1]
            frame = [None, full_id, name, 0, None, 0]
        else:
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, span_id, name, 0, attrs if attrs is not None else {}, 0]
        self._stack.append(frame)
        frame[3] = self.clock()

    def close(self) -> dict | None:
        """End the innermost span; returns its attribute dict (full spans)."""
        end = self.clock()
        span_id, full_id, name, start, attrs, child_ns = self._stack.pop()
        duration = end - start
        self_ns = duration - child_ns
        if self._stack:
            self._stack[-1][5] += duration
        if span_id is None:
            key = (self.command, full_id, name)
            agg = self.aggregates.get(key)
            if agg is None:
                agg = self.aggregates[key] = Aggregate()
            agg.calls += 1
            agg.total_ns += duration
            agg.self_ns += self_ns
            return None
        parent = self._stack[-1][1] if self._stack else None
        self.spans.append(
            Span(span_id, name, parent, self.command, start, end, self_ns, attrs)
        )
        return attrs

    def begin_command(self, command: int) -> None:
        """Open the root span, ``cli.main``, of one CLI command."""
        if self._stack:
            raise RuntimeError("a command is already being traced")
        self.command = command
        self.open("cli.main")

    def end_command(self) -> Span:
        self.close()
        self.command = None
        return self.spans[-1]

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        aggregate: bool = False,
        attrs: Callable[..., dict] | None = None,
        result_attrs: Callable[[object], dict] | None = None,
    ) -> Callable:
        """A stand-in for ``fn`` that records one span per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.command is None:
                return fn(*args, **kwargs)
            tracer.open(name, aggregate, attrs(*args, **kwargs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                span_attrs = tracer.close()
            if result_attrs is not None and span_attrs is not None:
                span_attrs.update(result_attrs(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def self_time_by_command(self) -> dict[int, int]:
        """Sum of the self times of every span (full and aggregated) per command."""
        totals: dict[int, int] = {}
        for span in self.spans:
            totals[span.command] = totals.get(span.command, 0) + span.self_ns
        for (command, _, _), agg in self.aggregates.items():
            totals[command] = totals.get(command, 0) + agg.self_ns
        return totals

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({"kind": "span", **span.__dict__}) + "\n")
            for (command, parent, name), agg in self.aggregates.items():
                record = {"kind": "aggregate", "command": command, "parent": parent, "name": name}
                handle.write(json.dumps({**record, **agg.__dict__}) + "\n")


# ---------------------------------------------------------------------------
# What is traced
# ---------------------------------------------------------------------------


def fhn_class(f, s: float, t: float, p, *args, **kwargs) -> dict:
    """Bucket a ``fractional_heat_norm(f, s, t, p)`` call.

    Classes split by dimension, finite p versus p = inf ("lp"/"sup"), and
    even s (s/2 a nonnegative integer: smooth symbol, Gaussian decay) versus
    fractional s (algebraic far-field tail).  ``b`` is the heat parameter
    that keys the oracle's kernel-matrix cache.
    """
    kind = "sup" if p.recip == 0.0 else "lp"
    parity = "even" if s >= 0.0 and 0.5 * s == math.floor(0.5 * s) else "frac"
    return {"cls": f"d{f.d}.{kind}_{parity}", "b": t + 0.25 / f.width}


# (module, function, aggregated per enclosing full span, attrs, result attrs)
TARGETS = (
    ("parabolic", "a_par", True, None, None),
    ("parabolic", "bound_at_time", True, None, None),
    ("specialfn", "min_product_power", True, None, None),
    ("exponents", "validate", True, None, None),
    ("feasible", "in_sigma", True, None, None),
    ("feasible", "candidate_box", True, None, None),
    ("feasible", "feasibility_margins", True, None, None),
    ("feasible", "sample_sigma", False, None, lambda points: {"returned": len(points)}),
    ("optimizer", "minimize", False, None, None),
    ("optimizer", "certificate_json", False, None, None),
    ("optimizer", "certificate_from_dict", False, None, None),
    ("oracle", "fractional_heat_norm", False, fhn_class, None),
    ("oracle", "gns_ratio", False, None, None),
    ("oracle", "check_parabolic", False, None, None),
    ("oracle", "check_gns", False, None, None),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Rebind every traced function wherever a gnsbound module looks it up.

    Returns a function that restores the original bindings.
    """
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "gnsbound" or name.startswith("gnsbound."))
    ]
    rebound: list[tuple[object, str, Callable]] = []
    for module_name, fn_name, aggregate, attrs, result_attrs in TARGETS:
        original = getattr(sys.modules[f"gnsbound.{module_name}"], fn_name)
        wrapper = tracer.wrap(
            f"{module_name}.{fn_name}",
            original,
            aggregate=aggregate,
            attrs=attrs,
            result_attrs=result_attrs,
        )
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    rebound.append((module, attr, original))

    def restore() -> None:
        for module, attr, original in rebound:
            setattr(module, attr, original)

    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

FHN_CLASSES = tuple(
    f"d{d}.{kind}_{parity}" for d in (1, 2, 3) for kind in ("lp", "sup") for parity in ("even", "frac")
)

# (name, unit, better); the order and units match BENCHMARK.json.
PER_LAYER = (
    ("parabolic.a_par.calls_per_op", "count", "lower"),
    ("parabolic.a_par.us_per_call", "us", "lower"),
    ("parabolic.bound_at_time.us_per_call", "us", "lower"),
    ("specialfn.min_product_power.calls_per_op", "count", "lower"),
    ("specialfn.min_product_power.us_per_call", "us", "lower"),
    ("exponents.validate.calls_per_op", "count", "lower"),
    ("exponents.validate.us_per_call", "us", "lower"),
    ("feasible.sample_sigma.ms_per_call", "ms", "lower"),
    ("feasible.sample_sigma.accept_ratio", "ratio", "higher"),
    ("feasible.in_sigma.calls_per_op", "count", "lower"),
    ("feasible.in_sigma.us_per_call", "us", "lower"),
    ("feasible.candidate_box.calls_per_op", "count", "lower"),
    ("feasible.feasibility_margins.calls_per_op", "count", "lower"),
    ("optimizer.minimize.self_s_per_op", "s", "lower"),
    ("optimizer.evals_per_op", "count", "lower"),
    ("optimizer.useful_eval_ratio", "ratio", "higher"),
    ("optimizer.certificate_json.us_per_call", "us", "lower"),
    ("optimizer.certificate_from_dict.us_per_call", "us", "lower"),
    *(
        item
        for cls in FHN_CLASSES
        for item in (
            (f"oracle.fhn.{cls}.calls_per_op", "count", "lower"),
            (f"oracle.fhn.{cls}.ms_p50", "ms", "lower"),
        )
    ),
    ("oracle.fhn.calls_per_distinct_b", "count", "higher"),
    ("oracle.fhn.sup_time_share", "ratio", "lower"),
    ("oracle.gns_ratio.ms_per_call", "ms", "lower"),
    ("oracle.check_parabolic.self_s", "s", "lower"),
    ("oracle.check_gns.self_s", "s", "lower"),
    ("cli.main.self_s_per_call", "s", "lower"),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_frac_max", "ratio", "lower"),
)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced loop that attempted ``ops`` ops.

    Times per call are inclusive (they contain the call's child spans);
    ``self_s`` figures exclude them.  Figures of a layer the workload never
    calls read 0.  ``useful_eval_ratio`` counts objective evaluations that
    reached the closed form (four ``a_par`` calls each, less the sampled
    start points the optimizer scores) per simplex evaluation (one
    ``candidate_box`` call each from the optimizer).
    """
    totals: dict[str, Aggregate] = {}
    for span in tracer.spans:
        agg = totals.setdefault(span.name, Aggregate())
        agg.calls += 1
        agg.total_ns += span.duration
        agg.self_ns += span.self_ns
    for (_, _, name), part in tracer.aggregates.items():
        agg = totals.setdefault(name, Aggregate())
        agg.calls += part.calls
        agg.total_ns += part.total_ns
        agg.self_ns += part.self_ns
    empty = Aggregate()

    def calls(name: str) -> int:
        return totals.get(name, empty).calls

    def per_call(name: str, scale: float, self_only: bool = False) -> float:
        agg = totals.get(name, empty)
        if not agg.calls:
            return 0.0
        return (agg.self_ns if self_only else agg.total_ns) / agg.calls / scale

    def calls_under(name: str, parent: str) -> int:
        return sum(
            agg.calls
            for (_, parent_id, child), agg in tracer.aggregates.items()
            if child == name and names[parent_id] == parent
        )

    names = {span.id: span.name for span in tracer.spans}
    sampled = calls_under("feasible.in_sigma", "feasible.sample_sigma")
    returned = sum(
        span.attrs.get("returned", 0) for span in tracer.spans if span.name == "feasible.sample_sigma"
    )
    evals = calls_under("feasible.candidate_box", "optimizer.minimize")
    fhn = [span for span in tracer.spans if span.name == "oracle.fractional_heat_norm"]
    fhn_ns = sum(span.duration for span in fhn)
    distinct_b = {(span.command, span.attrs["cls"][:2], span.attrs["b"]) for span in fhn}

    out = {
        "parabolic.a_par.calls_per_op": calls("parabolic.a_par") / ops,
        "parabolic.a_par.us_per_call": per_call("parabolic.a_par", 1e3),
        "parabolic.bound_at_time.us_per_call": per_call("parabolic.bound_at_time", 1e3),
        "specialfn.min_product_power.calls_per_op": calls("specialfn.min_product_power") / ops,
        "specialfn.min_product_power.us_per_call": per_call("specialfn.min_product_power", 1e3),
        "exponents.validate.calls_per_op": calls("exponents.validate") / ops,
        "exponents.validate.us_per_call": per_call("exponents.validate", 1e3),
        "feasible.sample_sigma.ms_per_call": per_call("feasible.sample_sigma", 1e6),
        "feasible.sample_sigma.accept_ratio": returned / sampled if sampled else 0.0,
        "feasible.in_sigma.calls_per_op": calls("feasible.in_sigma") / ops,
        "feasible.in_sigma.us_per_call": per_call("feasible.in_sigma", 1e3),
        "feasible.candidate_box.calls_per_op": calls("feasible.candidate_box") / ops,
        "feasible.feasibility_margins.calls_per_op": calls("feasible.feasibility_margins") / ops,
        "optimizer.minimize.self_s_per_op": totals.get("optimizer.minimize", empty).self_ns / 1e9 / ops,
        "optimizer.evals_per_op": evals / ops,
        "optimizer.useful_eval_ratio": (
            (calls("parabolic.a_par") / 4.0 - returned) / evals if evals else 0.0
        ),
        "optimizer.certificate_json.us_per_call": per_call("optimizer.certificate_json", 1e3),
        "optimizer.certificate_from_dict.us_per_call": per_call("optimizer.certificate_from_dict", 1e3),
        "oracle.fhn.calls_per_distinct_b": len(fhn) / len(distinct_b) if distinct_b else 0.0,
        "oracle.fhn.sup_time_share": (
            sum(span.duration for span in fhn if ".sup_" in span.attrs["cls"]) / fhn_ns if fhn_ns else 0.0
        ),
        "oracle.gns_ratio.ms_per_call": per_call("oracle.gns_ratio", 1e6),
        "oracle.check_parabolic.self_s": per_call("oracle.check_parabolic", 1e9, self_only=True),
        "oracle.check_gns.self_s": per_call("oracle.check_gns", 1e9, self_only=True),
        "cli.main.self_s_per_call": per_call("cli.main", 1e9, self_only=True),
    }
    for cls in FHN_CLASSES:
        durations = [span.duration / 1e6 for span in fhn if span.attrs["cls"] == cls]
        out[f"oracle.fhn.{cls}.calls_per_op"] = len(durations) / ops
        out[f"oracle.fhn.{cls}.ms_p50"] = percentile(durations, 50) if durations else 0.0
    return out
