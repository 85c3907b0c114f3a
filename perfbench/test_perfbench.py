"""Self-tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_times_of_nested_spans_add_up():
    # root [0, 100] > full A [10, 40] > aggregated leaf [20, 30]
    #               > aggregated B [50, 70] > aggregated leaf [55, 60]
    tracer = tracing.Tracer(clock=fake_clock([0, 10, 20, 30, 40, 50, 55, 60, 70, 100]))
    tracer.begin_command(7)
    tracer.open("A")
    tracer.open("leaf", aggregate=True)
    tracer.close()
    tracer.close()
    tracer.open("B", aggregate=True)
    tracer.open("leaf", aggregate=True)
    tracer.close()
    tracer.close()
    root = tracer.end_command()

    spans = {span.name: span for span in tracer.spans}
    assert root is spans["cli.main"] and root.parent is None and root.command == 7
    assert (root.duration, root.self_ns) == (100, 100 - 30 - 20)
    assert (spans["A"].duration, spans["A"].self_ns, spans["A"].parent) == (30, 20, root.id)
    aggs = {(parent, name): agg for (_, parent, name), agg in tracer.aggregates.items()}
    assert aggs[(spans["A"].id, "leaf")].__dict__ == {"calls": 1, "total_ns": 10, "self_ns": 10}
    assert aggs[(root.id, "B")].__dict__ == {"calls": 1, "total_ns": 20, "self_ns": 15}
    assert aggs[(root.id, "leaf")].__dict__ == {"calls": 1, "total_ns": 5, "self_ns": 5}
    assert tracer.self_time_by_command() == {7: 100}


def test_wrapped_function_records_only_inside_a_command():
    tracer = tracing.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5]))
    double = tracer.wrap("double", lambda x: 2 * x, result_attrs=lambda r: {"out": r})
    assert double(1) == 2 and not tracer.spans
    tracer.begin_command(1)
    assert double(2) == 4
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("boom", lambda: 1 / 0)()
    tracer.end_command()
    assert [(s.name, s.attrs) for s in tracer.spans] == [
        ("double", {"out": 4}), ("boom", {}), ("cli.main", {})
    ]
    assert tracer.self_time_by_command() == {1: tracer.spans[-1].duration}


@pytest.mark.parametrize("values", [[3.0], [1.0, 2.0], [5.0, 1.0, 4.0, 2.0, 3.0], [0.1 * i for i in range(17)]])
def test_percentile_matches_statistics(values):
    assert tracing.percentile(values, 50) == pytest.approx(statistics.median(values))
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        assert tracing.percentile(values, 25) == pytest.approx(q1)
        assert tracing.percentile(values, 75) == pytest.approx(q3)
    assert tracing.percentile(values, 0) == min(values)
    assert tracing.percentile(values, 100) == max(values)


@pytest.mark.parametrize(
    "d, s, recip, expected",
    [
        (1, 0.0, 0.0, "d1.sup_even"),
        (2, 2.0, 0.5, "d2.lp_even"),
        (3, 1.0, 0.25, "d3.lp_frac"),
        (1, 0.5, 0.0, "d1.sup_frac"),
        (2, -0.25, 1.0, "d2.lp_frac"),
        (3, 3.5, 0.0, "d3.sup_frac"),
        (3, 4.0, 0.0, "d3.sup_even"),
    ],
)
def test_fhn_bucketing(d, s, recip, expected):
    f = SimpleNamespace(d=d, width=0.5)
    bucket = tracing.fhn_class(f, s, 1.0, SimpleNamespace(recip=recip))
    assert bucket == {"cls": expected, "b": 1.5}
    assert expected in tracing.FHN_CLASSES


def test_metric_lists_match_benchmark_json():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(item) for item in tracing.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_install_rebinds_every_lookup_and_restores():
    sys.path.insert(0, str(run.SRC))
    import gnsbound.cli
    import gnsbound.feasible
    import gnsbound.optimizer

    original = gnsbound.feasible.in_sigma
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert gnsbound.optimizer.in_sigma is gnsbound.feasible.in_sigma is not original
        assert gnsbound.optimizer.a_par.__wrapped__ is gnsbound.parabolic.a_par.__wrapped__
        assert gnsbound.cli.minimize.__wrapped__ is not None
    finally:
        restore()
    assert gnsbound.optimizer.in_sigma is gnsbound.feasible.in_sigma is original
