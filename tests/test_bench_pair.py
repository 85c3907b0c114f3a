"""``summarize`` of tools/bench_pair.py on a synthetic two-pair document."""

import importlib.util
import os

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pair.py")


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(exit_code, failed, metrics, fingerprints=("fingerprint a sha256=0",)):
    return {"seed": 1, "exit": exit_code, "wall_s": 1.0, "attempted": 10, "failed": failed,
            "metrics": metrics, "fingerprints": list(fingerprints), "problems": []}


BETTER = {"call_p50_s": "lower", "ops_per_s": "higher", "setup_s": "lower"}

DOC = {
    "pairs": {
        "certify/trace0": [
            {
                "first": "parent",
                "parent": _run(0, 0, {"call_p50_s": 1.0, "ops_per_s": 10.0, "setup_s": 1.0,
                                      "untracked": 5.0}),
                "change": _run(0, 0, {"call_p50_s": 0.5, "ops_per_s": 12.0, "setup_s": 0.9,
                                      "untracked": 4.0}),
            },
            {
                "first": "change",
                "parent": _run(0, 1, {"call_p50_s": 1.0, "ops_per_s": 10.0, "setup_s": 3.0,
                                      "untracked": 5.0}),
                "change": _run(3, 2, {"call_p50_s": 1.0, "ops_per_s": 10.0, "setup_s": 2.9,
                                      "untracked": 4.0},
                               fingerprints=("fingerprint a sha256=1",)),
            },
        ],
        "sweep/trace1": [
            {
                "first": "parent",
                "parent": _run(0, 0, {"call_p50_s": 2.0}),
                "change": _run(0, 0, {"call_p50_s": 2.0}),
            },
        ],
    },
    "fresh_bound_s": {"parent": [], "change": []},
}


def test_ties_count_for_neither_side(bench_pair):
    summary = bench_pair.summarize(DOC, BETTER)
    metrics = summary["certify/trace0"]["metrics"]
    # one win and one tie
    assert metrics["call_p50_s"]["change_wins"] == 1
    assert metrics["ops_per_s"]["change_wins"] == 1
    assert summary["sweep/trace1"]["metrics"]["call_p50_s"]["change_wins"] == 0


def test_median_gain_against_parent_iqr(bench_pair):
    metrics = bench_pair.summarize(DOC, BETTER)["certify/trace0"]["metrics"]
    # parent IQR 0: any median gain exceeds it, in either direction of "better"
    assert metrics["call_p50_s"]["change"]["median"] == 0.75
    assert metrics["call_p50_s"]["median_gain_exceeds_parent_iqr"] is True
    assert metrics["ops_per_s"]["median_gain_exceeds_parent_iqr"] is True
    # both pairs won, but the 0.1 s median gain lies inside the parent IQR of 1.0 s
    assert metrics["setup_s"]["change_wins"] == 2
    assert metrics["setup_s"]["parent"]["q3"] - metrics["setup_s"]["parent"]["q1"] == 1.0
    assert metrics["setup_s"]["median_gain_exceeds_parent_iqr"] is False
    # a metric without a direction gets quartiles only
    assert "change_wins" not in metrics["untracked"]
    assert metrics["untracked"]["pairs"] == 2


def test_exits_failures_and_fingerprints(bench_pair):
    summary = bench_pair.summarize(DOC, BETTER)
    certify = summary["certify/trace0"]
    assert certify["nonzero_exits"] == {"parent": 0, "change": 1}
    assert certify["failed_frac"] == {"parent": 0.05, "change": 0.1}
    assert certify["fingerprints_match"] is False
    assert summary["sweep/trace1"]["fingerprints_match"] is True
    assert "fresh_bound_s" not in summary


def test_fresh_bound_quartiles(bench_pair):
    doc = {"pairs": {}, "fresh_bound_s": {"parent": [0.5, 0.7, 0.6], "change": [0.3]}}
    summary = bench_pair.summarize(doc, BETTER)
    assert summary["fresh_bound_s"]["parent"]["median"] == 0.6
    assert summary["fresh_bound_s"]["change"] == {"q1": 0.3, "median": 0.3, "q3": 0.3}


def test_fresh_verify_quartiles(bench_pair):
    doc = {"pairs": {}, "fresh_bound_s": {"parent": [], "change": []},
           "fresh_verify_s": {"parent": [0.9, 0.8, 0.7, 1.0], "change": [0.75, 0.7, 0.8]}}
    summary = bench_pair.summarize(doc, BETTER)
    assert "fresh_bound_s" not in summary
    assert summary["fresh_verify_s"]["parent"] == pytest.approx(
        {"q1": 0.775, "median": 0.85, "q3": 0.925})
    assert summary["fresh_verify_s"]["change"]["median"] == 0.75
    # a document written before verify was timed summarizes without it
    del doc["fresh_verify_s"]
    assert "fresh_verify_s" not in bench_pair.summarize(doc, BETTER)


def _traced(exit_code, failed, problems, share):
    run = _run(exit_code, failed, {"trace.unattributed_frac_max": share})
    run["problems"] = problems
    return run


GATE = "FAILED command {}: self times leave 1.52e-03 of its wall time unaccounted for"


def test_trace_gate_exits_and_largest_unattributed_share(bench_pair):
    doc = {
        "pairs": {
            "sweep/trace1": [
                {
                    "first": "parent",
                    # every failure is the gate's, one of them negative
                    "parent": _traced(1, 2, [GATE.format(3), GATE.format(9).replace("1.52", "-1.52")],
                                      1.52e-3),
                    # a gate failure beside a wrong output
                    "change": _traced(1, 2, [GATE.format(4), "FAILED sweep d1: exit 3: boom"],
                                      2.2e-3),
                },
                {
                    "first": "change",
                    "parent": _traced(0, 0, [], 4e-4),
                    # more failures than printed lines: the rest cannot be told apart
                    "change": _traced(1, 2, [GATE.format(5)], 8.5e-3),
                },
                {
                    "first": "parent",
                    # a crash: no FAILED line, only the stderr tail
                    "parent": _traced(2, 0, ["Traceback (most recent call last): ..."], 5e-4),
                    "change": _traced(1, 1, [GATE.format(6),
                                             "stderr tail ending in a warning"], 6e-4),
                },
            ],
        },
        "fresh_bound_s": {"parent": [], "change": []},
    }
    sweep = bench_pair.summarize(doc, BETTER)["sweep/trace1"]
    assert sweep["nonzero_exits"] == {"parent": 2, "change": 3}
    assert sweep["trace_gate_only_exits"] == {"parent": 1, "change": 1}
    assert sweep["unattributed_frac_max"] == {"parent": 1.52e-3, "change": 8.5e-3}
    # untraced runs carry no share
    assert "unattributed_frac_max" not in bench_pair.summarize(DOC, BETTER)["certify/trace0"]
