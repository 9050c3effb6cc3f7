import pytest

from ctred import benchmarks, statespace
from ctred.errors import NotStabilizingError


def test_spread_comparison_propagates_defects(monkeypatch):
    def broken(g, k):
        raise ZeroDivisionError("defect")

    monkeypatch.setattr(benchmarks, "lqg_cost", broken)
    with pytest.raises(ZeroDivisionError):
        benchmarks.run_spread_comparison(trials=2)


def test_spread_comparison_counts_refusals(monkeypatch):
    calls = []
    cost = benchmarks.lqg_cost

    def refuse_first(g, k):
        calls.append(k)
        if len(calls) == 1:
            raise NotStabilizingError("refused")
        return cost(g, k)

    monkeypatch.setattr(benchmarks, "lqg_cost", refuse_first)
    rep = benchmarks.run_spread_comparison(trials=2)
    assert rep["skipped"] == 1
    assert rep["trials"] == 2


def test_scaling_sweep_tests_each_loop_once(monkeypatch):
    # lqg_cost decides stability; the sweep does not test it again.  Every
    # internal-stability test of a loop (is_internally_stable, and the one
    # lqg_cost makes on its four-block map) goes through _loop_stability
    calls = []
    stable = statespace._loop_stability

    def counted(acl, ev=None):
        calls.append(acl)
        return stable(acl, ev)

    monkeypatch.setattr(statespace, "_loop_stability", counted)
    benchmarks.run_scaling_sweep()
    assert len(calls) == 31  # the core loop and 30 sweep points


def test_unstable_truncation_maps_refusal_to_infinite_cost(monkeypatch):
    cost = benchmarks.lqg_cost

    def refuse_reduced(g, k):
        if k.n < 3:
            raise NotStabilizingError("refused")
        return cost(g, k)

    monkeypatch.setattr(benchmarks, "lqg_cost", refuse_reduced)
    rep = benchmarks.run_unstable_truncation()
    assert rep["costs"]["reduced"] == float("inf")
    assert rep["reference_checks"]["cost_below_bound"]["pass"] is False
