import pytest

from ctred import benchmarks
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
