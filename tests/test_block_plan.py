"""The per-layout block plan behind every period answer: bit for bit the
earlier expressions (tests/oracles.py), built once per layout, read-only."""

import json
import warnings

import numpy as np
import pytest

import ccpt.matrices as matrices
import ccpt.numtheory as numtheory
import ccpt.period as period
from ccpt.matrices import FAMILIES, OCCPT, column_layout
from ccpt.numtheory import divisors, totient
from ccpt.period import (FAREY, build_dictionary, candidate_matrix_solve, dictionary_solve,
                         frequency_components, period_strengths)
from ccpt.signals import make_x1
from ccpt.transform import analyze

from oracles import (components_by_where, dictionary_significant_by_generators,
                     period_report_by_generators, strengths_by_comprehension)

SIZES = [1, 2, 3, 4, 12, 54, 55, 625, 1000, 2310, 4096]
THRESHOLDS = [0.2, 0.05, 1.0]


def _signals(N):
    rng = np.random.default_rng(N)
    x = rng.standard_normal(N)
    return {"real": x, "complex": x + 1j * rng.standard_normal(N), "zero": np.zeros(N)}


def _report(c, threshold, normalized):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return (period_strengths(c, threshold=threshold, normalized=normalized),
                period_report_by_generators(c, threshold, normalized))


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("family", FAMILIES)
def test_period_strengths_are_the_earlier_expressions(family, N):
    """Strengths (values and dict order), significant set and estimate for
    real, complex and all-zero input, both normalizations and three
    thresholds."""
    for kind, x in _signals(N).items():
        c = analyze(x, family)
        for normalized in (False, True):
            for threshold in THRESHOLDS:
                got, (strengths, significant, estimate) = _report(c, threshold, normalized)
                assert list(got.strengths.items()) == list(strengths.items()), kind
                assert got.significant == significant and got.estimated_period == estimate
                assert all(type(p) is int for p in (*got.strengths, *got.significant))


def test_all_zero_report_still_warns():
    c = analyze(np.zeros(12), OCCPT)
    for normalized in (False, True):
        with pytest.warns(UserWarning, match="all-zero coefficient set"):
            report = period_strengths(c, normalized=normalized)
        assert report.significant == () and report.estimated_period == 1


@pytest.mark.parametrize("N", SIZES)
def test_frequency_components_are_the_earlier_expressions(N):
    layout = column_layout(OCCPT, N)
    for x in (_signals(N)["real"], np.zeros(N), np.ones(N), (-1.0) ** np.arange(N)):
        c = analyze(x, OCCPT)
        for fs in (None, 360.0):
            for floor in (0.0, 1e-8, 0.05):
                want = components_by_where(layout, c.column_values(), fs, floor)
                assert frequency_components(c, fs=fs, min_magnitude=floor) == want


# (dictionary family, N, p_max): five families, farey 24/10, and the
# rank-deficient ccpt1 60/7, which takes the least-squares branch
DICTIONARIES = [(f, N, p) for f in (OCCPT, "rpt", "ccpt1", "ccpt2", FAREY)
                for N, p in ((12, 5), (54, 50))] + [(FAREY, 24, 10), ("ccpt1", 60, 7)]


@pytest.mark.parametrize("family, N, p_max", DICTIONARIES)
def test_dictionary_answers_are_the_earlier_expressions(family, N, p_max):
    d = build_dictionary(N, p_max, family)
    rng = np.random.default_rng(N + p_max)
    x = rng.standard_normal(N)
    x1 = np.resize(make_x1().samples, N)
    for signal in (x, x + 1j * rng.standard_normal(N), np.zeros(N), x1):
        sol = dictionary_solve(signal, d)
        want = strengths_by_comprehension(d.periods, sol.b_hat, range(1, p_max + 1))
        assert list(sol.strengths.items()) == list(want.items())
        assert sol.significant_periods() == dictionary_significant_by_generators(want)
        sig = sol.significant_periods()
        assert sol.estimated_period() == (numtheory.lcm_list(sig) if sig else 1)
        if family == OCCPT and not np.iscomplexobj(signal):
            assert sol.components() == components_by_where(d.layout, sol.b_hat)
    if (family, N, p_max) == ("ccpt1", 60, 7):
        assert sol.used_fallback


@pytest.mark.parametrize("family", [*FAMILIES, FAREY])
@pytest.mark.parametrize("cand", [(5, 8), (3, 4), (7, 9)])
def test_candidate_strengths_are_the_earlier_expressions(family, cand):
    periods = tuple(sorted({q for p in cand for q in divisors(p)}))
    d = period._candidate_dictionary(cand, family, sum(map(totient, periods)))
    rng = np.random.default_rng(sum(cand))
    x = rng.standard_normal(d.N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        report = candidate_matrix_solve(x, cand, family=family)
    b = period._coefficients(x, d.gram(), d)
    want = strengths_by_comprehension(d.periods, b, periods)
    assert list(report.strengths.items()) == list(want.items())
    assert report.candidate_strengths == {p: want[p] for p in cand}
    assert report.basis_periods == periods == d.layout.blocks


def test_second_report_recomputes_no_divisors_or_totients(monkeypatch):
    """The block periods and widths come from the layout's cached plan, so a
    report on a layout already built calls neither divisors nor totient."""
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    originals = {name: getattr(numtheory, name) for name in ("divisors", "totient")}
    for family in FAMILIES:
        c = analyze(np.random.default_rng(1).standard_normal(360), family)
        period_strengths(c)
        for module in (numtheory, matrices, period):
            for name, fn in originals.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(fn))
        for normalized in (False, True):
            period_strengths(c, normalized=normalized)
        monkeypatch.undo()
        assert calls == [], family


@pytest.mark.parametrize("family", FAMILIES)
def test_block_plan_is_read_only(family):
    layout = column_layout(family, 60)
    blocks, index, widths = layout._block_plan
    assert blocks == tuple(divisors(60)) and widths == tuple(map(totient, divisors(60)))
    assert all(type(v) is int for v in blocks + widths)
    assert np.array_equal(np.asarray(blocks)[index], layout.periods)
    arrays = [index]
    if family == OCCPT:
        arrays += layout._pair_positions[:5]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    assert layout._block_plan[1] is index


@pytest.mark.parametrize("penalty", ["p2", "phi"])
@pytest.mark.parametrize("family, N, p_max", DICTIONARIES)
def test_dictionary_json_is_the_earlier_fields(family, N, p_max, penalty):
    """to_dict() spells, key for key and bit for bit, the values a solution
    used to store: strengths, condition and branch from the factor, N and
    p_max from the build arguments."""
    d = build_dictionary(N, p_max, family, penalty=penalty)
    f = d.gram()
    x = np.random.default_rng(N + p_max).standard_normal(N)
    for signal in (x, np.zeros(N), np.resize(make_x1().samples, N)):
        sol = dictionary_solve(signal, d)
        want = strengths_by_comprehension(d.periods, sol.b_hat, range(1, p_max + 1))
        sig = dictionary_significant_by_generators(want)
        expected = {
            "N": N, "p_max": p_max, "family": family, "penalty": penalty,
            "strengths": {str(p): s for p, s in want.items()},
            "significant": list(sig),
            "estimated_period": numtheory.lcm_list(sig) if sig else 1,
            "residual": float(np.linalg.norm(d.entries @ sol.b_hat - signal)),
            "gram_condition": (float(f"{f.condition:.3g}") if np.isfinite(f.condition)
                               else None),
            "used_fallback": f.pinv is not None,
        }
        assert json.dumps(sol.to_dict()) == json.dumps(expected)


@pytest.mark.parametrize("family", [*FAMILIES, FAREY])
@pytest.mark.parametrize("cand", [(5, 8), (3, 4), (7, 9)])
def test_candidate_json_is_the_earlier_fields(family, cand):
    periods = tuple(sorted({q for p in cand for q in divisors(p)}))
    d = period._candidate_dictionary(cand, family, sum(map(totient, periods)))
    x = np.random.default_rng(sum(cand)).standard_normal(d.N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        report = candidate_matrix_solve(x, cand, family=family)
    f = d.gram()
    want = strengths_by_comprehension(d.periods, period._coefficients(x, f, d), periods)
    assert json.dumps(report.to_dict()) == json.dumps({
        "candidates": list(cand), "basis_periods": list(periods), "width": d.N,
        "rank": f.rank, "full_rank": f.pinv is None,
        "strengths": {str(p): s for p, s in want.items()},
        "candidate_strengths": {str(p): want[p] for p in cand},
    })


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("family", FAMILIES)
def test_period_json_is_the_earlier_fields(family, N):
    for x in _signals(N).values():
        c = analyze(x, family)
        for normalized in (False, True):
            got, (strengths, significant, estimate) = _report(c, 0.2, normalized)
            assert json.dumps(got.to_dict()) == json.dumps({
                "N": N, "family": family, "threshold": 0.2, "normalized": normalized,
                "strengths": {str(p): s for p, s in strengths.items()},
                "significant": list(significant), "estimated_period": estimate,
            })
