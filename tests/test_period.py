import warnings

import numpy as np
import pytest

import ccpt.period as period
from ccpt.ccps import COS, SIN, ccps1, ccps2
from ccpt.matrices import CCPT1, CCPT2, DFT_NPM, FAMILIES, OCCPT, RPT, SubspaceIndex
from ccpt.numtheory import divisors, totient
from ccpt.period import (FAREY, FrequencyComponent, build_dictionary,
                         candidate_matrix_solve, dictionary_solve,
                         frequency_components, min_data_length,
                         period_strengths)
from ccpt.signals import make_x1, make_x2, tone, x1_clean
from ccpt.transform import analyze, occpt_analysis

from oracles import block_addresses, column, component_loop, tile_to


def test_single_subspace_signal():
    x = tile_to(ccps1(9, 1, 9), 54)
    report = period_strengths(occpt_analysis(x))
    assert report.significant == (9,)
    assert report.estimated_period == 9


def test_zero_signal_reports_period_one():
    with pytest.warns(UserWarning):
        report = period_strengths(occpt_analysis(np.zeros(18)))
    assert report.significant == ()
    assert report.estimated_period == 1


def test_x1_fixture_significant_set():
    report = period_strengths(occpt_analysis(make_x1().samples))
    assert report.significant == (3, 9, 18)
    assert report.estimated_period == 18


def test_strength_additivity_between_subspaces():
    xa = tile_to(ccps1(9, 2, 9), 54) - 0.5 * tile_to(ccps2(9, 4, 9), 54)
    xb = 2.0 * tile_to(ccps2(6, 1, 6), 54)
    report = period_strengths(occpt_analysis(xa + xb))
    on = {9, 6}
    for p, s in report.strengths.items():
        if p not in on:
            assert s <= 1e-12, p
        else:
            assert s > 0.1


def test_normalized_strengths():
    x = make_x1().samples
    raw = period_strengths(occpt_analysis(x))
    norm = period_strengths(occpt_analysis(x), normalized=True)
    for p in raw.strengths:
        assert norm.strengths[p] == pytest.approx(raw.strengths[p] / totient(p))


def test_strengths_for_nonorthogonal_families():
    # the non-orthogonal solves weight subspaces differently (and are the
    # noise-sensitive ones), so only the dominant period is portable
    x = make_x1().samples
    for family in (CCPT1, CCPT2, RPT):
        report = period_strengths(analyze(x, family))
        assert set(report.strengths) == {1, 2, 3, 6, 9, 18, 27, 54}
        assert all(s >= 0.0 for s in report.strengths.values())
        assert 9 in report.significant


def test_threshold_validation():
    c = occpt_analysis(np.ones(6))
    with pytest.raises(ValueError):
        period_strengths(c, threshold=0.0)


def test_frequency_components_tone():
    x = tone(0.6, 100.0, 360.0, 54, np.pi / 3)
    comps = frequency_components(occpt_analysis(x), fs=360.0, min_magnitude=1e-6)
    assert len(comps) == 1
    comp = comps[0]
    assert (comp.p, comp.k) == (18, 5)
    assert comp.freq_hz == pytest.approx(100.0)
    assert comp.magnitude == pytest.approx(0.6, rel=1e-9)
    assert comp.phase == pytest.approx(np.pi / 3, abs=1e-9)


def test_frequency_components_sine():
    x = np.sin(2 * np.pi * np.arange(8) / 8)
    comps = frequency_components(occpt_analysis(x), min_magnitude=1e-6)
    assert len(comps) == 1
    comp = comps[0]
    assert (comp.p, comp.k) == (8, 1)
    assert comp.magnitude == pytest.approx(1.0, abs=1e-9)
    assert comp.phase == pytest.approx(-np.pi / 2, abs=1e-9)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 12, 54, 625, 1024, 4096, 5000])
def test_frequency_components_match_loop(N):
    """Every field equals the one-subspace-at-a-time formulas exactly, for a
    noise record (the 0.05 floor drops some subspaces) and a two-line record
    (the 1e-8 floor drops the rounding-level ones)."""
    rng = np.random.default_rng(N)
    n = np.arange(N)
    for x in (rng.standard_normal(N), 0.7 + np.cos(2 * np.pi * 3 * n / N + 1.0)):
        c = occpt_analysis(x)
        for fs in (None, 360.0):
            for floor in (1e-8, 0.05):
                comps = frequency_components(c, fs=fs, min_magnitude=floor)
                assert comps == component_loop(c.pair, divisors(N), fs, floor), (N, fs, floor)
                assert all(type(comp) is FrequencyComponent for comp in comps)
                assert all(type(comp.magnitude) is float for comp in comps)


def test_frequency_component_is_a_read_only_record():
    comp = frequency_components(occpt_analysis(tone(0.6, 100.0, 360.0, 54, np.pi / 3)),
                                fs=360.0, min_magnitude=1e-6)[0]
    with pytest.raises(AttributeError):
        comp.p = 3
    assert list(comp.to_dict()) == ["p", "k", "freq", "freq_hz", "magnitude", "phase"]
    assert comp.to_dict() == dict(zip(FrequencyComponent._fields, comp))
    assert comp == (18, 5, comp.freq, comp.freq_hz, comp.magnitude, comp.phase)


def test_frequency_components_constant():
    comps = frequency_components(occpt_analysis(np.ones(12) * 2.5), min_magnitude=1e-6)
    assert len(comps) == 1
    assert comps[0].p == 1 and comps[0].freq == 0.0
    assert comps[0].magnitude == pytest.approx(2.5)


def test_dictionary_sizes():
    d = build_dictionary(54, 50, family=OCCPT)
    assert d.n_columns == sum(totient(i) for i in range(1, 51)) == 774
    assert d.entries.shape == (54, 774)
    single = build_dictionary(10, 1, family=OCCPT)
    np.testing.assert_allclose(single.entries, np.ones((10, 1)))
    # column of period 8 stays 8-periodic inside length 54
    j = d.columns.index(next(c for c in d.columns if c.p == 8 and c.kind == COS and c.k == 1))
    col = d.entries[:, j]
    np.testing.assert_allclose(col, tile_to(col[:8], 54), atol=1e-12)


def test_dictionary_pmax_warning():
    with pytest.warns(UserWarning):
        build_dictionary(8, 9, family=OCCPT)


def test_dictionary_solve_consistency():
    d = build_dictionary(54, 50, family=OCCPT)
    x = make_x2().samples
    sol = dictionary_solve(x, d)
    assert sol.residual <= 1e-8 * np.linalg.norm(x)
    assert not sol.used_fallback
    assert sol.gram_condition < 1e12


def test_dictionary_solve_single_column_signal():
    d = build_dictionary(54, 50, family=OCCPT)
    j = d.columns.index(next(c for c in d.columns if c.p == 5 and c.k == 1 and c.kind == COS))
    x = d.entries[:, j]
    sol = dictionary_solve(x, d)
    assert sol.residual <= 1e-8
    assert np.argmax(np.abs(sol.b_hat)) == j
    # penalty favors small periods: no harmonic alias above p=5 dominates
    assert max(sol.strengths, key=sol.strengths.get) == 5
    for p, s in sol.strengths.items():
        if p > 5:
            assert s < 0.05 * sol.strengths[5]


def test_dictionary_x2_reproduction():
    x = make_x2().samples
    d = build_dictionary(54, 50, family=OCCPT, penalty="p2")
    sol = dictionary_solve(x, d)
    assert sol.top_periods(2) == (5, 8)
    assert sol.estimated_period() == 40
    b0, b1 = sol.pair(8, 1)
    assert b0 == pytest.approx(0.0927, abs=0.02)
    assert b1 == pytest.approx(-0.0905, abs=0.02)
    phase = float(np.arctan2(-b1, b0))
    assert phase == pytest.approx(np.pi / 4, abs=0.1)
    comps = sol.components(fs=360.0, min_magnitude=0.05)
    assert any(c.p == 8 and c.k == 1 and abs(c.freq_hz - 45.0) < 1e-9 for c in comps)


def test_dictionary_components_match_loop():
    sol = dictionary_solve(make_x2().samples, build_dictionary(54, 50, family=OCCPT))
    for fs in (None, 360.0):
        for floor in (1e-8, 0.05):
            assert sol.components(fs, floor) == component_loop(sol.pair, range(1, 51), fs, floor)


def test_dictionary_pair_is_the_column_lookup():
    d = build_dictionary(54, 50, family=OCCPT)
    sol = dictionary_solve(make_x2().samples, d)
    for c in d.columns:
        if c.kind != COS:
            continue
        b0, b1 = sol.pair(c.p, c.k)
        assert b0 == sol.b_hat[d.columns.index(c)]
        if c.p <= 2:
            assert b1 == 0.0 and type(b1) is float
        else:
            assert b1 == sol.b_hat[d.columns.index(SubspaceIndex(c.p, c.k, SIN))]
    for p, k in ((51, 1), (8, 2), (0, 1)):
        with pytest.raises(ValueError, match="no subspace"):
            sol.pair(p, k)


def test_dictionary_families_build():
    for family in (CCPT1, CCPT2, RPT, FAREY):
        d = build_dictionary(24, 10, family=family)
        assert d.n_columns == sum(totient(i) for i in range(1, 11))
        sol = dictionary_solve(np.random.default_rng(0).standard_normal(24), d)
        assert sol.residual <= 1e-6


def test_penalty_phi():
    d = build_dictionary(24, 6, family=OCCPT, penalty="phi")
    assert d.penalty_name == "phi"
    expected = [float(totient(c.p)) for c in d.columns]
    np.testing.assert_array_equal(d.penalties, expected)


def test_min_data_length_examples():
    assert min_data_length([6, 8]) == 12
    assert min_data_length([3, 3]) == 3
    assert min_data_length([5, 7, 9]) == 15


def test_min_data_length_properties():
    assert min_data_length([8, 6]) == min_data_length([6, 8])
    assert min_data_length([5, 7, 9, 9, 5]) == min_data_length([5, 7, 9])
    with pytest.raises(ValueError):
        min_data_length([6])


def test_candidate_matrix_structure():
    x = tile_to(ccps1(8, 1, 8), 12)
    report = candidate_matrix_solve(x, [6, 8])
    assert report.basis_periods == (1, 2, 3, 4, 6, 8)
    assert report.width == 12
    assert report.full_rank and report.rank == 12
    assert max(report.candidate_strengths, key=report.candidate_strengths.get) == 8


def test_candidate_matrix_all_ccps_families_full_rank():
    x = np.random.default_rng(1).standard_normal(12)
    for family in (OCCPT, CCPT1, CCPT2):
        report = candidate_matrix_solve(x, [6, 8], family=family)
        assert report.rank == 12 and report.full_rank


def test_candidate_matrix_rejects_nonsquare_sets():
    with pytest.raises(ValueError):
        candidate_matrix_solve(np.zeros(15), [5, 7, 9])
    with pytest.raises(ValueError):
        candidate_matrix_solve(np.zeros(11), [6, 8])


def test_candidate_matrix_identifies_planted_period():
    rng = np.random.default_rng(2)
    for _ in range(20):
        weights = rng.standard_normal(4)
        block = np.column_stack([
            tile_to(ccps1(8, 1, 8), 12), tile_to(ccps2(8, 1, 8), 12),
            tile_to(ccps1(8, 3, 8), 12), tile_to(ccps2(8, 3, 8), 12)])
        x = block @ weights
        report = candidate_matrix_solve(x, [6, 8])
        assert max(report.candidate_strengths, key=report.candidate_strengths.get) == 8


@pytest.mark.parametrize("bad", [
    np.where(np.arange(12) == 4, np.nan, 1.0),
    np.where(np.arange(12) == 4, np.inf, 1.0),
    np.ones((12, 1)),
    np.ones((3, 4)),
    np.array([]),
], ids=["nan", "inf", "12x1", "3x4", "empty"])
def test_candidate_matrix_rejects_bad_input(bad):
    with pytest.raises(ValueError, match="candidate_matrix_solve"):
        candidate_matrix_solve(bad, [5, 8])


def _definition_strengths(family, cand, x):
    """Per-period strengths of the square solve against a basis written
    column by column from the defining sums."""
    fam = FAREY if family == DFT_NPM else family
    addresses = [(q, a) for q in sorted({d for p in cand for d in divisors(p)})
                 for a in block_addresses(fam, q)]
    H = np.column_stack([column(kind, q, k, shift, len(x)) for q, (kind, k, shift) in addresses])
    z = np.linalg.solve(H, x)
    out = {}
    for (q, _), v in zip(addresses, z):
        out[q] = out.get(q, 0.0) + abs(v) ** 2
    return out


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("cand", [(6, 8), (5, 8), (3, 4), (7,)])
def test_candidate_strengths_match_definition(family, cand):
    rng = np.random.default_rng(sum(cand))
    width = sum(totient(d) for d in {d for p in cand for d in divisors(p)})
    for _ in range(3):
        x = rng.standard_normal(width)
        got = candidate_matrix_solve(x, cand, family=family)
        want = _definition_strengths(family, cand, x)
        assert got.full_rank and got.rank == width
        assert got.strengths.keys() == want.keys()
        for q, s in want.items():
            assert got.strengths[q] == pytest.approx(s, rel=1e-10, abs=1e-10 * max(want.values()))


def test_candidate_basis_is_built_once(monkeypatch):
    calls = []
    real_block = period.subspace_block

    def counting_block(*args, **kwargs):
        calls.append(args)
        return real_block(*args, **kwargs)

    monkeypatch.setattr(period, "subspace_block", counting_block)
    period._candidate_basis.cache_clear()
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="square system"):
        candidate_matrix_solve(np.zeros(11), [5, 8])
    assert calls == []
    reports = [candidate_matrix_solve(rng.standard_normal(12), [8, 5, 8]) for _ in range(4)]
    assert [p for _, p, _ in calls] == [1, 2, 4, 5, 8]
    info = period._candidate_basis.cache_info()
    assert (info.misses, info.hits) == (2, 3)
    assert all(r.basis_periods == (1, 2, 4, 5, 8) and r.full_rank for r in reports)


def test_candidate_basis_is_read_only():
    basis = period._candidate_basis((5, 8), OCCPT, 12)
    for a in (basis.H, basis.lu[0]):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def test_rank_deficient_candidate_basis_warns_every_call(monkeypatch):
    x = np.random.default_rng(6).standard_normal(6)
    want = candidate_matrix_solve(x, [3, 4], family=CCPT2).strengths
    monkeypatch.setattr(period, "matrix_rank", lambda a: a.shape[1] - 1)
    period._candidate_basis.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = [candidate_matrix_solve(x, [3, 4], family=CCPT2) for _ in range(2)]
    finally:
        period._candidate_basis.cache_clear()
    assert [str(w.message) for w in caught] == [
        "candidate basis for (3, 4) is rank deficient (5/6); falling back to least squares"] * 2
    for r in reports:
        assert not r.full_rank and r.rank == 5
        # the basis really has full rank, so least squares solves it exactly
        for q, s in want.items():
            assert r.strengths[q] == pytest.approx(s, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("branch", ["lu", "least-squares"])
@pytest.mark.parametrize("family", [OCCPT, RPT, CCPT1, CCPT2])
def test_candidate_solve_of_complex_signal_against_real_basis(monkeypatch, family, branch):
    """A real basis solves the real and imaginary parts, so the strengths of
    x + 1j*y are those of x plus those of y, on either solve branch."""
    if branch == "least-squares":
        monkeypatch.setattr(period, "matrix_rank", lambda a: a.shape[1] - 1)
    period._candidate_basis.cache_clear()
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal(12), np.cos(np.arange(12)) + 0.1 * rng.standard_normal(12)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            got = candidate_matrix_solve(x + 1j * y, (5, 8), family=family)
            sx = candidate_matrix_solve(x, (5, 8), family=family).strengths
            sy = candidate_matrix_solve(y, (5, 8), family=family).strengths
    finally:
        period._candidate_basis.cache_clear()
    assert got.full_rank == (branch == "lu")
    for q in got.strengths:
        assert got.strengths[q] == pytest.approx(sx[q] + sy[q], rel=1e-12)
