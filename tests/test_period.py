import pickle
import warnings
from dataclasses import fields, replace
from types import MappingProxyType

import numpy as np
import pytest

import ccpt.period as period
from ccpt.ccps import COS, SIN, ccps1, ccps2
from ccpt.matrices import (CCPT1, CCPT2, DFT_NPM, FAMILIES, OCCPT, RPT, BlockCheck, ColumnLayout,
                           PeriodicBasisMatrix, SubspaceIndex, ValidationReport, build_matrix,
                           validate_npm)
from ccpt.numtheory import ResidueSets, divisors, residue_sets, totient
from ccpt.period import (FAREY, FrequencyComponent, GramFactor, build_dictionary,
                         candidate_matrix_solve, dictionary_solve,
                         frequency_components, min_data_length,
                         period_strengths)
from ccpt.signals import Signal, make_x1, make_x2, tone, x1_clean
from ccpt.transform import CoefficientSet, analyze, occpt_analysis

from oracles import block_addresses, column, component_loop, period_square_sums, tile_to

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # NumPy < 1.25
    from numpy import ComplexWarning


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


@pytest.mark.parametrize("N", [1, 2, 12, 54, 625, 2310, 4096])
@pytest.mark.parametrize("family", FAMILIES)
def test_strengths_are_square_sums_per_divisor(family, N):
    rng = np.random.default_rng(N)
    flat = rng.standard_normal(N)
    if family == DFT_NPM:
        flat = flat + 1j * rng.standard_normal(N)
    c = CoefficientSet(N=N, family=family, flat=flat)
    want = period_square_sums(c)
    for normalized in (False, True):
        got = period_strengths(c, normalized=normalized).strengths
        assert list(got) == list(want)
        for p, s in want.items():
            s = s / totient(p) if normalized else s
            assert got[p] == pytest.approx(s, rel=1e-12), p


def test_threshold_validation():
    c = occpt_analysis(np.ones(6))
    with pytest.raises(ValueError):
        period_strengths(c, threshold=0.0)


@pytest.mark.parametrize("threshold", ["0.2", None, np.nan, 0.0, 1.5],
                         ids=["str", "none", "nan", "0", "1.5"])
def test_threshold_follows_the_number_rule(threshold):
    """A string or None threshold used to raise TypeError."""
    c = occpt_analysis(np.ones(6))
    with pytest.raises(ValueError, match=r"^threshold must be finite and in \(0, 1\], got "):
        period_strengths(c, threshold=threshold)


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


@pytest.mark.parametrize("N", [0, -3, 12.0], ids=["0", "-3", "12.0"])
def test_dictionary_rejects_bad_length(N):
    with pytest.raises(ValueError, match=f"dictionary length N must be an integer >= 1, got {N}"):
        build_dictionary(N, 5)


@pytest.mark.parametrize("p_max", [0, -3, 2.5], ids=["0", "-3", "2.5"])
def test_dictionary_rejects_bad_p_max(p_max):
    with pytest.raises(ValueError, match=f"p_max must be an integer >= 1, got {p_max}"):
        build_dictionary(24, p_max)


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


def test_top_periods_rejects_negative_count():
    sol = dictionary_solve(make_x2().samples, build_dictionary(54, 12, family=OCCPT))
    assert sol.top_periods(0) == ()
    assert len(sol.top_periods(100)) == 11      # every period p >= 2
    with pytest.raises(ValueError, match="count must be an integer >= 0, got -1"):
        sol.top_periods(-1)


def test_dictionary_solve_rejects_a_signal_of_another_length():
    with pytest.raises(ValueError, match="signal length 11 does not match dictionary length 12"):
        dictionary_solve(np.ones(11), build_dictionary(12, 5))


def test_top_periods_names_only_periods_with_strength():
    """An all-zero signal has no strength anywhere: no top period, as no
    significant one. Used to return (2, 3)."""
    sol = dictionary_solve(np.zeros(12), build_dictionary(12, 5))
    assert set(sol.strengths.values()) == {0.0}
    assert sol.top_periods(2) == () and sol.significant_periods() == ()
    assert sol.estimated_period() == 1


def _equal_valued_pairs():
    x, d = np.arange(12.0), build_dictionary(12, 5)
    return {
        "DictionarySolution": (dictionary_solve(x, d), dictionary_solve(x, d)),
        "GramFactor": (d.gram(), replace(d).gram()),
        "CoefficientSet": (analyze(x, OCCPT), analyze(x, OCCPT)),
        "Signal": (Signal([1.0, 2.0]), Signal([1.0, 2.0])),
        "PeriodicBasisMatrix": (build_matrix(OCCPT, 6), build_matrix(OCCPT, 6)),
    }


@pytest.mark.parametrize("name", ["DictionarySolution", "GramFactor", "CoefficientSet", "Signal",
                                  "PeriodicBasisMatrix"])
def test_array_values_compare_by_identity(name):
    """These values hold arrays, so they compare and hash by identity; two
    equal-valued instances used to raise ValueError on == and TypeError on
    hash."""
    a, b = _equal_valued_pairs()[name]
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert not a == b and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


@pytest.mark.parametrize("floor", [np.nan, np.inf, -1.0, "0"], ids=["nan", "inf", "-1", "str"])
def test_components_reject_bad_magnitude_floor(floor):
    x = make_x2().samples
    sol = dictionary_solve(x, build_dictionary(54, 12, family=OCCPT))
    for components in (lambda: frequency_components(occpt_analysis(x), min_magnitude=floor),
                       lambda: sol.components(min_magnitude=floor)):
        with pytest.raises(ValueError, match="min_magnitude must be finite and >= 0"):
            components()
    assert len(frequency_components(occpt_analysis(x), min_magnitude=0.0)) == 28


@pytest.mark.parametrize("fs", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
def test_components_reject_bad_sample_rate(fs):
    x = make_x2().samples
    sol = dictionary_solve(x, build_dictionary(54, 12, family=OCCPT))
    for components in (lambda: frequency_components(occpt_analysis(x), fs=fs),
                       lambda: sol.components(fs=fs)):
        with pytest.raises(ValueError, match="sample rate fs must be finite and > 0"):
            components()


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
        with pytest.raises(KeyError, match="no column"):
            sol.pair(p, k)



@pytest.mark.parametrize("N", [12, 54, 60])
def test_square_dictionary_pairs_are_the_transform_pairs(N):
    """On the square occpt dictionary of N's divisors the solution is the
    orthogonal analysis, and both read their pairs through the layout."""
    x = np.random.default_rng(N).standard_normal(N)
    sol = dictionary_solve(x, period._dictionary(N, divisors(N), OCCPT, "p2"))
    c = analyze(x, OCCPT)
    tol = 1e-12 * np.max(np.abs(c.flat))
    for col in sol.dictionary.columns:
        if col.kind == COS:
            np.testing.assert_allclose(sol.pair(col.p, col.k), c.pair(col.p, col.k), rtol=0, atol=tol)
    got, want = sol.components(360.0, 0.0), frequency_components(c, 360.0, 0.0)
    assert [g[:4] for g in got] == [w[:4] for w in want]
    for g, w in zip(got, want):
        assert abs(g.magnitude * np.exp(1j * g.phase) - w.magnitude * np.exp(1j * w.phase)) <= tol


@pytest.mark.parametrize("family", [RPT, CCPT1, CCPT2, DFT_NPM])
def test_pair_entry_points_have_one_orthogonal_rule(family):
    """The ccpt1 dictionary's pair(3, 1) used to report no subspace (3, 1),
    and its components a second wording of the rule."""
    x = np.ones(12)
    c = analyze(x, family)
    sol = dictionary_solve(x, build_dictionary(12, 5, FAREY if family == DFT_NPM else family))
    for what, call in (("pair", lambda: c.pair(3, 1)),
                       ("frequency_components", lambda: frequency_components(c)),
                       ("pair", lambda: sol.pair(3, 1)),
                       ("components", lambda: sol.components())):
        with pytest.raises(ValueError, match=f"^{what} requires orthogonal-family coefficients$"):
            call()


def test_components_require_real_coefficients():
    """A complex signal's dictionary components used to keep only the real
    part of the solution."""
    x = make_x2().samples * (1 + 0.5j)
    sol = dictionary_solve(x, build_dictionary(54, 50, family=OCCPT))
    for what, call in (("frequency_components", lambda: frequency_components(occpt_analysis(x))),
                       ("components", lambda: sol.components())):
        with pytest.raises(ValueError, match=f"^{what} requires real coefficients$"):
            call()


def test_gram_condition_json_is_deterministic():
    """The condition estimate may differ by an ulp between processes; the
    JSON keeps 3 significant digits, and the attribute stays exact."""
    d = build_dictionary(54, 50, family=OCCPT)
    sol = dictionary_solve(make_x2().samples, d)
    f = d.gram()

    def with_diagonal(i, scale):
        # the condition is read from the dictionary's factor: give the
        # solution a copy of d whose cached factor has R[i, i] scaled
        R = np.array(f.R, order="F")
        R[i, i] *= scale
        other = replace(d)
        object.__setattr__(other, "_qr", GramFactor(f.Q, R))
        return replace(sol, dictionary=other)

    near = with_diagonal(0, 1 + 1e-12)
    assert near.gram_condition != sol.gram_condition
    assert near.to_dict() == sol.to_dict()
    assert sol.to_dict()["gram_condition"] == float(f"{sol.gram_condition:.3g}")
    assert with_diagonal(-1, 0.0).to_dict()["gram_condition"] is None


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


def test_penalty_is_p2_or_phi():
    for penalty in (lambda p: p, "p", None):
        with pytest.raises(ValueError, match="penalty must be 'p2' or 'phi'"):
            build_dictionary(24, 6, family=OCCPT, penalty=penalty)


def test_min_data_length_examples():
    assert min_data_length([6, 8]) == 12
    assert min_data_length([3, 3]) == 3 and min_data_length([5, 5]) == 5
    assert min_data_length([5, 7, 9]) == 15


@pytest.mark.parametrize("cand,n_min,width", [((6, 8), 12, 12), ((5, 7, 9), 15, 19),
                                               ((4, 6, 9), 12, 14)])
def test_min_data_length_reaches_the_basis_width_only_for_two_candidates(cand, n_min, width):
    """The paper's minimum separates each pair of candidates; the candidate
    basis stacks every divisor of every candidate, so for three or more its
    width can exceed that minimum, and the solve needs the width."""
    assert min_data_length(cand) == n_min
    x = np.random.default_rng(0).standard_normal(width)
    assert candidate_matrix_solve(x, cand).width == width
    if n_min < width:
        with pytest.raises(ValueError, match=f"data length {n_min} is below the basis width {width}"):
            candidate_matrix_solve(x[:n_min], cand)


def test_min_data_length_properties():
    assert min_data_length([8, 6]) == min_data_length([6, 8])
    assert min_data_length([5, 7, 9, 9, 5]) == min_data_length([5, 7, 9])
    with pytest.raises(ValueError, match="need at least two candidate periods"):
        min_data_length([6])
    # each period is checked before the count
    with pytest.raises(ValueError, match="candidate period must be an integer"):
        min_data_length([2.5])


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


def test_candidate_matrix_rejects_lengths_below_the_width():
    """A record shorter than the basis width raises, naming the width, and
    one of the width is solved; 15 is the minimum data length of {5, 7, 9},
    whose basis is wider."""
    for cand, width, short in [((5, 8), 12, (1, 11)), ((6, 8), 12, (11,)),
                               ((5, 7, 9), 19, (15, 18)), ((7,), 7, (1, 6))]:
        for n in short:
            message = f"data length {n} is below the basis width {width} "
            with pytest.raises(ValueError, match=message):
                candidate_matrix_solve(np.ones(n), cand)
        assert candidate_matrix_solve(np.ones(width), cand).width == width
    with pytest.raises(ValueError, match="need at least one candidate period"):
        candidate_matrix_solve(np.zeros(12), [])


@pytest.mark.parametrize("cand, bad", [([2.5, 8], "2.5"), ([0], "0"), ([-3, 4], "-3")],
                         ids=["2.5", "0", "-3"])
def test_candidate_matrix_rejects_non_integer_candidates(cand, bad):
    with pytest.raises(ValueError, match=f"candidate period must be an integer >= 1, got {bad}"):
        candidate_matrix_solve(np.zeros(12), cand)
    with pytest.raises(ValueError, match=f"candidate period must be an integer >= 1, got {bad}"):
        min_data_length(cand + [8])


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
@pytest.mark.parametrize("cand", [(6, 8), (5, 8), (3, 4), (7,), (11, 13, 15), (30, 47)])
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


def test_dft_npm_candidate_strengths_are_twice_the_orthogonal_ones():
    """A square basis has one solution whatever the penalty. In the period-p
    subspace a*2cos + c*2sin = (a - jc) e_k + (a + jc) e_(p-k), which holds
    twice the square sum of (a, c); periods 1 and 2 share their column."""
    rng = np.random.default_rng(16)
    x = rng.standard_normal(12)
    for signal in (x, x + 1j * rng.standard_normal(12)):
        exp = candidate_matrix_solve(signal, (5, 8), family=DFT_NPM).strengths
        orth = candidate_matrix_solve(signal, (5, 8), family=OCCPT).strengths
        assert exp.keys() == orth.keys()
        for q, s in orth.items():
            assert exp[q] == pytest.approx((2 if q >= 3 else 1) * s, rel=1e-10)


def test_farey_candidate_set_is_the_dft_npm_one():
    """farey names the dft-npm blocks for candidate sets as for
    dictionaries: the same report bit for bit."""
    rng = np.random.default_rng(17)
    x = rng.standard_normal(12)
    for signal in (x, x + 1j * rng.standard_normal(12)):
        farey = candidate_matrix_solve(signal, (5, 8), family=FAREY)
        assert farey == candidate_matrix_solve(signal, (5, 8), family=DFT_NPM)
    with pytest.raises(ValueError, match="unknown dictionary family 'hadamard'"):
        candidate_matrix_solve(x, (5, 8), family="hadamard")


@pytest.mark.parametrize("N", [1, 2, 6, 12, 30, 54, 60])
@pytest.mark.parametrize("family", FAMILIES)
def test_candidate_set_of_the_length_is_the_transform(family, N):
    """The candidate set (N,) stacks the blocks of every divisor of N, the
    family's square matrix, so its QR solve scores each divisor as the fast
    transform's period strengths do."""
    rng = np.random.default_rng(N)
    x = rng.standard_normal(N)
    for signal in (x, x + 1j * rng.standard_normal(N)):
        got = candidate_matrix_solve(signal, (N,), family=family).strengths
        want = period_strengths(analyze(signal, family)).strengths
        assert got.keys() == want.keys()
        peak = max(want.values())
        for p, s in want.items():
            assert abs(got[p] - s) <= 1e-12 * peak


@pytest.mark.parametrize("n", [12, 13, 48, 240])
@pytest.mark.parametrize("family", [OCCPT, FAREY, RPT, CCPT1, CCPT2])
def test_tall_candidate_solve_is_least_squares(family, n):
    """Past the basis width the candidate basis is tall, with full column
    rank: its solve is the one least-squares fit of all n samples, which
    the penalty does not change."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    d = period._candidate_dictionary((5, 8), family, n)
    for signal in (x, x + 1j * rng.standard_normal(n)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = candidate_matrix_solve(signal, (5, 8), family=family)
        assert report.full_rank and report.rank == 12 and report.width == 12
        b = np.linalg.lstsq(d.entries, signal, rcond=None)[0]
        sums = np.bincount(d.periods, weights=np.abs(b) ** 2)
        peak = max(report.strengths.values())
        for p, s in report.strengths.items():
            assert abs(s - sums[p]) <= 1e-12 * peak


def _planted_5_or_8(seed, n, snr_db):
    """(period, samples): period 5 or 8 as both its coprime harmonics, each
    a unit cosine of random phase (signal power 1), plus white noise at
    `snr_db`; the noise of a longer record extends that of a shorter one."""
    rng = np.random.default_rng(seed)
    P, harmonics = ((5, (1, 2)), (8, (1, 3)))[seed % 2]
    t = np.arange(n)
    x = sum(np.cos(2 * np.pi * k * t / P + rng.uniform(0, 2 * np.pi)) for k in harmonics)
    return P, x + 10 ** (-snr_db / 20) * rng.standard_normal(n)


# hits among seeds 0..199 at n = 12 (the basis width), 48 and 240; measured
# 158/200/200, 126/192/200 and 109/152/199, each bound a few hits under
@pytest.mark.parametrize("snr_db, bounds", [(0, (153, 195, 195)), (-6, (121, 187, 195)),
                                            (-12, (104, 147, 194))])
def test_candidate_accuracy_grows_with_the_record(snr_db, bounds):
    for n, bound in zip((12, 48, 240), bounds):
        hits = 0
        for seed in range(200):
            P, x = _planted_5_or_8(seed, n, snr_db)
            s = candidate_matrix_solve(x, (5, 8)).candidate_strengths
            hits += max(s, key=s.get) == P
        assert hits >= bound, (n, hits)


@pytest.mark.parametrize("family", [OCCPT, CCPT1, CCPT2, RPT, FAREY])
def test_dictionary_entries_are_read_only(family):
    """A dictionary caches its factor, so its entries cannot change under
    it."""
    d = build_dictionary(24, 10, family=family)
    d.gram()
    assert not d.entries.flags.writeable
    with pytest.raises(ValueError):
        d.entries[0, 0] = 1.0


# a dictionary derives its entries; a basis matrix keeps the caller's, since
# validate_npm must see broken ones
@pytest.mark.parametrize("value", ["PeriodicBasisMatrix"])
def test_values_keep_the_callers_entries_writable(value):
    """The value keeps a read-only view: setting the flag on the caller's
    own array used to make `a[0, 0] = 1.0` raise after replace()."""
    v = build_matrix(OCCPT, 6)
    a = np.array(v.entries)
    w = replace(v, entries=a)
    assert a.flags.writeable and not w.entries.flags.writeable
    a[0, 0] = 1.0
    with pytest.raises(ValueError):
        w.entries[0, 0] = 1.0


def _pickled_values():
    """Each value that holds arrays, and the names of its arrays."""
    x, d = np.cos(2 * np.pi * np.arange(12) / 4) + (np.arange(12) % 3), build_dictionary(12, 5)
    sol = dictionary_solve(x, d)
    d.entries       # cached, so a pickle that kept it would show here
    return {
        "CoefficientSet": (analyze(x, OCCPT), ("flat",)),
        "ColumnLayout": (d.layout, ("periods", "k", "kind", "shift")),
        "PeriodicBasisMatrix": (build_matrix(OCCPT, 6), ("entries",)),
        "DictionarySolution": (sol, ("b_hat", "_signal")),
        "GramFactor": (build_dictionary(60, 7).gram(), ("Q", "R", "pinv")),
        "PeriodicDictionary": (d, ("entries", "penalties")),
        "ComponentTable": (frequency_components(analyze(x, OCCPT), fs=2.0),
                           FrequencyComponent._fields),
    }


@pytest.mark.parametrize("name", ["CoefficientSet", "ColumnLayout", "PeriodicBasisMatrix",
                                  "DictionarySolution", "GramFactor", "PeriodicDictionary",
                                  "ComponentTable"])
def test_pickle_keeps_values_read_only(name):
    """A pickle goes through the constructor, so the arrays of the copy are
    read-only too. numpy restores them writable, so an unpickled value could
    be changed, and writing to an unpickled dictionary's entries left its
    cached factor stale. A dictionary re-derives its caches."""
    value, arrays = _pickled_values()[name]
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back is not value
    if name == "PeriodicDictionary":
        assert "entries" not in vars(back) and "_qr" not in vars(back)
        arrays += ("gram().Q",)
        x = np.arange(12.0) ** 2
        want = dictionary_solve(x, value)
        got = dictionary_solve(x, back)
        assert np.array_equal(got.b_hat, want.b_hat) and got.residual == want.residual
    for a in arrays:
        got = back.gram().Q if a == "gram().Q" else getattr(back, a)
        want = value.gram().Q if a == "gram().Q" else getattr(value, a)
        assert np.array_equal(got, want) and not got.flags.writeable, a


def test_reports_hash_by_value():
    """Equal reports used to raise TypeError (unhashable mappingproxy) on
    hash; strengths listed in another order are still the same report."""
    for name in ("PeriodReport", "normalized PeriodReport", "CandidateReport"):
        a, b = _reports()[name], _reports()[name]
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b}) == 1 and b in {a}
        c = replace(a, strengths=MappingProxyType(dict(reversed(a.strengths.items()))))
        assert c == a and hash(c) == hash(a)
    plain, normalized = _reports()["PeriodReport"], _reports()["normalized PeriodReport"]
    assert plain != normalized and len({plain, normalized}) == 2


@pytest.mark.parametrize("threshold", [0.05, 0.5, 0.9, 1.0])
def test_replaced_threshold_is_a_fresh_report(threshold):
    """The significant set follows the threshold: replace() used to keep
    x1's (3, 9, 18) at 0.9, where a fresh report reads (9,)."""
    c = occpt_analysis(make_x1().samples)
    got, want = replace(period_strengths(c), threshold=threshold), period_strengths(c, threshold)
    assert got == want and hash(got) == hash(want)
    assert got.significant == want.significant and got.to_dict() == want.to_dict()


def test_dictionary_significance_peak_is_taken_by_period():
    """The 1% floor is taken from the peak over periods >= 2, wherever the
    layout starts: one whose first block is period 3 used to skip it and
    call every period significant."""
    d = replace(build_dictionary(24, 6), layout=ColumnLayout(OCCPT, [3, 4, 6]))
    sol = dictionary_solve(np.cos(2 * np.pi * np.arange(24) / 3), d)
    assert sol.strengths[3] == pytest.approx(0.25)
    assert sol.significant_periods() == (3,) and sol.estimated_period() == 3


def test_candidate_basis_is_built_once(monkeypatch):
    calls = []
    real_builder = period.build_columns

    def counting_builder(layout, length):
        calls.append((np.unique(layout.periods).tolist(), length))
        return real_builder(layout, length)

    monkeypatch.setattr(period, "build_columns", counting_builder)
    period._candidate_dictionary.cache_clear()
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="below the basis width 12"):
        candidate_matrix_solve(np.zeros(11), [5, 8])
    assert calls == []
    reports = [candidate_matrix_solve(rng.standard_normal(12), [8, 5, 8]) for _ in range(4)]
    # one builder call for the one successful cache miss
    assert calls == [([1, 2, 4, 5, 8], 12)]
    info = period._candidate_dictionary.cache_info()
    assert (info.misses, info.hits) == (2, 3)
    assert all(r.basis_periods == (1, 2, 4, 5, 8) and r.full_rank for r in reports)


def test_candidate_basis_is_read_only():
    d = period._candidate_dictionary((5, 8), OCCPT, 12)
    assert d.layout.blocks == (1, 2, 4, 5, 8) and d.entries.shape == (12, 12)
    assert not d.entries.flags.writeable
    with pytest.raises(ValueError):
        d.entries[0, 0] = 1.0


def _drop_last_singular_value(monkeypatch):
    """Make the factor's condition estimate read 0, so it takes its SVD, and
    that SVD see one singular value of zero, so a full-rank dictionary takes
    the least-squares branch."""
    real_lapack_funcs, real_svd = period.get_lapack_funcs, period.svd

    def lapack_funcs(names, arrays=()):
        if names == ("trcon",):
            return (lambda a, **kw: (0.0, 0),)
        return real_lapack_funcs(names, arrays)

    def svd(a, **kw):
        U, s, Vh = real_svd(a, **kw)
        return U, np.append(s[:-1], 0.0), Vh

    monkeypatch.setattr(period, "get_lapack_funcs", lapack_funcs)
    monkeypatch.setattr(period, "svd", svd)


def test_rank_deficient_candidate_basis_warns_every_call(monkeypatch):
    x = np.random.default_rng(6).standard_normal(6)
    # the minimum-norm least-squares solution against the basis truncated to
    # its five largest singular values, written here from an SVD of F T^-1
    d = period._candidate_dictionary((3, 4), CCPT2, 6)
    U, s, Vh = np.linalg.svd(d.entries / d.penalties)
    b = Vh[:5].T @ ((U[:, :5].T @ x) / s[:5]) / d.penalties
    sums = np.bincount(d.periods, weights=b ** 2)
    want = {q: float(sums[q]) for q in (1, 2, 3, 4)}
    _drop_last_singular_value(monkeypatch)
    period._candidate_dictionary.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = [candidate_matrix_solve(x, [3, 4], family=CCPT2) for _ in range(2)]
    finally:
        period._candidate_dictionary.cache_clear()
    assert [str(w.message) for w in caught] == [
        "candidate basis for (3, 4) is rank deficient (5/6); falling back to least squares"] * 2
    for r in reports:
        assert not r.full_rank and r.rank == 5
        for q, s in want.items():
            assert r.strengths[q] == pytest.approx(s, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("branch", ["lu", "least-squares"])
@pytest.mark.parametrize("family", [OCCPT, RPT, CCPT1, CCPT2])
def test_candidate_solve_of_complex_signal_against_real_basis(monkeypatch, family, branch):
    """A real basis maps the real and imaginary parts apart, so the
    strengths of x + 1j*y are those of x plus those of y, on the full-rank
    ("lu") and the least-squares branch alike."""
    if branch == "least-squares":
        _drop_last_singular_value(monkeypatch)
    period._candidate_dictionary.cache_clear()
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal(12), np.cos(np.arange(12)) + 0.1 * rng.standard_normal(12)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warnings.simplefilter("error", ComplexWarning)
            got = candidate_matrix_solve(x + 1j * y, (5, 8), family=family)
            sx = candidate_matrix_solve(x, (5, 8), family=family).strengths
            sy = candidate_matrix_solve(y, (5, 8), family=family).strengths
    finally:
        period._candidate_dictionary.cache_clear()
    assert got.full_rank == (branch == "lu")
    for q in got.strengths:
        assert got.strengths[q] == pytest.approx(sx[q] + sy[q], rel=1e-12)


def _reports():
    x = make_x2().samples
    return {
        "PeriodReport": period_strengths(occpt_analysis(x)),
        "normalized PeriodReport": period_strengths(occpt_analysis(x), normalized=True),
        "DictionarySolution": dictionary_solve(x, build_dictionary(54, 50)),
        "CandidateReport": candidate_matrix_solve(np.resize(x, 12), (5, 8)),
    }


@pytest.mark.parametrize("name", ["PeriodReport", "normalized PeriodReport",
                                  "DictionarySolution", "CandidateReport"])
def test_strengths_are_read_only(name):
    """Writing a strength used to change the answers of a frozen value:
    on x2, sol.strengths[8] = 0.0 turned the dictionary estimate 40 into 5."""
    report = _reports()[name]
    before = report.to_dict()
    views = [report.strengths]
    if name == "CandidateReport":
        views.append(report.candidate_strengths)
    for strengths in views:
        with pytest.raises(TypeError):
            strengths[8] = 0.0
        with pytest.raises(TypeError):
            del strengths[1]
    assert report.to_dict() == before


# the fields each value stores; every other attribute derives from them
STORED = {
    period.PeriodicDictionary: ("family", "penalty_name", "N", "layout"),
    period.DictionarySolution: ("b_hat", "dictionary", "_signal"),
    period.CandidateReport: ("candidates", "rank", "strengths"),
    period.PeriodReport: ("family", "strengths", "threshold", "normalized"),
    PeriodicBasisMatrix: ("entries", "family"),
    ColumnLayout: ("family", "blocks"),
    period.GramFactor: ("Q", "R"),
    ValidationReport: ("family", "blocks", "rank"),
    BlockCheck: ("p", "rank", "periodic_ok"),
    ResidueSets: ("n",),
}
DERIVED = {
    period.PeriodicDictionary: ("entries", "p_max", "penalties"),
    period.DictionarySolution: ("strengths", "gram_condition", "used_fallback", "residual"),
    period.CandidateReport: ("basis_periods", "width", "full_rank", "candidate_strengths"),
    period.PeriodReport: ("N", "significant", "estimated_period"),
    PeriodicBasisMatrix: ("N", "layout"),
    ColumnLayout: ("periods", "k", "kind", "shift"),
    period.GramFactor: ("rank", "pinv", "condition"),
    ValidationReport: ("N", "full_rank", "passed"),
    BlockCheck: ("width", "rank_ok"),
    ResidueSets: ("full", "half", "complement"),
}


def test_values_store_each_fact_once():
    """27 stored fields in all; a derived name given to replace() raises."""
    reports = _reports()
    sol = reports["DictionarySolution"]
    validation = validate_npm(build_matrix(OCCPT, 12))
    values = [sol.dictionary, sol, reports["CandidateReport"], reports["PeriodReport"],
              build_matrix(OCCPT, 12), sol.dictionary.layout, sol.dictionary.gram(),
              validation, validation.blocks[-1], residue_sets(12)]
    assert sum(map(len, STORED.values())) == 27
    assert set(map(type, values)) == STORED.keys() == DERIVED.keys()
    for value in values:
        cls = type(value)
        assert tuple(f.name for f in fields(cls)) == STORED[cls]
        for name in DERIVED[cls]:
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                replace(value, **{name: getattr(value, name)})


def test_gram_factor_derives_its_rank_decision():
    """replace(f, pinv=None) used to give a factor of rank 12 of 24 with no
    pseudo-inverse and an infinite condition, which would have taken the
    triangular solve. Rank, pinv and condition derive from R, so they
    cannot be set, and a replaced factor makes the same decision."""
    f = build_dictionary(24, 6).gram()
    assert f.rank == 12 and f.pinv is not None and f.condition == np.inf
    with pytest.raises(TypeError, match="unexpected keyword argument 'pinv'"):
        replace(f, pinv=None)
    g = replace(f)
    assert g.rank == f.rank and g.condition == f.condition
    assert np.array_equal(g.pinv, f.pinv) and not g.pinv.flags.writeable
    full = build_dictionary(54, 50).gram()
    assert full.rank == 54 and full.pinv is None and np.isfinite(full.condition)
