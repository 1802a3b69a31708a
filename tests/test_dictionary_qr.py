"""The dictionary solve through the cached QR factorization, against an
lstsq oracle on a dictionary built from the column definitions."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular, svdvals

import ccpt.period as period
from ccpt.matrices import ColumnLayout
from ccpt.numtheory import divisors, totient
from ccpt.period import build_dictionary, dictionary_solve
from ccpt.signals import hidden_periodic_component, make_x2

from oracles import dictionary_oracle, weighted_min_norm


def _mixture(N, seed):
    """Two hidden periods, 5 and 8 (lcm 40), plus white noise."""
    rng = np.random.default_rng(seed)
    return (hidden_periodic_component(5, N, seed) + hidden_periodic_component(8, N, seed + 1)
            + 0.3 * rng.standard_normal(N))


def _oracle_solution(d, x):
    F, periods = dictionary_oracle(d.family, d.N, d.p_max)
    b = weighted_min_norm(F, d.penalties, x)
    sums = np.bincount(periods, weights=np.abs(b) ** 2, minlength=d.p_max + 1)
    return F, b, {p: float(sums[p]) for p in range(1, d.p_max + 1)}


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize("family", ["occpt", "ccpt1", "ccpt2", "rpt", "farey"])
@pytest.mark.parametrize("N,p_max", [(54, 50), (7, 9), (1, 3)])
def test_dictionary_entries_match_definitions(family, N, p_max):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # p_max beyond N warns
        d = build_dictionary(N, p_max, family=family)
    F, periods = dictionary_oracle(family, N, p_max)
    np.testing.assert_allclose(d.entries, F, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(d.periods, periods)


@pytest.mark.parametrize("family,N,p_max", [("occpt", 512, 64), ("farey", 360, 48)])
def test_ill_conditioned_dictionary_matches_oracle(family, N, p_max):
    d = build_dictionary(N, p_max, family=family)
    x = _mixture(N, 7)
    sol = dictionary_solve(x, d)
    F, b, strengths = _oracle_solution(d, x)
    # the Gram condition is far past what a Cholesky of the formed Gram survives
    assert sol.gram_condition > 1e20 and np.isfinite(sol.gram_condition)
    assert not sol.used_fallback
    assert _rel(sol.b_hat, b) <= 1e-4
    assert sol.residual <= 1e-6 * np.linalg.norm(x)
    assert np.linalg.norm(F @ sol.b_hat - x) <= 1e-6 * np.linalg.norm(x)
    assert sol.strengths.keys() == strengths.keys()
    peak = max(strengths.values())
    assert max(abs(sol.strengths[p] - s) for p, s in strengths.items()) <= 1e-4 * peak
    ranked = sorted((p for p in strengths if p >= 2), key=lambda p: -strengths[p])
    assert sol.top_periods(2) == tuple(sorted(ranked[:2]))


@pytest.mark.parametrize("family,N,p_max,full_rank", [
    ("occpt", 54, 50, True), ("rpt", 54, 50, True), ("farey", 24, 10, True),
    ("occpt", 54, 5, False), ("occpt", 100, 12, False), ("farey", 60, 7, False),
    ("farey", 54, 50, True), ("farey", 24, 6, False)])
def test_dictionary_solve_matches_oracle(family, N, p_max, full_rank):
    d = build_dictionary(N, p_max, family=family)
    x = _mixture(N, 3)
    sol = dictionary_solve(x, d)
    F, b, strengths = _oracle_solution(d, x)
    assert _rel(sol.b_hat, b) <= 1e-10
    assert sol.used_fallback is not full_rank
    assert bool(np.isfinite(sol.gram_condition)) == full_rank
    assert sol.residual == pytest.approx(np.linalg.norm(F @ b - x), rel=1e-8, abs=1e-12)
    for p, s in strengths.items():
        assert sol.strengths[p] == pytest.approx(s, rel=1e-9, abs=1e-12 * max(strengths.values()))


def test_fat_rank_deficient_dictionary_takes_least_squares_branch():
    # 12 columns for 24 samples: rank 12
    d = build_dictionary(24, 6, family="occpt")
    x = np.random.default_rng(5).standard_normal(24)
    sol = dictionary_solve(x, d)
    assert d.gram().rank == 12
    assert sol.used_fallback
    assert _rel(sol.b_hat, weighted_min_norm(d.entries, d.penalties, x)) <= 1e-10


def test_r_is_the_cholesky_factor_of_the_gram():
    d = build_dictionary(54, 50, family="occpt")
    f = d.gram()
    gram = (d.entries / d.penalties ** 2) @ d.entries.T
    np.testing.assert_allclose(f.R.T @ f.R, gram, rtol=0, atol=1e-12 * np.abs(gram).max())
    np.testing.assert_allclose(f.Q.T @ f.Q, np.eye(54), atol=1e-12)
    assert f.R.flags.f_contiguous
    assert f.rank == 54 and f.pinv is None


@pytest.mark.parametrize("N,p_max", [(54, 50), (360, 48)])
def test_farey_factor_is_real(N, p_max):
    d = build_dictionary(N, p_max, family="farey")
    f = d.gram()
    gram = (d.entries / d.penalties ** 2) @ d.entries.conj().T
    # conjugate pairs make the Gram real
    assert np.abs(gram.imag).max() <= 1e-12 * np.abs(gram).max()
    assert f.Q.dtype == f.R.dtype == np.float64
    np.testing.assert_allclose(f.R.T @ f.R, gram, rtol=0, atol=1e-12 * np.abs(gram).max())
    np.testing.assert_allclose(f.Q.T @ f.Q, np.eye(N), atol=1e-12)


@pytest.mark.parametrize("family", ["occpt", "ccpt1", "ccpt2", "rpt", "farey"])
def test_every_family_factors_in_real_arithmetic(monkeypatch, family):
    dtypes = []
    real_qr = period.qr

    def recording_qr(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(period, "qr", recording_qr)
    build_dictionary(54, 50, family=family).gram()
    assert dtypes == [np.float64]


# 24/10 and 54/50 have full row rank, 60/7 and 24/6 take the least-squares
# branch
@pytest.mark.parametrize("N,p_max", [(24, 10), (60, 7), (54, 50), (24, 6)])
def test_complex_signal_against_farey_matches_oracle(N, p_max):
    d = build_dictionary(N, p_max, family="farey")
    x = _mixture(N, 3) + 0.5j * _mixture(N, 4)
    _, b, _ = _oracle_solution(d, x)
    assert _rel(dictionary_solve(x, d).b_hat, b) <= 1e-10


# 54/50 has full row rank; 256/30 and 360/48 too, near the rank cutoff
# (Gram condition 1e22 to 1e25); 24/6 has 12 columns for 24 samples and
# takes the least-squares branch
@pytest.mark.parametrize("complex_x", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("penalty", ["p2", "phi"])
@pytest.mark.parametrize("N,p_max,rtol", [(54, 50, 1e-10), (24, 6, 1e-10), (256, 30, 1e-4),
                                          (360, 48, 1e-4)])
def test_farey_matches_the_oracle_on_its_complex_entries(N, p_max, rtol, penalty, complex_x):
    """The factor of a farey dictionary is built from occpt columns; its
    coefficients are the weighted minimum-norm ones of its complex entries."""
    d = build_dictionary(N, p_max, family="farey", penalty=penalty)
    x = _mixture(N, 5) + (0.5j * _mixture(N, 6) if complex_x else 0.0)
    b = dictionary_solve(x, d).b_hat
    assert _rel(b, weighted_min_norm(d.entries, d.penalties, x)) <= rtol


@pytest.mark.parametrize("cand", [(5, 8), (3, 4), (4, 6, 9)])
def test_farey_candidate_strengths_match_the_oracle(cand):
    n = sum(map(totient, {q for p in cand for q in divisors(p)}))
    x = _mixture(n, 8)
    got = period.candidate_matrix_solve(x, cand, family="farey").strengths
    d = period._candidate_dictionary(tuple(sorted(cand)), "farey", n)
    b = weighted_min_norm(d.entries, d.penalties, x)
    sums = np.bincount(d.periods, weights=np.abs(b) ** 2)
    for p, s in got.items():
        assert s == pytest.approx(sums[p], rel=1e-9, abs=1e-12 * sums.max())


@pytest.mark.parametrize("family", ["occpt", "ccpt1", "ccpt2", "rpt", "farey", "dft-npm"])
def test_farey_solve_builds_no_complex_entries(family):
    """For every dictionary family, not only Farey: a factor builds its
    columns for the QR only, so a solve and every answer but the residual
    hold no entries; they are built on the residual's first read. x2 reads
    period 40 in every family but ccpt1, whose 54/50 dictionary answers 360."""
    d = build_dictionary(54, 50, family=family)
    d.gram()
    sol = dictionary_solve(make_x2().samples, d)
    assert sol.estimated_period() == (360 if family == "ccpt1" else 40)
    assert sol.strengths[8] > 0.0
    assert "entries" not in vars(d)
    sol.residual
    assert "entries" in vars(d)
    period._candidate_dictionary.cache_clear()
    period.candidate_matrix_solve(_mixture(12, 2), (5, 8), family=family)
    assert "entries" not in vars(period._candidate_dictionary((5, 8), family, 12))


def test_repeated_solves_factor_once(monkeypatch):
    calls = []
    real_qr = period.qr

    def counting_qr(*args, **kwargs):
        calls.append(1)
        return real_qr(*args, **kwargs)

    monkeypatch.setattr(period, "qr", counting_qr)
    d = build_dictionary(54, 50, family="occpt")
    first = d.gram()
    rng = np.random.default_rng(9)
    for _ in range(3):
        dictionary_solve(rng.standard_normal(54), d)
    assert d.gram() is first
    assert len(calls) == 1


def _pair_map(u, d):
    """Exponential coefficients of a farey dictionary d from the coordinates
    u of its real factor, one conjugate pair at a time. u follows the occpt
    layout of the same blocks, scaled by sqrt(2) f(p) for p >= 3 and f(p)
    for periods 1 and 2, and the occpt pair (b0, b1) of residue k is
    b_k = b0 - j b1 at the column of k and b_(p-k) = b0 + j b1 at that of
    p - k."""
    occpt = ColumnLayout("occpt", np.unique(d.periods))
    b = np.zeros(len(u), complex)
    for i, c in enumerate(occpt.columns):
        f = d.penalties[i] * (np.sqrt(2) if c.p >= 3 else 1.0)
        if c.p <= 2:
            b[d.layout.column_index(c.p, c.k, "exp")] = u[i] / f
        elif c.kind == "cos":
            b0, b1 = u[i] / f, u[i + 1] / f
            b[d.layout.column_index(c.p, c.k, "exp")] = b0 - 1j * b1
            b[d.layout.column_index(c.p, c.p - c.k, "exp")] = b0 + 1j * b1
    return b


@pytest.mark.parametrize("family,N,p_max", [("occpt", 54, 50), ("occpt", 512, 64),
                                             ("farey", 360, 48)])
def test_triangular_solve_matches_solve_triangular(family, N, p_max):
    d = build_dictionary(N, p_max, family=family)
    f = d.gram()
    assert f.pinv is None

    def solved(v):
        u = f.Q @ solve_triangular(f.R, v, trans=2, check_finite=False)
        return _pair_map(u, d) if family == "farey" else u / d.penalties

    x = _mixture(N, 31)
    assert np.array_equal(dictionary_solve(x, d).b_hat, solved(x))
    # a complex signal solves its real and imaginary parts against the real R
    z = x + 0.5j * _mixture(N, 32)
    assert np.array_equal(dictionary_solve(z, d).b_hat, solved(z.real) + 1j * solved(z.imag))


@pytest.mark.parametrize("family,N,p_max,svds", [
    ("occpt", 54, 50, 0), ("occpt", 512, 64, 0), ("farey", 360, 48, 0),
    ("ccpt1", 256, 29, 1), ("occpt", 54, 5, 1), ("farey", 60, 7, 1)])
def test_gram_runs_an_svd_only_without_full_row_rank(monkeypatch, family, N, p_max, svds):
    calls = []
    real_svd = period.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(period, "svd", counting_svd)
    f = build_dictionary(N, p_max, family=family).gram()
    assert len(calls) == svds
    assert (f.pinv is None) == (svds == 0) == np.isfinite(f.condition)


# near the rank cutoff (within 10x for p_max 29) and past it (ccpt1/ccpt2 256/29)
@pytest.mark.parametrize("family,N,p_max", [
    ("occpt", 256, 29), ("ccpt1", 256, 29), ("ccpt2", 256, 29),
    ("occpt", 256, 30), ("occpt", 256, 31), ("farey", 256, 30), ("farey", 256, 31),
    ("rpt", 256, 30), ("rpt", 256, 31), ("ccpt1", 360, 45), ("ccpt2", 360, 45),
    ("occpt", 54, 50), ("occpt", 512, 64), ("farey", 360, 48)])
def test_gram_rank_follows_the_singular_value_cutoff(family, N, p_max):
    d = build_dictionary(N, p_max, family=family)
    f = d.gram()
    s = svdvals(f.R)
    rank = int(np.count_nonzero(s > np.finfo(float).eps * max(d.n_columns, N) * s[0]))
    assert f.rank == rank
    assert (f.pinv is None) == (rank == N)
    if rank == N:
        # the squared 1-norm estimate lies within N^2 of the exact 2-norm value
        exact = (s[0] / s[-1]) ** 2
        assert exact / N ** 2 <= f.condition <= exact * N ** 2
    else:
        assert f.condition == np.inf


@pytest.mark.parametrize("p_max", [50, 5])
@pytest.mark.parametrize("bad,match", [
    (np.full(54, np.nan), "finite"),
    (np.where(np.arange(54) == 3, np.inf, 1.0), "finite"),
    (np.ones((54, 1)), "1-D"),
])
def test_dictionary_solve_rejects_bad_input(p_max, bad, match):
    d = build_dictionary(54, p_max, family="occpt")
    with pytest.raises(ValueError, match=match):
        dictionary_solve(bad, d)


@pytest.mark.parametrize("n", [13, 4000])
def test_tall_factor_holds_only_its_own_q(n):
    """A tall basis's M x M Q comes from LAPACK as a view of an M x n work
    array; the factor keeps a copy, so its cached Q holds M x M floats."""
    d = period._candidate_dictionary((5, 8), "occpt", n)
    Q = d.gram().Q
    root = Q
    while root.base is not None:
        root = root.base
    assert Q.shape == (12, 12) and root.nbytes == Q.nbytes


def test_replaced_dictionary_factors_itself():
    """A dictionary is a value: replace() after a solve gives a new one whose
    factor comes from its own fields, equal to a freshly built one."""
    x = _mixture(360, 21)
    d = build_dictionary(360, 48)
    dictionary_solve(x, d)
    fresh = build_dictionary(360, 48, penalty="phi")
    phi = dataclasses.replace(d, penalty_name="phi")
    got, want = dictionary_solve(x, phi), dictionary_solve(x, fresh)
    np.testing.assert_array_equal(got.b_hat, want.b_hat)
    assert got.estimated_period() == want.estimated_period()
    assert got.to_dict()["penalty"] == "phi"


def test_dictionary_and_factor_are_read_only():
    d = build_dictionary(54, 50)
    for name in ("entries", "penalties", "N"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, name, getattr(d, name))
    with pytest.raises(ValueError):
        d.penalties[0] = 2.0
    f = d.gram()
    for a in (f.Q, f.R):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    # 60/7 takes the least-squares branch, whose pseudo-inverse is kept too
    f = build_dictionary(60, 7).gram()
    assert f.pinv is not None
    with pytest.raises(ValueError):
        f.pinv[0, 0] = 0.0


def _eager_residual(d, b, x):
    """||F b - x|| computed directly, from the caller's x."""
    return float(np.linalg.norm(d.entries @ b - x))


def test_residual_is_not_computed_by_the_solve():
    sol = dictionary_solve(_mixture(54, 7), build_dictionary(54, 50))
    assert "residual" not in vars(sol)
    residual = sol.residual
    assert vars(sol)["residual"] == residual


# 12/5 and 60/7 take the least-squares branch, 54/50 has full row rank
@pytest.mark.parametrize("complex_x", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("penalty", ["p2", "phi"])
@pytest.mark.parametrize("N,p_max", [(12, 5), (54, 50), (60, 7)])
@pytest.mark.parametrize("family", ["occpt", "rpt", "ccpt1", "ccpt2", "dft-npm", "farey"])
def test_residual_on_first_read_equals_the_eager_residual(family, N, p_max, penalty, complex_x):
    d = build_dictionary(N, p_max, family=family, penalty=penalty)
    x = _mixture(N, 9) + (0.5j * _mixture(N, 10) if complex_x else 0.0)
    sol = dictionary_solve(x, d)
    assert sol.residual == _eager_residual(d, sol.b_hat, x)


def test_residual_belongs_to_the_returned_coefficients():
    """Editing the caller's signal after the solve does not move the
    residual, and the coefficients cannot be edited."""
    d = build_dictionary(54, 50)
    x = _mixture(54, 11)
    sol = dictionary_solve(x, d)
    want = _eager_residual(d, sol.b_hat, x)
    x[:] = 0.0
    assert sol.residual == want
    with pytest.raises(ValueError):
        sol.b_hat[0] = 0.0


def test_rank_deficient_solve_reports_its_residual():
    d = build_dictionary(60, 7)
    x = _mixture(60, 12)
    sol = dictionary_solve(x, d)
    assert sol.used_fallback
    # no exact representation: the least-squares residual is positive
    assert 0.0 < sol.residual == _eager_residual(d, sol.b_hat, x)


def test_replaced_penalty_solves_like_a_built_dictionary():
    """replace() of the penalty name re-derives the penalties: on x2 the
    solution and its JSON are those of a dictionary built with phi. The
    replaced one used to keep its p2 penalties and report period 40."""
    x = make_x2().samples
    phi = dataclasses.replace(build_dictionary(54, 50), penalty_name="phi")
    want = dictionary_solve(x, build_dictionary(54, 50, penalty="phi"))
    got = dictionary_solve(x, phi)
    np.testing.assert_array_equal(got.b_hat, want.b_hat)
    assert got.to_dict() == want.to_dict()
    assert got.to_dict()["penalty"] == "phi" and got.estimated_period() == 5040


def test_inconsistent_dictionaries_are_rejected():
    """The entries, p_max and the penalties derive from the family, the
    layout, N and the penalty name; a family other than the layout's, an N
    that is not an integer >= 1 and an unknown penalty raise. Entries given
    to replace() used to be kept even when they were not the layout's
    blocks (negated, or rows stacked twice), and p_max, penalties and
    family were written as given."""
    d = build_dictionary(54, 50)
    for name, value in (("entries", d.entries), ("p_max", 7), ("penalties", d.penalties)):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            dataclasses.replace(d, **{name: value})
    with pytest.raises(ValueError, match="^dictionary family 'ccpt1' does not match its occpt "
                                         "layout$"):
        dataclasses.replace(d, family="ccpt1")
    for N in (0, 2.5, True):
        with pytest.raises(ValueError, match=f"^dictionary length N must be an integer >= 1, "
                                             f"got {N}$"):
            dataclasses.replace(d, N=N)
    with pytest.raises(ValueError, match="^penalty must be 'p2' or 'phi', got 'p'$"):
        dataclasses.replace(d, penalty_name="p")
    farey = build_dictionary(24, 10, family=period.FAREY)
    assert dataclasses.replace(farey, family="dft-npm").layout is farey.layout
    with pytest.raises(ValueError, match="^dictionary family 'occpt' does not match its dft-npm"):
        dataclasses.replace(farey, family="occpt")
    taller = dataclasses.replace(d, N=108)
    assert (taller.N, taller.p_max, d.N, d.p_max) == (108, 50, 54, 50)
    assert np.array_equal(taller.entries, build_dictionary(108, 50).entries)
