"""The dictionary solve through the cached QR factorization, against an
lstsq oracle on a dictionary built from the column definitions."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular, svdvals

import ccpt.period as period
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
    ("occpt", 54, 5, False), ("occpt", 100, 12, False), ("farey", 60, 7, False)])
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
    # every row twice: 46 columns, 24 rows, rank 12
    d = build_dictionary(12, 12, family="occpt")
    d = dataclasses.replace(d, entries=np.vstack([d.entries, d.entries]))
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


# 24/10 has full row rank, 60/7 takes the least-squares branch
@pytest.mark.parametrize("N,p_max", [(24, 10), (60, 7)])
def test_complex_signal_against_farey_matches_oracle(N, p_max):
    d = build_dictionary(N, p_max, family="farey")
    x = _mixture(N, 3) + 0.5j * _mixture(N, 4)
    _, b, _ = _oracle_solution(d, x)
    assert _rel(dictionary_solve(x, d).b_hat, b) <= 1e-10


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


def _pair_map(u, periods):
    """Exponential coefficients from the real pair coordinates u of a farey
    dictionary, one conjugate pair at a time: in a block of period p >= 3
    the residues are symmetric, so position i of the lower half (its cosine
    row) pairs with the mirrored position j (its sine row)."""
    b = u.astype(complex)
    for p in np.unique(periods[periods >= 3]).tolist():
        start, end = np.searchsorted(periods, [p, p + 1]).tolist()
        for i in range(start, (start + end) // 2):
            j = start + end - 1 - i
            lo, hi = u[i], 1j * u[j]
            b[i], b[j] = (lo + hi) / np.sqrt(2), (lo - hi) / np.sqrt(2)
    return b


@pytest.mark.parametrize("family,N,p_max", [("occpt", 54, 50), ("occpt", 512, 64),
                                             ("farey", 360, 48)])
def test_triangular_solve_matches_solve_triangular(family, N, p_max):
    d = build_dictionary(N, p_max, family=family)
    f = d.gram()
    assert f.pinv is None
    x = _mixture(N, 31)
    # a complex signal against a real R takes the complex routine, as before
    for signal in (x, x + 0.5j * _mixture(N, 32)):
        u = f.Q @ solve_triangular(f.R, signal, trans=2, check_finite=False)
        if family == "farey":
            u = _pair_map(u, d.periods)
        assert np.array_equal(dictionary_solve(signal, d).b_hat, u / d.penalties)


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
    negated = dictionary_solve(x, dataclasses.replace(d, entries=-d.entries))
    solution = dictionary_solve(x, d)
    np.testing.assert_array_equal(negated.b_hat, -solution.b_hat)
    assert negated.residual == solution.residual


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
    """N, p_max and the penalties derive from the entries, the layout and
    the penalty name; a family other than the layout's, entries that do not
    fit the layout and an unknown penalty raise. replace(d, N=60) used to
    die in the solve, and p_max, penalties and family were written as
    given."""
    d = build_dictionary(54, 50)
    for name, value in (("N", 60), ("p_max", 7), ("penalties", d.penalties)):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            dataclasses.replace(d, **{name: value})
    with pytest.raises(ValueError, match="^dictionary family 'ccpt1' does not match its occpt "
                                         "layout$"):
        dataclasses.replace(d, family="ccpt1")
    for entries in (d.entries[:, :-1], d.entries[0], d.entries[None]):
        with pytest.raises(ValueError, match="^dictionary entries must be 2-D with 774 columns"):
            dataclasses.replace(d, entries=entries)
    with pytest.raises(ValueError, match="^penalty must be 'p2' or 'phi', got 'p'$"):
        dataclasses.replace(d, penalty_name="p")
    farey = build_dictionary(24, 10, family=period.FAREY)
    assert dataclasses.replace(farey, family="dft-npm").layout is farey.layout
    with pytest.raises(ValueError, match="^dictionary family 'occpt' does not match its dft-npm"):
        dataclasses.replace(farey, family="occpt")
    taller = dataclasses.replace(d, entries=np.vstack([d.entries, d.entries]))
    assert (taller.N, taller.p_max, d.N, d.p_max) == (108, 50, 54, 50)
