"""A seeded conformance sweep of the input rule and the round trip.

Sizes are drawn with weight on the shapes where the fast paths differ:
primes, prime powers, powers of two and squarefree products of three to
five primes, besides any small N. The properties:

- `synthesize(analyze(x, family))` gives x back, real and complex;
- every numeric dtype is computed in the working precision: the
  coefficients of a bool, int32, float16, float32, longdouble or complex64
  signal are float64 or complex128 and equal those of the same values in
  float64 or complex128 bit for bit, for every family and the fast
  transform;
- a complex dictionary or candidate solve is the solve of its real part
  plus 1j times the solve of its imaginary part, bit for bit;
- `analyze` agrees with a dense solve against `build_matrix` for N <= 128;
- a candidate solve at any length n in [width, 8 width] is the
  least-squares fit of `lstsq` on the candidate dictionary's entries, and
  n = width - 1 raises;
- a dictionary solve on the full-row-rank branch is the weighted
  minimum-norm solution of `oracles.weighted_min_norm`, within a tolerance
  derived from its `gram_condition`;
- `ColumnLayout.pair_columns` and `ColumnLayout.pairs` agree with a loop
  over `layout.columns` on any ascending orthogonal block set;
- the input rule of every entry point that takes samples (`analyze` for
  each family, `occpt_analysis`, `foccpt`, `dictionary_solve`,
  `candidate_matrix_solve` and `Signal`): NaN or inf, a 2-D shape, no
  samples or a non-numeric dtype raise `ValueError`, and bool and integer
  samples give the answer of the same values in float64, bit for bit;
- `foccpt._bit_reversed(2**v)` reverses the v binary digits of each index,
  for v = 1 to 20.

Tolerances of the transform properties are those of `test_fft_core`:
absolute on the coefficient scale for the orthogonal and dft-npm families,
relative to the largest coefficient for the others. The candidate solve
holds to 1e-12 of its largest strength, and the dictionary solve states
its tolerance where it checks it. The hypothesis profile is in `conftest.py`.
"""

import warnings
from dataclasses import replace
from itertools import combinations
from math import prod

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from ccpt import period
from ccpt.ccps import COS, SIN
from ccpt.foccpt import _bit_reversed, foccpt
from ccpt.matrices import DFT_NPM, FAMILIES, OCCPT, ColumnLayout, build_matrix
from ccpt.numtheory import divisors, totient
from ccpt.period import FAREY, build_dictionary, candidate_matrix_solve, dictionary_solve
from ccpt.signals import Signal
from ccpt.transform import analyze, occpt_analysis, synthesize

from oracles import weighted_min_norm

TOL = 1e-12
RTOL = 1e-11

PRIMES = [q for q in range(2, 400) if all(q % d for d in range(2, int(q ** 0.5) + 1))]
DTYPES = [np.bool_, np.int32, np.float16, np.float32, np.float64, np.longdouble,
          np.complex64, np.complex128]


def _sizes(limit):
    """N in 1..limit, weighted towards primes, prime powers (powers of two
    among them) and squarefree products of 3-5 primes."""
    primes = [q for q in PRIMES if q <= limit]
    powers = sorted({q ** e for q in primes for e in range(2, 13) if q ** e <= limit})
    twos = [n for n in powers if n & (n - 1) == 0]
    squarefree = sorted(n for r in (3, 4, 5) for qs in combinations(PRIMES[:8], r)
                        if (n := prod(qs)) <= limit)
    return st.one_of(st.integers(1, min(limit, 64)),
                     *map(st.sampled_from, (primes, powers, twos, squarefree)))


def _signal(seed, N, complex_):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(N)
    return x + 1j * rng.standard_normal(N) if complex_ else x


SEEDS = st.integers(0, 2 ** 32 - 1)


@given(N=_sizes(4096), seed=SEEDS, complex_=st.booleans())
@example(N=1, seed=0, complex_=True)  # period 1 alone
@example(N=2310, seed=0, complex_=True)  # five primes
def test_round_trip(N, seed, complex_):
    x = _signal(seed, N, complex_)
    for family in FAMILIES:
        c = analyze(x, family)
        err = np.max(np.abs(synthesize(c) - x))
        assert err <= RTOL * np.max(np.abs(x)), (family, N, err)


@given(N=_sizes(1024), seed=SEEDS)
@example(N=64, seed=0)  # the fast transform runs
def test_every_dtype_computes_in_double(N, seed):
    rng = np.random.default_rng(seed)
    values = 4 * rng.standard_normal(N) + 4j * rng.standard_normal(N)
    for dtype in DTYPES:
        x = (values if np.dtype(dtype).kind == "c" else values.real).astype(dtype)
        double = x.astype(np.complex128 if x.dtype.kind == "c" else np.float64)
        pairs = [(analyze(x, family).flat, analyze(double, family).flat) for family in FAMILIES]
        if N >= 2 and N & (N - 1) == 0:
            pairs.append((foccpt(x)[0].flat, foccpt(double)[0].flat))
        for got, want in pairs:
            assert got.dtype in (np.float64, np.complex128) and got.dtype == want.dtype, dtype
            assert np.array_equal(got, want), dtype


@given(N=st.integers(1, 128), p_max=st.integers(1, 40), seed=SEEDS,
       family=st.sampled_from([*FAMILIES, FAREY]), penalty=st.sampled_from(["p2", "phi"]))
def test_complex_dictionary_solve_is_the_solve_of_its_parts(N, p_max, seed, family, penalty):
    d = build_dictionary(N, min(p_max, N), family=family, penalty=penalty)
    z = _signal(seed, N, True)
    b = dictionary_solve(z, d).b_hat
    parts = dictionary_solve(z.real, d).b_hat + 1j * dictionary_solve(z.imag, d).b_hat
    assert np.array_equal(b, parts)


@given(cand=st.sets(st.integers(1, 16), min_size=1, max_size=3), seed=SEEDS,
       family=st.sampled_from([*FAMILIES, FAREY]))
def test_complex_candidate_solve_is_the_solve_of_its_parts(cand, seed, family):
    width = sum(map(totient, {d for p in cand for d in divisors(p)}))
    z = _signal(seed, width, True)
    d = period._candidate_dictionary(tuple(sorted(cand)), family, width)
    with warnings.catch_warnings():
        # a rank-deficient candidate basis warns on every solve
        warnings.simplefilter("ignore", UserWarning)
        report = candidate_matrix_solve(z, cand, family=family)
        parts = dictionary_solve(z.real, d).b_hat + 1j * dictionary_solve(z.imag, d).b_hat
    assert report.strengths == period._strengths(d.layout, parts)


@given(N=_sizes(128), seed=SEEDS, complex_=st.booleans())
@example(N=105, seed=0, complex_=True)  # three odd primes
def test_analyze_agrees_with_the_dense_solve(N, seed, complex_):
    x = _signal(seed, N, complex_)
    for family in FAMILIES:
        F = build_matrix(family, N).entries
        if np.iscomplexobj(F):
            want = np.linalg.solve(F, x)
        else:
            # a real basis solves the parts of a complex signal
            want = np.linalg.solve(F, x.real) + 1j * np.linalg.solve(F, x.imag) if complex_ \
                else np.linalg.solve(F, x)
        got = analyze(x, family).column_values()
        tol = TOL if family in (OCCPT, DFT_NPM) else RTOL * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= tol, (family, N)


@given(cand=st.sets(st.integers(2, 16), min_size=1, max_size=3), seed=SEEDS,
       family=st.sampled_from([*FAMILIES, FAREY]), complex_=st.booleans(), data=st.data())
def test_candidate_solve_at_any_length_is_least_squares(cand, seed, family, complex_, data):
    width = sum(map(totient, {d for p in cand for d in divisors(p)}))
    n = data.draw(st.integers(width, 8 * width), label="n")
    x = _signal(seed, n, complex_)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no drawn basis is rank deficient
        report = candidate_matrix_solve(x, cand, family=family)
    d = period._candidate_dictionary(tuple(sorted(cand)), family, n)
    b = np.linalg.lstsq(d.entries, x, rcond=None)[0]
    sums = np.bincount(d.periods, weights=np.abs(b) ** 2)
    peak = max(report.strengths.values())
    assert report.full_rank
    assert all(abs(s - sums[p]) <= 1e-12 * peak for p, s in report.strengths.items())
    with pytest.raises(ValueError, match=f"below the basis width {width} "):
        candidate_matrix_solve(x[:width - 1], cand, family=family)


@given(N=st.integers(1, 128), p_max=st.integers(1, 40), seed=SEEDS,
       family=st.sampled_from([*FAMILIES, FAREY]), penalty=st.sampled_from(["p2", "phi"]))
def test_full_rank_dictionary_solve_is_the_weighted_min_norm(N, p_max, seed, family, penalty):
    d = build_dictionary(N, min(p_max, N), family=family, penalty=penalty)
    sol = dictionary_solve(_signal(seed, N, False), d)
    assume(not sol.used_fallback)
    want = weighted_min_norm(d.entries, d.penalties, sol._signal)
    # Both solves are backward stable, and the minimum-norm solution of a
    # full-row-rank A = F T^-1 has condition kappa(A) to first order, so in
    # the weighted norm ||T b|| each is within a small multiple of
    # max(M, N) * eps * kappa(A) of the exact solution. gram_condition is
    # trcon's estimate of kappa_1(R)^2, the square of a 1-norm condition
    # within a small factor of kappa(A); the 16 covers both factors.
    kappa = np.sqrt(sol.gram_condition)
    tol = 16 * max(d.n_columns, N) * np.finfo(float).eps * kappa
    T = d.penalties
    assert np.linalg.norm(T * (sol.b_hat - want)) <= tol * np.linalg.norm(T * want)


@given(blocks=st.sets(st.integers(1, 60), min_size=1, max_size=12), seed=SEEDS)
@example(blocks={1, 2}, seed=0)  # degenerate pairs only
def test_pair_lookups_agree_with_a_loop_over_the_columns(blocks, seed):
    layout = ColumnLayout(OCCPT, sorted(blocks))
    values = np.random.default_rng(seed).standard_normal(len(layout.periods))
    position = {c: i for i, c in enumerate(layout.columns)}
    want = []
    for i, c in enumerate(layout.columns):
        if c.kind == COS:
            j = position.get(replace(c, kind=SIN))
            assert (j is None) == (c.p <= 2)
            assert layout.pair_columns(c.p, c.k) == (i, j)
            want.append((c.p, c.k, values[i], 0.0 if j is None else values[j]))
    got = layout.pairs(values)
    for g, w in zip(got, zip(*want)):
        assert np.array_equal(g, np.array(w))


def _foccpt_answer(x):
    c, ctr = foccpt(x)
    return c.flat, np.array([ctr.real_mults, ctr.real_adds])


# each entry point that takes samples: the length its signal gets for a
# drawn N >= 1 (a power of two for foccpt, at least the width 12 of the
# (5, 8) candidate basis), and its answer as arrays
_ENTRY_POINTS = {
    **{f"analyze-{family}": (lambda N: N, lambda x, family=family: (analyze(x, family).flat,))
       for family in FAMILIES},
    "occpt_analysis": (lambda N: N, lambda x: (occpt_analysis(x).flat,)),
    "foccpt": (lambda N: 2 ** N.bit_length(), _foccpt_answer),
    "dictionary_solve": (lambda N: N, lambda x: (
        dictionary_solve(x, build_dictionary(len(x), min(len(x), 12))).b_hat,)),
    "candidate_matrix_solve": (lambda N: N + 11, lambda x: (
        np.array(list(candidate_matrix_solve(x, (5, 8)).strengths.values())),)),
    "Signal": (lambda N: N, lambda x: (Signal(x).samples,)),
}
_BAD = ["nan", "inf", "-inf", "2-D", "column", "empty", "str", "object", "datetime"]


def _spoiled(x, how, i):
    """x made invalid in the way `how` names; a non-finite value lands at
    position i of the real part, or of the imaginary part of a complex x at
    odd i."""
    if how in ("nan", "inf", "-inf"):
        y = x.copy()
        if np.iscomplexobj(y) and i % 2:
            y.imag[i % len(y)] = float(how)
        else:
            y.real[i % len(y)] = float(how)
        return y
    return {"2-D": lambda: np.stack([x, x]), "column": lambda: x[:, None],
            "empty": lambda: x[:0], "str": lambda: x.astype(str),
            "object": lambda: x.astype(object),
            "datetime": lambda: np.arange(len(x)).astype("datetime64[s]")}[how]()


@given(N=_sizes(256), how=st.sampled_from(_BAD), i=st.integers(0, 2 ** 16),
       seed=SEEDS, complex_=st.booleans())
def test_invalid_samples_raise_value_error(N, how, i, seed, complex_):
    for entry, (length, answer) in _ENTRY_POINTS.items():
        x = _spoiled(_signal(seed, length(N), complex_), how, i)
        try:
            answer(x)
        except ValueError:
            continue
        pytest.fail(f"{entry} accepted {how} samples")


@given(N=_sizes(256), dtype=st.sampled_from([np.bool_, np.int8, np.int16, np.int32, np.int64,
                                              np.uint8, np.uint16, np.uint64]), seed=SEEDS)
@example(N=1, dtype=np.bool_, seed=0)
def test_bool_and_integer_samples_give_the_float64_answer(N, dtype, seed):
    info = np.iinfo(dtype) if dtype is not np.bool_ else None
    low, high = (0, 2) if info is None else (max(info.min, -1000), min(info.max, 1000) + 1)
    rng = np.random.default_rng(seed)
    for entry, (length, answer) in _ENTRY_POINTS.items():
        x = rng.integers(low, high, length(N)).astype(dtype)
        for got, want in zip(answer(x), answer(x.astype(np.float64))):
            assert got.dtype == want.dtype and np.array_equal(got, want), (entry, dtype)


@given(v=st.integers(1, 20))
def test_bit_reversal_reverses_the_binary_digits(v):
    i = np.arange(2 ** v)
    want = sum(((i >> b) & 1) << (v - 1 - b) for b in range(v))
    assert np.array_equal(_bit_reversed(2 ** v), want)
