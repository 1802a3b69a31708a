import numpy as np
import pytest

from ccpt.foccpt import (OpCounter, _bit_reversed, _combine, _twiddles, complexity_table,
                         foccpt, predicted_counts)
from ccpt.matrices import CCPT1, CCPT2, DFT_NPM, OCCPT, RPT
from ccpt.transform import occpt_analysis

from oracles import butterfly_foccpt, direct_occpt_flat


def test_two_point_base_case():
    coeffs, ctr = foccpt(np.array([3.0, 1.0]))
    np.testing.assert_allclose(coeffs.flat, [2.0, 1.0])  # (a+b)/2, (a-b)/2
    assert ctr == OpCounter(real_mults=1, real_adds=2)


def test_matches_direct_transform():
    rng = np.random.default_rng(0)
    for v in range(2, 11):
        N = 2 ** v
        x = rng.standard_normal(N)
        fast_flat = foccpt(x)[0].flat
        assert np.max(np.abs(fast_flat - occpt_analysis(x).flat)) <= 1e-9
    # spot-check one size against the independent definition sums as well
    x = rng.standard_normal(64)
    assert np.max(np.abs(foccpt(x)[0].flat - direct_occpt_flat(x))) <= 1e-9


def test_counters_exact():
    rng = np.random.default_rng(1)
    for v in range(1, 13):
        N = 2 ** v
        _, ctr = foccpt(rng.standard_normal(N))
        assert ctr == predicted_counts(N, "real"), N


def test_counter_examples():
    assert predicted_counts(8, "real") == OpCounter(17, 25)
    assert predicted_counts(2, "real") == OpCounter(1, 2)
    assert predicted_counts(1024, "real") == OpCounter(9217, 16901)
    _, ctr = foccpt(np.random.default_rng(2).standard_normal(8))
    assert (ctr.real_mults, ctr.real_adds) == (17, 25)


def test_complex_input_doubles_counts():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    coeffs, ctr = foccpt(z)
    assert ctr == predicted_counts(16, "complex")
    direct = occpt_analysis(z)
    assert np.max(np.abs(coeffs.flat - direct.flat)) <= 1e-9


def test_input_validation():
    with pytest.raises(ValueError):
        foccpt(np.ones(12))
    with pytest.raises(ValueError):
        foccpt(np.ones(1))
    with pytest.raises(ValueError):
        predicted_counts(12)
    with pytest.raises(ValueError):
        predicted_counts(8, "quaternion")


def test_stages_reproduce_butterfly_reference():
    """Each stage as one array pass performs the per-butterfly loop's
    operations in the same order: bit-identical output, equal counters."""
    rng = np.random.default_rng(7)
    for v in range(1, 15):
        N = 2 ** v
        x = rng.standard_normal(N)
        coeffs, ctr = foccpt(x)
        flat, expected = butterfly_foccpt(x)
        assert np.array_equal(coeffs.flat, flat), N
        assert ctr == expected, N
    for v in range(1, 11):
        N = 2 ** v
        z = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        coeffs, ctr = foccpt(z)
        flat, expected = butterfly_foccpt(z)
        assert np.array_equal(coeffs.flat, flat), N
        assert ctr == expected, N
    np.testing.assert_array_equal(_bit_reversed(8), [0, 4, 2, 6, 1, 5, 3, 7])
    assert not any(a.flags.writeable for a in _twiddles(8))


@pytest.mark.parametrize("x", [
    np.ones((4, 4)),
    np.ones((8, 1)),
    np.array([1.0, np.nan, 2.0, 3.0]),
    np.array([1.0, 2.0, np.inf, 3.0, 0.0, 0.0, 0.0, -np.inf]),
    np.array([1.0, 2.0j, complex(np.nan, 0.0), 3.0]),
], ids=["4x4", "8x1", "nan", "inf", "complex-nan"])
def test_rejects_non_signal_input(x):
    with pytest.raises(ValueError, match="1-D signal|finite samples"):
        foccpt(x)


def _pack(x):
    """Packed block from definition sums: slot K = X(K) for K <= M/2,
    slot M-K = Y(K) for 1 <= K <= M/2-1."""
    M = len(x)
    n = np.arange(M)
    out = np.empty(M)
    for K in range(M // 2 + 1):
        out[K] = np.sum(x * np.cos(2 * np.pi * K * n / M))
    for K in range(1, (M + 1) // 2):
        out[M - K] = np.sum(x * np.sin(2 * np.pi * K * n / M))
    return out


def test_combine_reproduces_stage_equations():
    """One butterfly stage on definition-sum inputs equals definition sums
    of the interleaved signal, for every size up to 64."""
    rng = np.random.default_rng(4)
    for M in (4, 8, 16, 32, 64):
        h = rng.standard_normal(M // 2)
        g = rng.standard_normal(M // 2)
        buf = np.concatenate([_pack(h), _pack(g)])
        _combine(buf, M, OpCounter())
        x = np.empty(M)
        x[0::2] = h
        x[1::2] = g
        np.testing.assert_allclose(buf, _pack(x), atol=1e-9)


def test_sine_accumulators_vanish_at_edges():
    # Y_f(0) and Y_f(L/2) are identically zero for any data
    rng = np.random.default_rng(5)
    for L in (4, 8, 16, 32):
        f = rng.standard_normal(L)
        n = np.arange(L)
        assert abs(np.sum(f * np.sin(2 * np.pi * 0 * n / L))) <= 1e-12
        assert abs(np.sum(f * np.sin(2 * np.pi * (L // 2) * n / L))) <= 1e-12


def test_stage_symmetry_closed_forms():
    """The mirrored outputs equal the sign-flipped forward equations,
    recomputed from definitions."""
    rng = np.random.default_rng(6)
    for M in (8, 16, 32, 64):
        L, Q = M // 2, M // 4
        h = rng.standard_normal(L)
        g = rng.standard_normal(L)
        x = np.empty(M)
        x[0::2] = h
        x[1::2] = g
        ph, pg, px = _pack(h), _pack(g), _pack(x)
        for K in range(1, Q):
            th = 2 * np.pi * K / M
            Xh, Xg, Yg = ph[K], pg[K], pg[L - K]
            Yh = ph[L - K]
            assert px[L - K] == pytest.approx(Xh - np.cos(th) * Xg + np.sin(th) * Yg, abs=1e-9)
            assert px[M - (L - K)] == pytest.approx(-Yh + np.cos(th) * Yg + np.sin(th) * Xg, abs=1e-9)


@pytest.mark.parametrize("N", [0, -3, 2.5], ids=["0", "-3", "2.5"])
def test_complexity_table_rejects_bad_size(N):
    with pytest.raises(ValueError, match=f"N must be an integer >= 1, got {N}"):
        complexity_table(N)


def test_complexity_table_examples():
    rows = {r["transform"]: r for r in complexity_table(7)}
    assert (rows[DFT_NPM]["mults"], rows[DFT_NPM]["adds"]) == (196, 182)
    assert (rows[OCCPT]["mults"], rows[OCCPT]["adds"]) == (98, 84)
    rows = {r["transform"]: r for r in complexity_table(8)}
    assert (rows[OCCPT]["mults"], rows[OCCPT]["adds"]) == (34, 50)
    assert rows[OCCPT]["method"] == "fast"
    assert (rows[CCPT1]["mults"], rows[CCPT1]["adds"]) == (128, 112)
    rows = {r["transform"]: r for r in complexity_table(1)}
    assert all(r["mults"] == 0 and r["adds"] == 0 for r in rows.values())
