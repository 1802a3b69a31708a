from math import gcd

import numpy as np
import pytest

from ccpt.ccps import (COS, SIN, CcpsSpec, ccps, ccps1, ccps2,
                       ccps_inner_product, ccps_spectrum, pair_scale,
                       ramanujan_sum)
from ccpt.numtheory import residue_sets

from oracles import brute_dft, shifted_inner_products


def all_specs(max_L):
    out = []
    for L in range(1, max_L + 1):
        for k in residue_sets(L).half:
            out.append(CcpsSpec(L, k, COS))
            out.append(CcpsSpec(L, k, SIN))
    return out


def test_ccps1_examples():
    np.testing.assert_allclose(ccps1(3, 1, 3), [2, -1, -1], atol=1e-12)
    np.testing.assert_allclose(ccps1(1, 1, 4), [1, 1, 1, 1], atol=1e-12)
    np.testing.assert_allclose(ccps1(2, 1, 4), [1, -1, 1, -1], atol=1e-12)


def test_ccps2_examples():
    np.testing.assert_allclose(ccps2(4, 1, 4), [0, 2, 0, -2], atol=1e-12)
    np.testing.assert_allclose(ccps2(1, 1, 3), [1, 1, 1], atol=1e-12)
    np.testing.assert_allclose(ccps2(2, 1, 4), [1, -1, 1, -1], atol=1e-12)


def test_invalid_residue_rejected():
    with pytest.raises(ValueError):
        ccps1(6, 2, 6)  # gcd(2, 6) != 1
    with pytest.raises(ValueError):
        ccps2(5, 0, 5)


def test_periods_and_residues_must_be_integers():
    for call in (lambda: ccps1(5.0, 1, 10), lambda: ccps2(5.0, 1, 10),
                 lambda: ccps(5.0, 1, COS, 10), lambda: ccps_spectrum(5.0, 1, COS),
                 lambda: ramanujan_sum(4.0), lambda: CcpsSpec(5.0, 1, COS)):
        with pytest.raises(ValueError, match="period must be an integer >= 1, got 5.0|got 4.0"):
            call()
    for call in (lambda: ccps1(5, 1.0, 10), lambda: ccps2(5, 1.0, 10),
                 lambda: ccps_spectrum(5, 1.0, SIN)):
        with pytest.raises(ValueError, match="residue k must be an integer >= 1, got 1.0"):
            call()
    for L in ("5", "2"):
        with pytest.raises(ValueError, match="period must be an integer >= 1"):
            ccps2(L, 1, 10)
    assert np.array_equal(ccps1(np.int64(5), np.int64(2), 5), ccps1(5, 2, 5))


def test_kind_rule_has_one_message():
    for call in (lambda: ccps(5, 1, "tan"), lambda: CcpsSpec(5, 1, "tan"),
                 lambda: ccps_spectrum(5, 1, "tan")):
        with pytest.raises(ValueError, match="^kind must be 'cos' or 'sin', got 'tan'$"):
            call()


def test_ramanujan_examples():
    np.testing.assert_allclose(ramanujan_sum(1, 3), [1, 1, 1], atol=1e-12)
    np.testing.assert_allclose(ramanujan_sum(4, 4), [2, 0, -2, 0], atol=1e-12)
    np.testing.assert_allclose(ramanujan_sum(2, 4), [1, -1, 1, -1], atol=1e-12)


def test_ramanujan_sum_is_its_rounded_coprime_cosine_sum():
    # the definition: phi(q) cosines, whose float sum lies within rounding of
    # the integer c_q(n)
    for q in range(1, 61):
        n = np.arange(3 * q)
        cosines = sum(np.cos(2 * np.pi * k * n / q) for k in range(1, q + 1) if gcd(k, q) == 1)
        np.testing.assert_array_equal(ramanujan_sum(q, 3 * q), np.rint(cosines))


def test_lengths_must_be_nonnegative_integers():
    for f in (ccps1, ccps2, ramanujan_sum):
        args = (5,) if f is ramanujan_sum else (5, 1)
        assert len(f(*args, 0)) == 0
        assert len(f(*args, np.int64(7))) == 7
        for length in (-1, -3, 2.0, 2.5, "4"):
            with pytest.raises(ValueError, match="length must be an integer >= 0"):
                f(*args, length)


def test_ramanujan_near_integer():
    for q in range(1, 40):
        vals = ramanujan_sum(q)
        np.testing.assert_array_equal(vals, np.rint(vals))


def test_spectrum_examples():
    spec = ccps_spectrum(5, 2, COS)
    expected = np.zeros(5, dtype=complex)
    expected[2] = expected[3] = 5
    np.testing.assert_allclose(spec, expected, atol=1e-12)

    spec = ccps_spectrum(5, 2, SIN)
    expected = np.zeros(5, dtype=complex)
    expected[2], expected[3] = -5j, 5j
    np.testing.assert_allclose(spec, expected, atol=1e-12)


def test_spectrum_against_brute_dft():
    for L in range(1, 16):
        for k in residue_sets(L).half:
            for kind, gen in ((COS, ccps1), (SIN, ccps2)):
                np.testing.assert_allclose(
                    ccps_spectrum(L, k, kind), brute_dft(gen(L, k, L)), atol=1e-9)



def test_spectrum_residue_rule_is_the_lower_half():
    """For a coprime l >= 1, being a lower coprime residue of L > 2 is
    l <= L // 2."""
    for L in range(1, 80):
        for l in range(1, 3 * L):
            if gcd(l, L) != 1:
                continue
            if L > 2 and l not in residue_sets(L).half:
                with pytest.raises(ValueError, match="not in the lower coprime half"):
                    ccps_spectrum(L, l, COS)
            else:
                assert ccps_spectrum(L, l, SIN).shape == (L,)

def test_periodicity_in_n_and_k():
    for L in range(1, 20):
        for k in residue_sets(L).half:
            for gen in (ccps1, ccps2):
                seq = gen(L, k, 3 * L)
                np.testing.assert_array_equal(seq[:L], seq[L:2 * L])
                np.testing.assert_array_equal(gen(L, k + L, 2 * L), seq[:2 * L])


def test_even_length_half_period_sign():
    for L in (4, 6, 8, 10, 12, 18):
        for k in residue_sets(L).half:
            for gen in (ccps1, ccps2):
                seq = gen(L, k, 2 * L)
                shifted = gen(L, k, 2 * L + L // 2)[L // 2:]
                np.testing.assert_allclose(shifted[:L], (-1.0) ** k * seq[:L], atol=1e-9)


def test_symmetry():
    for L in range(3, 20):
        for k in residue_sets(L).half:
            c1 = ccps1(L, k, L)
            c2 = ccps2(L, k, L)
            for n in range(L):
                assert c1[(L - n) % L] == pytest.approx(c1[n], abs=1e-10)
                assert c2[(L - n) % L] == pytest.approx(-c2[n], abs=1e-10)


def test_zero_mean_and_energy():
    for L in range(1, 25):
        for k in residue_sets(L).half:
            for gen in (ccps1, ccps2):
                seq = gen(L, k, L)
                if L > 1:
                    assert abs(seq.sum()) < 1e-9
                assert np.sum(seq ** 2) == pytest.approx(2 * L * pair_scale(L), abs=1e-9)


def test_inner_product_closed_form_vs_direct_summation():
    """Same-kind and cross-kind closed forms match explicit summation for
    all periods up to 24, all residues, shifts 0..4."""
    specs = all_specs(24)
    base = {s: s.sequence(s.L) for s in specs}
    worst = 0.0
    for sa in specs:
        for sb in specs:
            direct = shifted_inner_products(base[sa], base[sb])
            for la in range(5):
                for lb in range(5):
                    closed = ccps_inner_product(sa, la, sb, lb)
                    worst = max(worst, abs(direct[la, lb] - closed))
    assert worst <= 1e-10


def test_inner_product_examples():
    assert ccps_inner_product(CcpsSpec(3, 1, COS), 0, CcpsSpec(5, 1, COS), 0) == 0.0
    assert ccps_inner_product(CcpsSpec(3, 1, COS), 0, CcpsSpec(3, 1, COS), 0) == pytest.approx(6.0)
    assert ccps_inner_product(CcpsSpec(5, 2, COS), 0, CcpsSpec(5, 2, SIN), 0) == pytest.approx(0.0)


@pytest.mark.parametrize("shift", [0.5, True, "1", None, np.float64(2.0)])
def test_inner_product_takes_integer_shifts(shift):
    """A shift of 0.5 or True used to return a number."""
    spec = CcpsSpec(5, 2, COS)
    for shifts in ((shift, 0), (0, shift)):
        with pytest.raises(ValueError, match="shift must be an integer, got"):
            ccps_inner_product(spec, shifts[0], spec, shifts[1])
    assert ccps_inner_product(spec, np.int64(-3), spec, 2) == ccps_inner_product(spec, 0, spec, 5)


def test_generic_ccps_dispatch():
    np.testing.assert_array_equal(ccps(5, 2, COS, 5), ccps1(5, 2, 5))
    np.testing.assert_array_equal(ccps(5, 2, SIN, 5), ccps2(5, 2, 5))
    with pytest.raises(ValueError):
        ccps(5, 2, "tan", 5)
