import numpy as np
import pytest

from ccpt.numtheory import (cyclotomic, divisors, gcd, lcm_list, mobius, prime_factors,
                            radical, residue_sets, totient)


def test_gcd_examples():
    assert gcd(1, 7) == 1
    assert gcd(12, 18) == 6
    assert gcd(5, 5) == 5


def test_gcd_exhaustive_divisor_check():
    # oracle: largest d dividing both
    for a, b in [(12, 18), (54, 36), (17, 31), (100, 85)]:
        common = max(d for d in range(1, min(a, b) + 1) if a % d == 0 and b % d == 0)
        assert gcd(a, b) == common


def test_totient_examples():
    assert totient(1) == 1
    assert totient(9) == 6
    assert totient(18) == 6


def test_totient_brute_force():
    for n in (9, 18, 54, 100):
        count = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert totient(n) == count


def test_divisors_examples():
    assert divisors(54) == [1, 2, 3, 6, 9, 18, 27, 54]
    assert divisors(1) == [1]
    assert divisors(8) == [1, 2, 4, 8]


def test_divisors_trial_division_oracle():
    for n in (54, 8, 97, 360):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_residue_sets_examples():
    assert residue_sets(9).half == (1, 2, 4)
    assert residue_sets(2).half == (1,)
    assert residue_sets(18).half == (1, 5, 7)


def test_residue_sets_structure():
    for n in range(3, 64):
        rs = residue_sets(n)
        assert len(rs.full) == totient(n)
        assert len(rs.half) == totient(n) // 2
        assert sorted(rs.half + rs.complement) == sorted(rs.full)
        assert not set(rs.half) & set(rs.complement)
        assert all(1 <= k <= n and gcd(k, n) == 1 for k in rs.full)
        assert all(k <= n // 2 for k in rs.half)


def test_residue_sets_degenerate():
    assert residue_sets(1).half == (1,)
    assert residue_sets(1).full == (1,)
    assert residue_sets(2).full == (1,)


def test_lcm_list_examples():
    assert lcm_list([3, 9, 18]) == 18
    assert lcm_list([5, 8]) == 40
    assert lcm_list([7]) == 7


def test_lcm_list_empty_rejected():
    with pytest.raises(ValueError):
        lcm_list([])


def test_totient_divisor_sum_identity():
    for n in range(1, 513):
        assert sum(totient(d) for d in divisors(n)) == n


def test_totient_even_for_n_at_least_3():
    for n in range(3, 513):
        assert totient(n) % 2 == 0


def test_divisors_ascending_and_closed():
    for n in (12, 54, 64, 210):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert ds[0] == 1 and ds[-1] == n
        assert all(n % d == 0 for d in ds)


def test_totient_matches_gcd_count_to_300():
    for n in range(1, 301):
        assert totient(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_factorization_functions_against_trial_division():
    for n in range(1, 301):
        primes = tuple(q for q in range(2, n + 1) if n % q == 0
                       and all(q % f for f in range(2, q)))
        assert prime_factors(n) == primes
        assert radical(n) == int(np.prod(primes, dtype=np.int64))
        squarefree = all(n % (q * q) for q in primes)
        assert mobius(n) == ((-1) ** len(primes) if squarefree else 0)


def test_mobius_sums_to_zero_over_divisors():
    for n in range(1, 301):
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_cyclotomic_examples():
    assert cyclotomic(1).tolist() == [-1, 1]
    assert cyclotomic(2).tolist() == [1, 1]
    assert cyclotomic(12).tolist() == [1, 0, -1, 0, 1]
    # the first cyclotomic polynomial with a coefficient other than 0 and +-1
    assert cyclotomic(105).min() == -2
    big = cyclotomic(65537)
    assert big.dtype == np.int64 and len(big) == 65537 and np.all(big == 1)


def test_cyclotomic_divisor_product_is_z_n_minus_1():
    for n in range(1, 301):
        prod = np.ones(1, dtype=np.int64)
        for d in divisors(n):
            phi = cyclotomic(d)
            assert len(phi) == totient(d) + 1 and phi[-1] == 1
            prod = np.convolve(prod, phi)
        want = np.zeros(n + 1, dtype=np.int64)
        want[0], want[n] = -1, 1
        np.testing.assert_array_equal(prod, want, err_msg=f"n={n}")


def test_cyclotomic_vanishes_at_primitive_roots():
    for n in range(1, 301):
        phi = cyclotomic(n)
        k = np.array([k for k in range(1, n + 1) if gcd(k, n) == 1])
        values = np.polynomial.polynomial.polyval(np.exp(2j * np.pi * k / n), phi)
        assert np.max(np.abs(values)) <= 1e-9 * np.abs(phi).sum(), n


@pytest.mark.parametrize("f", [totient, mobius, radical, prime_factors, cyclotomic, divisors])
def test_factorization_functions_reject_nonpositive(f):
    for n in (0, 12.0):
        with pytest.raises(ValueError, match="requires n >= 1"):
            f(n)
