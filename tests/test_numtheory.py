"""Tests for integer arithmetic helpers.

Oracles used here are deliberately independent of the implementation:
a sqrt-bounded divisor scan, a self-contained sieve, and sympy's
primality test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normdeg.errors import SieveExhaustedError
from normdeg.numtheory import (
    _pollard_brent,
    divisors,
    factorize,
    format_ratio,
    gcd_divisor_sum,
    is_prime,
    nth_primes,
    parse_ratio,
    sigma,
    tau,
)


def brute_divisors(n: int) -> list[int]:
    small = []
    large = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def brute_sieve(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return [i for i, f in enumerate(flags) if f]


class TestFactorize:
    def test_examples(self):
        assert factorize(1) == []
        assert factorize(2) == [(2, 1)]
        assert factorize(12) == [(2, 2), (3, 1)]
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]

    def test_mersenne_prime_cofactor(self):
        n = 2**61 - 1
        assert sympy.isprime(n)  # independent check
        assert factorize(n) == [(n, 1)]

    def test_large_semiprime(self):
        p, q = 1_000_003, 998_244_353
        assert factorize(p * q) == [(p, 1), (q, 1)]

    # Pollard-Brent meets these only by doubling its lag each round: their
    # rho cycles are far longer than one batch of 128 steps
    @pytest.mark.parametrize("p, q", [(10000019, 10000079), (1000000007, 1000000009)])
    def test_semiprimes_past_trial_division(self, p, q):
        assert sympy.isprime(p) and sympy.isprime(q)
        assert _pollard_brent(p * q) in (p, q)
        assert factorize(p * q) == [(p, 1), (q, 1)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_reconstructs_and_primes(self, n):
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert sympy.isprime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})

    # every prime above 37 is left to Miller-Rabin and Pollard-Brent
    @given(st.lists(st.tuples(st.integers(41, 10**7).map(lambda k: sympy.prevprime(k + 1)),
                              st.integers(1, 3)), min_size=1, max_size=3),
           st.integers(1, 1000))
    @example([(41, 5)], 1)
    @example([(1000003, 2)], 1)
    @example([(2**31 - 1, 2)], 1)
    @example([(10**17 + 3, 1)], 1)
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_sympy_past_the_trial_primes(self, powers, cofactor):
        n = cofactor * math.prod(p**e for p, e in powers)
        assert factorize(n) == sorted(sympy.factorint(n).items())

    def test_is_prime_agrees_with_sympy(self):
        for n in list(range(2, 500)) + [2**31 - 1, 2**31 + 11, 10**12 + 39]:
            assert is_prime(n) == sympy.isprime(n)


class TestDivisorFunctions:
    def test_examples(self):
        assert tau(1) == 1
        assert tau(12) == 6
        assert sigma(1) == 1
        assert sigma(12) == 28
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert tau(2**9) == 10  # prime powers: tau(p^k) = k+1

    def test_definitional_up_to_1e4(self):
        # tau and sigma against an independent divisor enumeration
        for n in range(1, 10_001):
            ds = brute_divisors(n)
            assert divisors(n) == ds
            assert tau(n) == len(ds)
            assert sigma(n) == sum(ds)

    def test_gcd_divisor_sum_examples(self):
        assert gcd_divisor_sum(7, 7) == 8
        assert gcd_divisor_sum(1, 5) == 1

    def test_gcd_divisor_sum_degenerate_arguments(self):
        for n in range(1, 1001):
            assert gcd_divisor_sum(n, 1) == tau(n)
            assert gcd_divisor_sum(n, n) == sigma(n)

    def test_tau_sigma_gap_inequalities(self):
        # used to separate dihedral degree values from 1/2 later on
        for n in range(3, 10_001, 2):
            assert tau(n) + 2 <= sigma(n)
        for n in range(6, 10_001, 2):
            assert tau(n) + 6 <= sigma(n)


class TestPrimes:
    def test_initial_segment(self):
        assert nth_primes(0, 4) == [2, 3, 5, 7]
        assert nth_primes(3, 1) == [7]
        assert nth_primes(24, 1) == [97]

    def test_against_independent_sieve(self):
        expected = brute_sieve(10_000)
        assert nth_primes(0, len(expected)) == expected

    def test_deterministic_and_consecutive(self):
        a = nth_primes(100, 50)
        b = nth_primes(100, 50)
        assert a == b
        assert all(x < y for x, y in zip(a, a[1:]))

    def test_exhaustion_signal(self):
        with pytest.raises(SieveExhaustedError):
            nth_primes(10**9, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            nth_primes(-1, 1)


class TestExactRatio:
    def test_reduced_form_and_positive_denominator(self):
        assert format_ratio(Fraction(6, -4)) == "-3/2"
        assert parse_ratio("4/-2") == Fraction(-2)
        assert format_ratio(parse_ratio("4/-2")) == "-2/1"

    def test_format_parse_round_trip(self):
        assert format_ratio(Fraction(7, 16)) == "7/16"
        assert format_ratio(Fraction(1)) == "1/1"
        assert parse_ratio("7/16") == Fraction(7, 16)
        assert parse_ratio("3") == 3
        with pytest.raises(ValueError):
            parse_ratio("1/2/3")

    @given(
        st.integers(-10**9, 10**9),
        st.integers(1, 10**9),
        st.integers(-10**9, 10**9),
        st.integers(1, 10**9),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_arithmetic(self, a, b, c, d):
        x = parse_ratio(f"{a}/{b}")
        y = parse_ratio(format_ratio(Fraction(c, d)))
        # cross-multiplication identities hold exactly
        assert (x + y) * b * d == a * d + c * b
        assert (x * y) * b * d == a * c
        assert (x < y) == (a * d < c * b)
        assert math.gcd(abs(x.numerator), x.denominator) == 1
        assert x.denominator > 0
