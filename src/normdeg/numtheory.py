"""Integer arithmetic: factorization, divisor functions, primes, ratio text.

All functions are pure and exact; no floating point is used anywhere.
Ratios are stdlib Fractions, always reduced with a positive denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SieveExhaustedError

# The primes up to 37: the deterministic Miller-Rabin witness set (valid far
# beyond 2**64), and the only primes factorize divides out by trial.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def format_ratio(q: Fraction) -> str:
    """Render a ratio as 'num/den', denominator always present."""
    return f"{q.numerator}/{q.denominator}"


def parse_ratio(text: str) -> Fraction:
    """Parse 'a/b' or a bare integer into an exact ratio."""
    parts = text.strip().split("/")
    if len(parts) == 1:
        return Fraction(int(parts[0]))
    if len(parts) == 2:
        return Fraction(int(parts[0]), int(parts[1]))
    raise ValueError(f"not a ratio: {text!r}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """Return a nontrivial factor of composite odd n (Brent, BIT 20, 1980)."""
    m = 128  # steps per gcd
    c = 1
    while True:
        y = 2
        r = 1
        d = 1
        q = 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                d = math.gcd(q, n)
            r *= 2  # the lag doubles each round, so cycles of any length are met
        if d == n:
            # backtrack one step at a time
            d = 1
            y = ys
            while d == 1:
                y = (y * y + c) % n
                d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1  # cycle degenerated; retry with the next polynomial


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_brent(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs with primes increasing.

    Trial division by the primes in _MR_BASES (2..37), then Miller-Rabin
    and Pollard-Brent on the cofactor: every composite part left runs
    through _pollard_brent. factorize(1) == [].
    """
    if n < 1:
        raise ValueError(f"factorize requires a positive integer, got {n}")
    out: dict[int, int] = {}
    for p in _MR_BASES:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    _factor_into(n, out)
    return sorted(out.items())


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    divs = [1]
    for p, e in factorize(n):
        pk = 1
        new = []
        for _ in range(e):
            pk *= p
            new.extend(d * pk for d in divs)
        divs.extend(new)
    return sorted(divs)


def tau(n: int) -> int:
    """Number of divisors of n."""
    out = 1
    for _, e in factorize(n):
        out *= e + 1
    return out


def sigma(n: int) -> int:
    """Sum of divisors of n."""
    out = 1
    for p, e in factorize(n):
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def gcd_divisor_sum(n: int, r: int) -> int:
    """Sum of gcd(k, r) over all divisors k of n."""
    return sum(math.gcd(k, r) for k in divisors(n))


_HARD_LIMIT = 1 << 26
_HARD_COUNT = 3_957_809  # primes below _HARD_LIMIT, counted by sieving


def nth_primes(start_index: int, count: int) -> list[int]:
    """`count` consecutive primes starting at 0-based `start_index` (p_0 = 2).

    Sieves from 2**16, doubling the limit until it holds enough primes.
    """
    if start_index < 0 or count < 0:
        raise ValueError("prime indices must be nonnegative")
    need = start_index + count
    if need > _HARD_COUNT:
        raise SieveExhaustedError(
            f"prime index {need - 1} beyond sieve bound {_HARD_LIMIT}")
    limit = 1 << 16
    while True:
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, math.isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
        primes = [i for i in range(limit + 1) if sieve[i]]
        if len(primes) >= need:
            return primes[start_index:need]
        limit *= 2
