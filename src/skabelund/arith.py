"""Exact integer arithmetic helpers: factorization, divisors, p-adic valuations.

Everything here works on Python ints, so all results stay exact for the
magnitudes this package produces (up to ~q^4 for the Suzuki family and ~q^6
for the Ree family, well beyond 64 bits for large field sizes).

is_prime and factorize use trial division, so both keep an LRU cache:
their callers ask about the same few numbers (the primes of m, m itself and
q-1) over and over, and no record class stores a result.
"""

from __future__ import annotations

import functools
import math
from typing import Union

# v_p(0) = infinity: every power of p divides 0.  Returned by valuation() so
# that min(valuation(p, x), valuation(p, n)) is correct when x == 0.
INFINITE_VALUATION = math.inf

Valuation = Union[int, float]

Factorization = tuple[tuple[int, int], ...]


@functools.lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic primality by trial division (intended for n up to ~10^14).

    Cached: valuation() re-validates its prime argument on every call, and
    its callers ask about the same few primes of m over and over: the
    oracle's CRT-product check once per sampled subgroup, power and prime,
    and the Singer square once per divisor of m and prime of m.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@functools.lru_cache(maxsize=4096)
def factorize(n: int) -> Factorization:
    """Factor n >= 1 into ((prime, exponent), ...) with primes ascending.

    factorize(1) == () (the empty product).  Cached: CurveParams.m_factors
    is read once per Singer square and by the oracle, and divisors(m) and
    divisors(q-1) factor again on every call; with the cache, each n is
    trial-divided once per process.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: need a positive integer")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # trial division over 6k+-1 candidates
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def valuation(p: int, n: int) -> Valuation:
    """Largest e such that p**e divides n; INFINITE_VALUATION when n == 0."""
    if not is_prime(p):
        raise ValueError(f"valuation needs a prime, got {p}")
    if n == 0:
        return INFINITE_VALUATION
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors of {n} undefined: need a positive integer")
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)

