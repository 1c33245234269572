"""Exact integer arithmetic helpers: factorization, divisors, p-adic valuations.

Everything here takes and returns Python ints, so all results stay exact
for the magnitudes this package produces (up to ~q^4 for the Suzuki family
and ~q^6 for the Ree family, well beyond 64 bits for large field sizes).
valuation(p, 0) is infinite and has no int, so it raises.

factorize is the package's one trial division, and it keeps an LRU cache:
its callers ask about the same few numbers (the primes of m, m itself and
q-1) over and over, and no record class stores a result.  is_prime(n) reads
factorize(n), so it shares that cache; valuation(p, n) checks p with it.
"""

from __future__ import annotations

import functools

Factorization = tuple[tuple[int, int], ...]


def is_prime(n: int) -> bool:
    """Whether n is prime: n >= 2 and factorize(n), which caches, is n alone."""
    return n >= 2 and factorize(n) == ((n, 1),)


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


def valuation(p: int, n: int) -> int:
    """Largest e such that p**e divides n != 0."""
    if not is_prime(p):
        raise ValueError(f"valuation needs a prime, got {p}")
    if n == 0:
        raise ValueError(f"valuation of 0 at {p} is infinite")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)

