"""Slow reference versions of package functions, kept for the tests that pin
the package to them: the product of a factorization, the capped p-part
product that a gcd equals, the per-element Singer-square delta, and the
element set of a skew subgroup's bitset closure."""

from itertools import compress

from skabelund.arith import valuation
from skabelund.catalog import N2SkewCyclic, N2SkewFull
from skabelund.iota import iota_sigma_element
from skabelund.oracle import _close_skew, _skew_generators

# the skew descriptor class of each variant name the tests loop over
SKEW_CLASSES = {"full": N2SkewFull, "cyclic": N2SkewCyclic}


def product_of(factors):
    """Inverse of arith.factorize: multiply the prime powers back together."""
    n = 1
    for p, e in factors:
        n *= p**e
    return n


def capped_p_parts(x, n, primes):
    """Product over p of primes of p^min(v_p(x), v_p(n)), for n != 0.

    Every power of p divides x = 0, so there the p-part is p^v_p(n).  Built
    from arith.valuation alone, it shares nothing with math.gcd (the closed
    form) or with the oracle suite's own division loop (suite._p_part).
    """
    prod = 1
    for p in primes:
        cap = valuation(p, n)
        prod *= p**cap if x == 0 else p ** min(valuation(p, x), cap)
    return prod


def delta_sigma_cm_direct(params, se):
    """Kernel-free variant of oracle.delta_sigma_cm_bruteforce for small
    subgroups: sums iota_sigma_element per element, pinning the kernels to
    the iota primitive."""
    se.validate(params.m)
    m, n1, n2, a = params.m, se.n1, se.n2, se.a
    total = 0
    for i in range(m // n1):
        for j in range(m // n2):
            if i == 0 and j == 0:
                continue
            total += iota_sigma_element(params, (i * n1) % m, (i * a + j * n2) % m)
    return total


# bin() digits '0'/'1' as the bytes 0/1, selectors for itertools.compress
_BIT_DIGITS = bytes.maketrans(b"01", bytes((0, 1)))


def bit_positions(bits):
    """Positions of the set bits of a non-negative int, ascending."""
    digits = bin(bits)[:1:-1].encode().translate(_BIT_DIGITS)
    return compress(range(len(digits)), digits)


def materialize_skew_subgroup(params, variant, i, w):
    """Element set of H_{i,w} (variant 'full') or H'_{i,w} ('cyclic').

    Elements are triples (a, b, e) meaning the affine map x -> a*x + b on F8
    (an element of the order-56 subgroup of N2) paired with tau^e, read off
    the buckets of the oracle's bitset closure (oracle._close_skew).
    """
    buckets = _close_skew(params.m, _skew_generators(params, SKEW_CLASSES[variant](i, w)))
    return {(a, b, e) for (a, b), bits in buckets.items() for e in bit_positions(bits)}
