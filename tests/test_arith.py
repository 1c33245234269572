import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skabelund.arith import divisors, factorize, is_prime, valuation

from references import capped_p_parts, product_of


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(481) == ((13, 1), (37, 1))
    assert factorize(217) == ((7, 1), (31, 1))
    assert factorize(2107) == ((7, 2), (43, 1))
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300)
def test_factorize_product_roundtrip(n):
    factors = factorize(n)
    assert product_of(factors) == n
    primes = [p for p, _ in factors]
    assert primes == sorted(primes) and len(set(primes)) == len(primes)
    assert all(is_prime(p) for p in primes)
    assert all(e >= 1 for _, e in factors)


def test_valuation_examples():
    assert valuation(5, 50) == 2
    assert valuation(5, 7) == 0


def test_valuation_of_zero_raises():
    # v_p(0) is infinite: every power of p divides 0, and no int says so
    with pytest.raises(ValueError) as info:
        valuation(5, 0)
    assert str(info.value) == "valuation of 0 at 5 is infinite"


def test_capped_p_parts_takes_zero_as_divisible_by_every_power():
    assert capped_p_parts(0, 25, [5]) == 25
    assert capped_p_parts(0, 5 * 25, [5]) == 125
    assert capped_p_parts(0, 12, [2, 3]) == 12
    assert capped_p_parts(50, 25, [5]) == 25
    assert capped_p_parts(10, 125 * 4, [2, 5]) == 10
    assert capped_p_parts(7, 25, [5]) == 1


def test_is_prime_agrees_with_a_sieve():
    limit = 10**4
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, limit, p))
    assert [n for n in range(-2, limit) if is_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]


def test_valuation_rejects_composite():
    with pytest.raises(ValueError):
        valuation(6, 12)


@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=10**4),
)
def test_valuation_of_exact_power(p, e, k):
    if k % p == 0:
        k += 1
    assert valuation(p, p**e * k) == e


def test_divisors_examples():
    assert divisors(5) == [1, 5]
    assert divisors(25) == [1, 5, 25]
    assert divisors(481) == [1, 13, 37, 481]
    assert divisors(1) == [1]
    with pytest.raises(ValueError):
        divisors(0)


@given(st.integers(min_value=1, max_value=5000))
def test_divisors_are_exactly_the_divisors(n):
    assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_arbitrary_precision():
    assert math.prod(p**e for p, e in factorize(2**64 + 2**32)) == 2**64 + 2**32
