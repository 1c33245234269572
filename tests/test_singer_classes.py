"""The Singer-square class evaluator against per-subgroup evaluation."""

import math
from collections import Counter, defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skabelund import singer
from skabelund.arith import divisors, is_prime, valuation
from skabelund.catalog import (
    GenusRecord,
    SigmaCm,
    StandardExponents,
    enumerate_descriptors,
    enumerate_standard_exponents,
    subgroup_order_sigma,
)
from skabelund.curves import CurveParams, Family, make_params
from skabelund.singer import delta_sigma_cm, evaluate_singer_square, singer_block
from skabelund.spectrum import compute_spectrum, evaluate_descriptor

# every (family, s) within the default caps of the CLI
WITHIN_CAPS = [(Family.SUZUKI, s) for s in range(1, 7)] + [(Family.REE, s) for s in range(1, 6)]


def class_key(block, a):
    return tuple(res.get(a % pe, 0) for pe, res in zip(block.moduli, block.residues))


@pytest.mark.parametrize("family,s", WITHIN_CAPS, ids=lambda x: getattr(x, "value", x))
def test_class_multiset_equals_per_subgroup_evaluation(family, s):
    params = make_params(family, s)
    expected = Counter(
        (subgroup_order_sigma(params.m, se), delta_sigma_cm(params, se))
        for se in enumerate_standard_exponents(params.m)
    )
    square = evaluate_singer_square(params)
    counts = Counter()
    for block, records in zip(square.blocks, square.class_records):
        for key, cls in block.classes.items():
            counts[records[key].order, records[key].delta] += cls.count
    assert counts == expected


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_records_equal_per_descriptor_evaluation(family, s):
    params = make_params(family, s)
    expected = tuple(evaluate_descriptor(params, d) for d in enumerate_descriptors(params))
    assert compute_spectrum(family, s).records == expected
    sigma = tuple(r for r in expected if isinstance(r.descriptor, SigmaCm))
    assert compute_spectrum(family, s, "sigma-cm").records == sigma


def test_class_records_belong_to_their_class():
    params = make_params(Family.REE, 3)  # m = 7^2 * 43
    square = evaluate_singer_square(params)
    for block, records in zip(square.blocks, square.class_records):
        for key, cls in block.classes.items():
            assert class_key(block, cls.a) == key
            se = StandardExponents(block.n1, block.n2, cls.a)
            assert records[key] == evaluate_descriptor(params, SigmaCm(se))


def delta_by_valuations(params, se):
    """delta_sigma_cm with the congruence count formed prime by prime, as
    prod_l p_l^min(v_{p_l}(n1*q^d - a), v_{p_l}(n2)): the reference for the
    one-gcd-per-power evaluation."""
    m, n1, n2, a = params.m, se.n1, se.n2, se.a
    total = (m // n2 - 1) * params.tau_iota
    for qd in params.q_powers:
        x = n1 * qd - a
        prod = 1
        for p, _e in params.m_factors:
            prod *= p ** int(min(valuation(p, x), valuation(p, n2)))
        assert m * prod % (n1 * n2) == 0
        total += (m * prod // (n1 * n2) - 1) * m
    return total


@pytest.mark.parametrize("family,s", WITHIN_CAPS, ids=lambda x: getattr(x, "value", x))
def test_class_members_match_valuation_reference(family, s):
    params = make_params(family, s)
    square = evaluate_singer_square(params)
    checked = 0
    for block, records in zip(square.blocks, square.class_records):
        for key, cls in block.classes.items():
            se = StandardExponents(block.n1, block.n2, cls.a)
            expected = delta_by_valuations(params, se)
            assert delta_sigma_cm(params, se) == expected
            assert records[key].delta == expected
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("s", [1, 2, 3])
def test_every_triple_matches_valuation_reference(family, s):
    params = make_params(family, s)
    triples = list(enumerate_standard_exponents(params.m))
    assert triples
    for se in triples:
        assert delta_sigma_cm(params, se) == delta_by_valuations(params, se)


def test_indivisible_congruence_count_is_caught(monkeypatch):
    # the count m*gcd/(n1*n2) is an integer for every valid triple; a wrong
    # gcd must fail loudly instead of being floored into a plausible delta
    params = make_params(Family.SUZUKI, 1)
    m = params.m
    monkeypatch.setattr(singer, "gcd", lambda x, n: 1)
    with pytest.raises(AssertionError, match="not divisible"):
        delta_sigma_cm(params, StandardExponents(m, m, 0))


# the factorizations of m for Suzuki s <= 10 and Ree s <= 7
CURVE_M_FACTORS = [
    make_params(family, s).m_factors
    for family, s_max in ((Family.SUZUKI, 10), (Family.REE, 7))
    for s in range(1, s_max + 1)
]


@st.composite
def divisor_of_curve_m(draw):
    """(factorization of m, n2) with n2 | m for the m of one curve."""
    factors = draw(st.sampled_from(CURVE_M_FACTORS))
    n2 = 1
    for p, e in factors:
        n2 *= p ** draw(st.integers(min_value=0, max_value=e))
    return factors, n2


def around(n):
    """0, values up to 10^40 in size of either sign, and multiples of n."""
    return st.one_of(
        st.just(0),
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=-(10**30), max_value=10**30).map(lambda k: k * n),
        st.integers(min_value=-1000, max_value=1000).map(lambda k: k * n),
    )


@given(st.data())
@settings(max_examples=500)
def test_gcd_is_the_product_of_capped_valuations(data):
    factors, n2 = data.draw(divisor_of_curve_m())
    x = data.draw(around(n2))
    prod = 1
    for p, _e in factors:
        prod *= p ** int(min(valuation(p, x), valuation(p, n2)))
    assert math.gcd(x, n2) == prod


PRIMES = [p for p in range(2, 200) if is_prime(p)] + sorted(
    {p for factors in CURVE_M_FACTORS for p, _e in factors}
)


@given(st.data())
@settings(max_examples=500)
def test_gcd_with_a_prime_power_is_its_p_part(data):
    p = data.draw(st.sampled_from(PRIMES))
    e = data.draw(st.integers(min_value=1, max_value=6))
    x = data.draw(around(p**e))
    assert math.gcd(x, p**e) == p ** min(valuation(p, x), e)


@st.composite
def synthetic_params(draw):
    """CurveParams with a random small m and q_powers drawn from the residues
    coprime to m; the rest of the fields are not read by the delta formula."""
    m = draw(st.integers(min_value=1, max_value=400))
    units = [x for x in range(m) if math.gcd(x, m) == 1]
    q_powers = draw(st.lists(st.sampled_from(units), min_size=1, max_size=6))
    return CurveParams(
        family=Family.SUZUKI,
        s=1,
        q0=2,
        q=8,
        m=m,
        field_exponent=4,
        ambient_degree=0,
        q_powers=tuple(q_powers),
        aut_order=1,
    )


@given(synthetic_params())
@settings(max_examples=100, deadline=None)
@example(CurveParams(Family.SUZUKI, 1, 2, 8, 360, 4, 0, (1, 7, 49, 343 % 360), 1))
def test_classes_match_delta_sigma_cm_on_synthetic_params(params):
    m = params.m
    members = defaultdict(list)
    for se in enumerate_standard_exponents(m):
        members[se.n1, se.n2].append(se)
    for n1 in divisors(m):
        for n2 in divisors(m):
            block = singer_block(params, n1, n2)
            for key, cls in block.classes.items():
                assert class_key(block, cls.a) == key
            for se in members[n1, n2]:
                cls = block.classes[class_key(block, se.a)]
                member = StandardExponents(n1, n2, cls.a)
                assert delta_sigma_cm(params, se) == delta_sigma_cm(params, member)
            counted = Counter(class_key(block, se.a) for se in members[n1, n2])
            assert counted == {key: c.count for key, c in block.classes.items()}


def test_reports_compare_and_hash_by_value():
    a, b = compute_spectrum(Family.REE, 2), compute_spectrum(Family.REE, 2)
    assert a == b and hash(a) == hash(b)
    assert a != compute_spectrum(Family.REE, 2, "sigma-cm")


@pytest.mark.parametrize("family,s", [(Family.SUZUKI, 3), (Family.REE, 3)])
def test_walk_formats_each_class_once(family, s):
    square = evaluate_singer_square(make_params(family, s))
    calls = []

    def text_of(n1, n2, record):
        calls.append((n1, n2, record))
        return n1, n2, record

    rows = []
    for n1, n2, values, texts in square.walk(text_of):
        for a, (t1, t2, r) in zip(values, texts, strict=True):
            assert (t1, t2) == (n1, n2)
            se = StandardExponents(n1, n2, a)
            rows.append(GenusRecord(SigmaCm(se), r.order, r.delta, r.genus))
    assert len(calls) == sum(len(b.classes) for b in square.blocks)
    # expand() is gated against per-descriptor evaluation above
    assert rows == square.expand()
    assert len(rows) == square.count()
