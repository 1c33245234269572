"""The Singer-square class evaluator against per-subgroup evaluation."""

import math
from collections import Counter, defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skabelund.arith import divisors
from skabelund.catalog import (
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
