import itertools
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skabelund.arith import divisors, is_prime
from skabelund import suite
from skabelund.catalog import (
    KINDS,
    N2_SUBGROUP_ORDERS,
    B0Cyclic,
    B0Dihedral,
    N2NonSkew,
    N2SkewCyclic,
    N2SkewFull,
    NonIntegralGenusError,
    Psl28,
    SigmaCm,
    check_descriptor,
    enumerate_descriptors,
    enumerate_standard_exponents,
    family_kinds,
    kind_of,
    make_record,
    standard_exponent_blocks,
    standard_exponent_elements,
    standard_exponent_step,
    subgroup_order_sigma,
)
from skabelund.curves import Family, make_params
from skabelund.genus_ree import genus_sigma_cm_ree
from skabelund.genus_suzuki import genus_sigma_cm_suzuki
from skabelund.oracle import delta_b0_census, delta_census, delta_skew_census
from skabelund.spectrum import compute_spectrum, evaluate_descriptor, render_csv


def test_standard_exponents_m5():
    triples = enumerate_standard_exponents(5)
    assert [(t.n1, t.n2, t.a) for t in triples] == [
        (1, 1, 0),
        (1, 5, 0),
        (1, 5, 1),
        (1, 5, 2),
        (1, 5, 3),
        (1, 5, 4),
        (5, 1, 0),
        (5, 5, 0),
    ]


def test_standard_exponents_m1():
    assert enumerate_standard_exponents(1) == [SigmaCm(1, 1, 0)]


def test_standard_exponents_m25_count():
    # 45 subgroups of C_25 x C_25, certified by the closure oracle
    # (1 trivial + 6 of order 5 + 31 of order 25 + 6 of order 125 + 1 full)
    assert len(enumerate_standard_exponents(25)) == 45


def filter_standard_exponents(m):
    """The defining filter over all of range(n2), for comparison."""
    return [
        SigmaCm(n1, n2, a)
        for n1 in divisors(m)
        for n2 in divisors(m)
        for a in range(n2)
        if (a * m) % (n1 * n2) == 0
    ]


@given(st.integers(min_value=1, max_value=2000))
@settings(max_examples=200, deadline=None)
@example(1)
@example(2 * 3 * 5 * 7 * 11)  # five distinct primes
@example(2**10)  # a prime power
@example(3**4 * 5**2)  # two prime squares and higher
@example(1680)  # the most divisors below 2000
@example(1999)  # a prime
def test_step_enumeration_equals_filter(m):
    assert enumerate_standard_exponents(m) == filter_standard_exponents(m)
    for n1 in divisors(m):
        for n2 in divisors(m):
            assert n2 % standard_exponent_step(m, n1, n2) == 0


def test_rejects_bad_m():
    with pytest.raises(ValueError):
        enumerate_standard_exponents(0)


@pytest.mark.parametrize("p", [p for p in range(2, 61) if is_prime(p)])
def test_prime_count_is_p_plus_3(p):
    assert len(enumerate_standard_exponents(p)) == p + 3


def prime_powers(m):
    """(p, e) for each prime power p^e exactly dividing m, by trial division."""
    p = 2
    while m > 1:
        if p * p > m:
            p = m
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        if e:
            yield p, e
        p += 1


def rank_two_subgroup_counts(m):
    """Order -> number of subgroups of C_m x C_m.  C_{p^e} x C_{p^e} has
    1 + p + ... + p^min(k, 2e-k) subgroups of order p^k (Toth, Tatra Mt.
    Math. Publ. 59, 2014), and the counts multiply over the primes of m."""
    counts = {1: 1}
    for p, e in prime_powers(m):
        local = {p**k: sum(p**i for i in range(min(k, 2 * e - k) + 1)) for k in range(2 * e + 1)}
        counts = {a * b: x * y for a, x in counts.items() for b, y in local.items()}
    return counts


def test_subgroup_counts_per_order_match_the_rank_two_formula():
    """Every m <= 3000 and each curve's m at Suzuki s <= 8 and Ree s <= 6;
    the closure bijection reaches m <= 60 only."""
    curves = [(Family.SUZUKI, s) for s in range(1, 9)] + [(Family.REE, s) for s in range(1, 7)]
    for m in [*range(1, 3001), *(make_params(family, s).m for family, s in curves)]:
        counts = Counter()
        for n1, n2, step in standard_exponent_blocks(m):
            counts[m * m // (n1 * n2)] += n2 // step
        assert counts == rank_two_subgroup_counts(m), m


def test_triples_are_valid_and_ordered():
    for m in (6, 12, 20, 49):
        triples = enumerate_standard_exponents(m)
        keys = [(t.n1, t.n2, t.a) for t in triples]
        assert keys == sorted(keys)
        for t in triples:
            t.validate(m)


def test_subgroup_order():
    assert subgroup_order_sigma(5, SigmaCm(1, 5, 1)) == 5
    assert subgroup_order_sigma(5, SigmaCm(5, 5, 0)) == 1
    assert subgroup_order_sigma(25, SigmaCm(5, 5, 1)) == 25
    assert subgroup_order_sigma(5, SigmaCm(1, 1, 0)) == 25


def test_element_sets_have_the_right_size():
    for m in (5, 12, 25):
        for se in enumerate_standard_exponents(m):
            elements = standard_exponent_elements(m, se)
            assert elements.bit_count() == subgroup_order_sigma(m, se)
            assert elements & 1  # bit 0*m+0: the identity (0, 0)


def test_validate_rejects_bad_triples():
    with pytest.raises(ValueError):
        SigmaCm(2, 5, 0).validate(5)  # n1 does not divide m
    with pytest.raises(ValueError, match="n2=2 does not divide m=5"):
        SigmaCm(1, 2, 0).validate(5)
    with pytest.raises(ValueError):
        SigmaCm(1, 5, 5).validate(5)  # a out of range
    with pytest.raises(ValueError):
        SigmaCm(5, 5, 1).validate(5)  # n1*n2 does not divide a*m


def test_suzuki_descriptor_enumeration():
    params = make_params(Family.SUZUKI, 1)
    descriptors = enumerate_descriptors(params)
    # 8 Singer-square triples + (2 divisors of q-1=7) x (2 divisors of m=5)
    # for each of the two B0 shapes
    assert len(descriptors) == 8 + 4 + 4
    assert len(set(map(repr, descriptors))) == len(descriptors)
    assert sum(isinstance(d, SigmaCm) for d in descriptors) == 8
    assert sum(isinstance(d, B0Cyclic) for d in descriptors) == 4
    assert sum(isinstance(d, B0Dihedral) for d in descriptors) == 4


def test_ree_descriptor_enumeration_no_skew():
    params = make_params(Family.REE, 1)
    descriptors = enumerate_descriptors(params)
    kinds = [kind_of(d).name for d in descriptors]
    with pytest.raises(ValueError, match=re.escape("unknown descriptor (1,)")):
        kind_of((1,))  # a bare tuple, not a Psl28
    assert kinds.count("sigma-cm") == 22
    assert kinds.count("psl28") == 2
    assert kinds.count("n2-nonskew") == 12
    assert kinds.count("n2-skew-full") == 0
    assert kinds.count("n2-skew-cyclic") == 0
    assert len(descriptors) == 36


def test_ree_descriptor_enumeration_with_skew():
    params = make_params(Family.REE, 2)  # m = 217, 7 | m
    descriptors = enumerate_descriptors(params)
    full = [d for d in descriptors if isinstance(d, N2SkewFull)]
    cyclic = [d for d in descriptors if isinstance(d, N2SkewCyclic)]
    assert {d.w for d in full} == {1, 31}
    assert {d.i for d in full} == set(range(1, 7))
    assert len(full) == len(cyclic) == 12


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("s", [1, 2, 3])
def test_descriptors_are_the_flat_tuples_of_their_export_parameters(family, s):
    descriptors = enumerate_descriptors(make_params(family, s))
    rows = render_csv(compute_spectrum(family, s)).splitlines()[1:]
    assert len(rows) == len(descriptors)
    for d, row in zip(descriptors, rows):
        kind = kind_of(d)
        assert type(d) is kind.cls
        assert all(type(x) is int for x in d)
        assert kind.cls(*d) == d
        cells = row.split(",")
        assert cells[4] == kind.name
        assert tuple(int(x) for x in cells[5:8] if x) == tuple(d)


@pytest.mark.parametrize(
    "order, delta, message",
    [
        (1, 1, "2|H|=2 does not divide ambient-delta=389"),
        (1, 394, "negative genus -1"),
        (1, -2, "invalid order/delta pair (1, -2)"),
        (11, 368, "invalid order/delta pair (11, 368)"),  # 11 does not divide |Aut|
    ],
    ids=["odd-numerator", "negative-genus", "negative-delta", "order-not-dividing-aut"],
)
def test_make_record_rejects_a_bad_order_delta_pair(order, delta, message):
    params = make_params(Family.SUZUKI, 1)  # ambient_degree 390, |Aut| 2^6 5^2 7 13
    with pytest.raises(NonIntegralGenusError, match=re.escape(message)):
        make_record(params, B0Cyclic(1, 1), order, delta)


@pytest.mark.parametrize(
    "family, s", [(Family.SUZUKI, s) for s in (1, 2, 3)] + [(Family.REE, s) for s in (1, 2)]
)
def test_sigma_cm_is_the_one_singer_square_class(family, s):
    """The enumerator, the oracle's sample, the KINDS evaluator, the family's
    closed form and subgroup_order_sigma all take the same SigmaCm."""
    params = make_params(family, s)
    members = enumerate_standard_exponents(params.m)
    assert [d for d in enumerate_descriptors(params) if kind_of(d).name == "sigma-cm"] == members
    assert {type(h) for h in members} == {SigmaCm}
    sample = suite.sample_standard_exponents(params.m, params.m**2, suite.SAMPLE_LIMIT)
    assert {type(h) for h in sample} == {SigmaCm}
    closed_form = {Family.SUZUKI: genus_sigma_cm_suzuki, Family.REE: genus_sigma_cm_ree}[family]
    for h in members + sample:
        record = evaluate_descriptor(params, h)
        assert record.descriptor == h and type(record.descriptor) is SigmaCm
        assert closed_form(params, h) == record
        assert subgroup_order_sigma(params.m, h) == record.order


# a descriptor of each kind that evaluates, and the curve it evaluates on
VALID_DESCRIPTORS = [
    ((Family.SUZUKI, 1), SigmaCm(1, 5, 1)),
    ((Family.SUZUKI, 1), B0Cyclic(1, 5)),
    ((Family.SUZUKI, 1), B0Dihedral(1, 5)),
    ((Family.REE, 2), Psl28(1)),
    ((Family.REE, 2), N2NonSkew(168, 1)),
    ((Family.REE, 2), N2SkewFull(1, 31)),
    ((Family.REE, 2), N2SkewCyclic(1, 31)),
]
NON_INT_CASES = [
    (curve, h._replace(**{field: kind(getattr(h, field))}))
    for curve, h in VALID_DESCRIPTORS
    for kind, fields in (
        (float, h._fields),
        (bool, [next(f for f in h._fields if getattr(h, f) == 1)]),
    )
    for field in fields
]


@pytest.mark.parametrize("curve, bad", NON_INT_CASES, ids=[repr(bad) for _, bad in NON_INT_CASES])
def test_a_descriptor_field_that_is_not_an_int_yields_no_record(curve, bad):
    params = make_params(*curve)
    good = type(bad)(*map(int, bad))
    assert evaluate_descriptor(params, good).descriptor == good
    with pytest.raises(ValueError, match="descriptor fields must be int"):
        evaluate_descriptor(params, bad)


# the oracle census that sums each kind other than sigma-cm
CENSUS_OF = {
    B0Cyclic: delta_b0_census,
    B0Dihedral: delta_b0_census,
    Psl28: delta_census,
    N2NonSkew: delta_census,
    N2SkewFull: delta_skew_census,
    N2SkewCyclic: delta_skew_census,
}
CENSUS_NON_INT_CASES = [(curve, bad) for curve, bad in NON_INT_CASES if type(bad) in CENSUS_OF]


@pytest.mark.parametrize(
    "curve, bad", CENSUS_NON_INT_CASES, ids=[repr(bad) for _, bad in CENSUS_NON_INT_CASES]
)
def test_a_descriptor_field_that_is_not_an_int_reaches_no_census(curve, bad):
    params = make_params(*curve)
    census = CENSUS_OF[type(bad)]
    good = type(bad)(*map(int, bad))
    assert census(params, good) == evaluate_descriptor(params, good).delta
    with pytest.raises(ValueError, match="descriptor fields must be int"):
        census(params, bad)


def field_window(params):
    """0, -1 and the numbers in play - the divisors of m and of q-1, the N2
    subgroup orders, 1..7 - with their neighbours."""
    in_play = [*divisors(params.m), *divisors(params.q - 1), *N2_SUBGROUP_ORDERS, *range(1, 8)]
    return sorted({0, -1} | {x + step for x in in_play for step in (-1, 0, 1)})


WINDOW_CURVES = [(Family.SUZUKI, s) for s in (1, 2)] + [(Family.REE, s) for s in (1, 2, 3)]


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.name)
@pytest.mark.parametrize(
    "family, s", WINDOW_CURVES, ids=[f"{f.value}-{s}" for f, s in WINDOW_CURVES]
)
def test_check_descriptor_accepts_exactly_the_enumerated_descriptors(family, s, kind):
    """Over a window of field values, the enumerator and the check define
    the same descriptors: a kind of the other family has none."""
    params = make_params(family, s)
    window = field_window(params)
    listed = set()
    if kind in family_kinds(family):
        every = set(kind.enumerate(params))
        listed = {h for h in every if set(h) <= set(window)}
        assert bool(listed) == bool(every)  # the window holds some of the kind
    accepted = set()
    for values in itertools.product(window, repeat=len(kind.cls._fields)):
        h = kind.cls(*values)
        try:
            check_descriptor(params, h)
        except ValueError:
            continue
        accepted.add(h)
    assert accepted == listed


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_family_kinds_gives_the_familys_kinds_in_catalog_order(family):
    assert family_kinds(family) == [k for k in KINDS if k.family in (None, family)]
    for kind in family_kinds(family):
        assert family_kinds(family, kind.name) == [kind]


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_family_kinds_refuses_a_kind_the_family_has_not(family):
    other = next(f for f in Family if f is not family)
    refused = {"frobenius": "unknown subgroup family 'frobenius'"}
    for kind in KINDS:
        if kind.family is other:
            refused[kind.name] = (
                f"subgroup family '{kind.name}' is a {other.value} kind, not a {family.value} one"
            )
    assert len(refused) > 1
    for name, message in refused.items():
        with pytest.raises(ValueError) as raised:
            family_kinds(family, name)
        assert str(raised.value) == message
