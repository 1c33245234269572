"""Equality gate for the oracle's fast paths.

The kernels count pairs as table joins, and the census sums add each
distinct term once.  The references below are the nested-loop kernels and
the per-element census loops those replaced, kept as the slow paths the
fast ones must agree with: on every kernel call the oracle suite makes for
Suzuki s <= 6 and Ree s <= 4, on random small cases (with a separate
strategy for the one-column domains n2 = m, whose count streams the
multiples of m), and on every census case for s <= 4.  Beyond that, the
suite must reproduce the verdicts and details recorded in
data/oracle_golden.json: by the nested-loop oracle for Suzuki s = 5 and 6,
and for Ree s = 5 (the longest one-column domains within the caps) by the
table-join oracle before the one-column count.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skabelund import _kernels
from skabelund._kernels import pure
from skabelund.arith import divisors
from skabelund.catalog import enumerate_standard_exponents, subgroup_order_sigma
from skabelund.cli import DEFAULT_MAX_S
from skabelund.curves import CurveParams, Family, make_params
from skabelund.iota import (
    OrderClassRee,
    OrderClassSz,
    census,
    iota_ree,
    iota_sigma_element,
    iota_suzuki,
    ree_weigher,
    sigma_weigher,
    suzuki_weigher,
)
from skabelund.oracle import (
    _F8_LOG,
    F8_GENERATOR,
    _bit_positions,
    _close_skew,
    delta_b0_census,
    delta_census,
    delta_skew_census,
    f8_mul,
    materialize_skew_subgroup,
    max_elements_cap,
)
from skabelund.spectrum import (
    run_oracle_suite,
    sample_evenly,
    sample_standard_exponents,
    seven_divides_m,
)

# --- references: the nested-loop kernels ------------------------------------


def ref_sigma_cm_iota_counts(m, n1, n2, a, q_powers):
    tau_count = 0
    special_count = 0
    for i in range(m // n1):
        a_exp = (i * n1) % m
        b_base = (i * a) % m
        if a_exp == 0:
            for j in range(m // n2):
                b_exp = (b_base + j * n2) % m
                if b_exp != 0:
                    tau_count += 1
        else:
            specials = {(a_exp * qd) % m for qd in q_powers}
            for j in range(m // n2):
                if (b_base + j * n2) % m in specials:
                    special_count += 1
    return tau_count, special_count


def ref_congruence_count(m, n1, n2, rhs):
    rhs %= m
    count = 0
    for i in range(m // n1):
        target = (i * rhs) % m
        for j in range(m // n2):
            if (j * n2) % m == target:
                count += 1
    return count


REFERENCE_KERNELS = {
    "sigma_cm_iota_counts": ref_sigma_cm_iota_counts,
    "congruence_count": ref_congruence_count,
}

# --- references: the per-element census loops --------------------------------


def ref_delta_b0_census(params, d, n, dihedral):
    total = sum(iota_suzuki(params, OrderClassSz.TAU, k) for k in range(1, n))
    total += sum(
        iota_suzuki(params, OrderClassSz.DIVIDES_Q_MINUS_1, k)
        for _rot in range(d - 1)
        for k in range(n)
    )
    if dihedral:
        total += sum(
            iota_suzuki(params, OrderClassSz.ORDER2, k)
            for _refl in range(d)
            for k in range(n)
        )
    return total


def ref_delta_census(group_tag, params, n):
    cen = census(group_tag)
    total = sum(iota_ree(params, OrderClassRee.TAU, k) for k in range(1, n))
    for order, count in cen.counts:
        if order == 1:
            continue
        if order == 2:
            coset = sum(iota_ree(params, OrderClassRee.ORDER2, k) for k in range(n))
        elif order == 6:
            coset = sum(iota_ree(params, OrderClassRee.ORDER6, k) for k in range(n))
        elif order in (3, 9):
            if order == 9:
                klass = OrderClassRee.ORDER9
            elif cen.order3_central:
                klass = OrderClassRee.ORDER3_CENTRAL
            else:
                klass = OrderClassRee.ORDER3_NONCENTRAL
            coset = sum(iota_ree(params, klass, k) for k in range(n))
        elif order == 7:
            coset = (math.gcd(7, n) - 1) * params.m
        else:
            raise ValueError(f"unexpected element order {order} in census")
        total += count * coset
    return total


def ref_materialize_skew_subgroup(params, variant, i, w):
    m = params.m
    gens = [(F8_GENERATOR, 0, (i * w) % m)]
    if variant == "full":
        gens += [(1, 1, 0), (1, 2, 0), (1, 4, 0)]
    identity = (1, 0, 0)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a1, b1, e1 in frontier:
            for a2, b2, e2 in gens:
                prod = (f8_mul(a1, a2), f8_mul(a1, b2) ^ b1, (e1 + e2) % m)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def ref_delta_skew_census(params, variant, i, w):
    m = params.m
    total = 0
    for a, b, e in ref_materialize_skew_subgroup(params, variant, i, w):
        if a == 1:
            if b == 0:
                if e != 0:
                    total += iota_ree(params, OrderClassRee.TAU, e)
            else:
                total += iota_ree(params, OrderClassRee.ORDER2, e)
        else:
            total += iota_sigma_element(params, (_F8_LOG[a] * (m // 7)) % m, e)
    return total


# --- the gate -----------------------------------------------------------------

ORACLE_CURVES = [(Family.SUZUKI, s) for s in range(1, 7)] + [
    (Family.REE, s) for s in range(1, 5)
]


@pytest.fixture
def default_caps(monkeypatch):
    for name in ("SKABELUND_MAX_ELEMENTS", "SKABELUND_MAX_CLOSURE_M"):
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize(
    "family, s", ORACLE_CURVES, ids=[f"{f.value}-{s}" for f, s in ORACLE_CURVES]
)
def test_kernels_match_the_nested_loops_on_every_oracle_call(
    family, s, monkeypatch, default_caps
):
    calls = []
    for name in REFERENCE_KERNELS:
        kernel = getattr(_kernels, name)

        def recording(*args, _name=name, _kernel=kernel):
            result = _kernel(*args)
            calls.append((_name, args, result))
            return result

        monkeypatch.setattr(_kernels, name, recording)
    run_oracle_suite(family, s)
    assert {name for name, _, _ in calls} == set(REFERENCE_KERNELS)
    for name, args, result in calls:
        assert result == REFERENCE_KERNELS[name](*args), (name, args)


@st.composite
def kernel_cases(draw):
    m = draw(st.integers(1, 300))
    n1 = draw(st.sampled_from(divisors(m)))
    n2 = draw(st.sampled_from(divisors(m)))
    a = draw(st.integers(-m, 2 * m))
    rhs = draw(st.one_of(st.just(0), st.integers(-m, 2 * m)))
    # powers that differ by multiples of m/k map every A divisible by k to
    # the same image A*q^d; k = m gives arbitrary powers
    k = draw(st.sampled_from(divisors(m)))
    base = draw(st.integers(0, 2 * m))
    shifts = draw(st.lists(st.integers(0, 2 * k), min_size=1, max_size=8))
    q_powers = tuple(base + c * (m // k) for c in shifts)
    return m, n1, n2, a, rhs, q_powers


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_kernels_match_the_nested_loops_on_small_cases(case):
    m, n1, n2, a, rhs, q_powers = case
    assert pure.congruence_count(m, n1, n2, rhs) == ref_congruence_count(m, n1, n2, rhs)
    assert pure.sigma_cm_iota_counts(m, n1, n2, a, q_powers) == ref_sigma_cm_iota_counts(
        m, n1, n2, a, q_powers
    )


@st.composite
def one_column_cases(draw):
    """n2 = m with steps n1*q^d - a that hold 0, mirror pairs r, m - r and,
    for even m, m/2."""
    m = draw(st.integers(1, 400))
    n1 = draw(st.sampled_from(divisors(m)))
    # every step n1*q - a lies in the class of -a mod n1; keeping that class
    # at 0 or n1/2 lets a step set hold 0, mirror pairs and m/2
    shift = draw(st.sampled_from([0, n1 // 2])) if n1 % 2 == 0 else 0
    a = n1 * draw(st.integers(-2, 2 * m)) - shift
    reachable = range(shift, m, n1)
    steps = draw(st.lists(st.sampled_from(reachable), min_size=1, max_size=6))
    steps += [(m - r) % m for r in draw(st.lists(st.sampled_from(steps), max_size=3))]
    specials = [x for x in (0, m // 2) if 2 * x % m == 0 and x in reachable]
    if specials:
        steps += draw(st.lists(st.sampled_from(specials), max_size=2))
    q_powers = tuple(
        (r + a) // n1 + draw(st.integers(0, 2)) * (m // n1) for r in steps
    )
    assert {(n1 * qd - a) % m for qd in q_powers} == set(steps)
    rhs = draw(
        st.one_of(
            st.sampled_from(steps),
            st.sampled_from([0, m // 2, m - 1]),
            st.integers(-m, 2 * m),
        )
    )
    return m, n1, a, rhs, q_powers


@settings(max_examples=300, deadline=None)
@given(one_column_cases())
def test_one_column_kernels_match_the_nested_loops(case):
    m, n1, a, rhs, q_powers = case
    for r in (rhs, -rhs, m - rhs):
        assert pure.congruence_count(m, n1, m, r) == ref_congruence_count(m, n1, m, r)
    assert pure.sigma_cm_iota_counts(m, n1, m, a, q_powers) == ref_sigma_cm_iota_counts(
        m, n1, m, a, q_powers
    )


def test_kernels_count_coinciding_images_once():
    # m = 12, a = 0: the element (i, j) is sigma^i tau^j
    # powers 1, 13, 25 are all 1 mod 12: one image, the diagonal j = i != 0
    assert pure.sigma_cm_iota_counts(12, 1, 1, 0, (1, 13, 25)) == (11, 11)
    # powers 1 and 7: images i and 7i coincide exactly for even i
    assert pure.sigma_cm_iota_counts(12, 1, 1, 0, (1, 7)) == (11, 6 * 2 + 5)
    # fewer rows than columns, A = 2i: images 2i and 8i coincide for i = 2, 4
    assert pure.sigma_cm_iota_counts(12, 2, 1, 0, (1, 4)) == (11, 2 + 1 + 2 + 1 + 2)


@pytest.mark.parametrize("s", range(1, 5))
def test_b0_census_matches_the_element_loops(s):
    params = make_params(Family.SUZUKI, s)
    for d in divisors(params.q - 1):
        for n in divisors(params.m):
            for dihedral in (False, True):
                assert delta_b0_census(params, d, n, dihedral) == ref_delta_b0_census(
                    params, d, n, dihedral
                ), (d, n, dihedral)


@pytest.mark.parametrize("s", range(1, 5))
def test_ree_census_matches_the_element_loops(s):
    params = make_params(Family.REE, s)
    tags = ("psl28", "n2_168", "n2_56", "n2_24", "n2_12", "n2_8", "n2_4")
    for n in divisors(params.m):
        shared: dict = {}
        for tag in tags:
            expected = ref_delta_census(tag, params, n)
            assert delta_census(tag, params, n) == expected, (tag, n)
            assert delta_census(tag, params, n, shared) == expected, (tag, n)


@pytest.mark.parametrize("s", [2, 3])  # the Ree s <= 4 with 7 | m
def test_skew_census_matches_the_element_loop(s, default_caps):
    params = make_params(Family.REE, s)
    assert seven_divides_m(params)
    cap = max_elements_cap()
    for w in divisors(params.m // 7):
        if 56 * (params.m // (7 * w)) > cap:
            continue
        for i in range(1, 7):
            for variant in ("full", "cyclic"):
                assert delta_skew_census(params, variant, i, w) == ref_delta_skew_census(
                    params, variant, i, w
                ), (variant, i, w)


GOLDEN = Path(__file__).resolve().parent / "data" / "oracle_golden.json"


@pytest.mark.parametrize(
    "curve", ["suzuki-5", "suzuki-6", "ree-5", "ree-6", "suzuki-7", "suzuki-8"]
)
def test_oracle_reproduces_the_recorded_verdicts(curve, default_caps):
    family, s = curve.split("-")
    checks = run_oracle_suite(Family(family), int(s))
    expected = json.loads(GOLDEN.read_text())[curve]
    assert [[c.name, c.ok, c.detail] for c in checks] == expected


# --- weighers, the index sample and the bitset closure -------------------------


WEIGHER_CURVES = [(f, s) for f in Family for s in range(1, 5)]


def _weight_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize(
    "family, s", WEIGHER_CURVES, ids=[f"{f.value}-{s}" for f, s in WEIGHER_CURVES]
)
def test_class_weighers_match_the_iota_functions(family, s):
    params = make_params(family, s)
    if family is Family.SUZUKI:
        iota, bind, classes = iota_suzuki, suzuki_weigher, OrderClassSz
    else:
        iota, bind, classes = iota_ree, ree_weigher, OrderClassRee
    for klass in classes:
        try:
            weigher = bind(params, klass)
        except ValueError as exc:  # Singer-cycle classes have no class weight
            with pytest.raises(ValueError, match=str(exc)):
                iota(params, klass, 1)
            continue
        for k in range(2 * params.m):
            assert _weight_or_error(weigher, k) == _weight_or_error(
                iota, params, klass, k
            ), (klass, k)


@pytest.mark.parametrize(
    "family, s", WEIGHER_CURVES, ids=[f"{f.value}-{s}" for f, s in WEIGHER_CURVES]
)
def test_sigma_weighers_match_iota_sigma_element(family, s):
    params = make_params(family, s)
    m = params.m
    exponents = set(range(0, m, max(1, m // 12))) | {1, m - 1, m, -1}
    exponents |= {c * (m // 7) for c in range(7)} if m % 7 == 0 else set()
    for a_exp in sorted(exponents):
        weigher = sigma_weigher(params, a_exp)
        for b_exp in range(2 * m):
            assert _weight_or_error(weigher, b_exp) == _weight_or_error(
                iota_sigma_element, params, a_exp, b_exp
            ), (a_exp, b_exp)


def _filtered_triples(m, cap):
    return [se for se in enumerate_standard_exponents(m) if subgroup_order_sigma(m, se) <= cap]


@pytest.mark.parametrize(
    "family, s",
    [(f, s) for f in Family for s in range(1, DEFAULT_MAX_S[f] + 1)],
    ids=[f"{f.value}-{s}" for f in Family for s in range(1, DEFAULT_MAX_S[f] + 1)],
)
def test_index_sample_matches_the_list_sample(family, s, default_caps):
    m = make_params(family, s).m
    cap = max_elements_cap()
    triples = _filtered_triples(m, cap)
    n = len(triples)
    for limit in sorted({1, 2, 24, 50, 60, n - 1, n, n + 1} - {0}):
        assert sample_standard_exponents(m, cap, limit) == sample_evenly(triples, limit), limit


@st.composite
def sample_cases(draw):
    m = draw(st.integers(1, 400))
    cap = draw(st.one_of(st.just(0), st.integers(0, m * m + 1)))
    total = len(_filtered_triples(m, cap))
    limit = draw(st.one_of(st.integers(1, total + 3), st.just(total + 1)))
    return m, cap, max(limit, 1)


@settings(max_examples=300, deadline=None)
@given(sample_cases())
@example((12, 0, 1))  # a cap that excludes every triple
@example((12, 10**6, 28))  # limit = total
@example((12, 10**6, 29))  # limit > total
@example((360, 360, 7))
def test_index_sample_matches_the_list_sample_on_any_cap(case):
    m, cap, limit = case
    assert sample_standard_exponents(m, cap, limit) == sample_evenly(
        _filtered_triples(m, cap), limit
    )


@pytest.mark.parametrize("s", [2, 3])  # the Ree s <= 4 with 7 | m
def test_bitset_closure_matches_the_element_closure(s):
    params = make_params(Family.REE, s)
    for w in divisors(params.m // 7):
        for i in range(1, 7):
            for variant in ("full", "cyclic"):
                assert materialize_skew_subgroup(
                    params, variant, i, w
                ) == ref_materialize_skew_subgroup(params, variant, i, w), (variant, i, w)


def _ree_params_with_m(m):
    return CurveParams(Family.REE, 1, 3, 27, m, 6, 0, (1,), 1)


@st.composite
def skew_cases(draw):
    k = draw(st.integers(1, 300))
    w = draw(st.sampled_from(divisors(k)))
    return 7 * k, draw(st.sampled_from(("full", "cyclic"))), draw(st.integers(1, 6)), w


@settings(max_examples=200, deadline=None)
@given(skew_cases())
@example((7, "full", 1, 1))
@example((14, "cyclic", 2, 1))  # i*w shares a factor with m: a smaller group
@example((7 * 60, "full", 6, 5))
def test_bitset_closure_matches_the_element_closure_on_synthetic_m(case):
    m, variant, i, w = case
    params = _ree_params_with_m(m)
    assert materialize_skew_subgroup(params, variant, i, w) == ref_materialize_skew_subgroup(
        params, variant, i, w
    )


def ref_close_affine(m, gens):
    identity = (1, 0, 0)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a1, b1, e1 in frontier:
            for a2, b2, e2 in gens:
                prod = (f8_mul(a1, a2), f8_mul(a1, b2) ^ b1, (e1 + e2) % m)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


@st.composite
def affine_generators(draw):
    """Any maps x -> a*x + b (a != 0) paired with tau^e, not only the skew
    generators: translations by a non-identity a, several rotations."""
    m = draw(st.integers(1, 60))
    gen = st.tuples(st.integers(1, 7), st.integers(0, 7), st.integers(0, m - 1))
    return m, draw(st.lists(gen, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(affine_generators())
@example((5, [(1, 3, 0), (1, 5, 1)]))  # translations only: order-2 powers
@example((6, [(3, 1, 2)]))  # one map with a != 1 and b != 0
def test_bitset_closure_matches_the_element_closure_on_any_generators(case):
    m, gens = case
    buckets = _close_skew(m, gens)
    got = {(a, b, e) for (a, b), bits in buckets.items() for e in _bit_positions(bits)}
    assert got == ref_close_affine(m, gens)
