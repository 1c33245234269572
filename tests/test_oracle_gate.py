"""Equality gate for the oracle's fast paths.

The kernels count pairs by row scans, and the census sums
weigh a whole coset or bucket of an order class from two reads of iota.
The references below are the nested-loop kernels and the per-element
census loops those replaced, kept as the slow paths the fast ones must
agree with: on every kernel call the oracle suite makes for Suzuki s <= 6
and Ree s <= 4, on random small cases (with separate strategies for the
one-column domains n2 = m, for one step on several columns, and for calls
that share one scans dict), and on every census case for s <= 4.  A row
scan, which finds its least positive hit among the divisors of its
modulus, must list the rows i < rows with i*r = 0 (mod modulus) by that
definition on random moduli up to 2000 (primes, prime powers, highly
composite values) and 2310, with and without a shared scans dict, and must
match the multiples scan it replaced (ref_vanishing_rows) on every scan
the oracle suite makes for Suzuki s <= 6 and Ree s <= 5.  The subgroup
closure, which walks each cyclic subgroup once and skips every join a found
subgroup of the join's size already holds, must find the subgroups the
pairwise closure (ref_cm_subgroups) finds for every m up to the default
closure cap, 60, and each triple's element mask
(catalog.standard_exponent_elements) must decode to the pairs of its
fundamental domain for every m <= 25.  The per-subgroup congruence counts
must equal the nested-loop count power by power on every subgroup the
suite samples for Suzuki s <= 6 and Ree s <= 4, the suite's p-part loop
must equal gcd(x, p^v) (x = 0 included), and every skew census the suite
runs with the curve's image masks must equal the census that builds its
own.  The skew closure, which takes each subgroup's buckets as
cosets of one kernel bitset by Schreier's lemma, must match the
element-by-element closure (ref_close_affine, which stays the reference)
on random affine generators and bucket by bucket on every skew case the
suite checks for Ree s = 2 and 3.  The order-7 coset count is checked against the n - 1
multiples of 7 it replaced, for n < 3000 and every n | m for Ree s <= 6.
The premise of the two reads is checked directly: for s <= 4 every order
class weighs each k in range(2m) as k = 0 when k = 0 (mod m) and as k = 1
otherwise.  Row scans and divisor
lists are shared within one oracle suite and by no later one.  Beyond that,
the suite must reproduce the verdicts and details recorded in
data/oracle_golden.json: by the nested-loop oracle for Suzuki s = 5 and 6,
for Ree s = 5 (the longest one-column domains within the caps) by the
table-join oracle before the one-column count, and for Ree s = 7
(m = 37*387631, the most divisors and the longest cosets) by the oracle
that weighed each census element.
"""

import json
import math
from itertools import repeat
from operator import countOf, mod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skabelund import _kernels, oracle, suite
from skabelund.arith import divisors, is_prime
from skabelund.catalog import (
    B0Cyclic,
    B0Dihedral,
    N2NonSkew,
    Psl28,
    enumerate_standard_exponents,
    standard_exponent_elements,
    subgroup_order_sigma,
)
from skabelund.curves import CurveParams, Family, make_params, seven_divides_m
from skabelund.iota import (
    CENSUS_TABLE,
    OrderClassRee,
    OrderClassSz,
    iota_ree,
    iota_sigma_element,
    iota_suzuki,
    singer_images,
)
from skabelund.oracle import (
    _F8_LOG,
    F8_GENERATOR,
    _ree_coset_sum,
    _close_skew,
    _skew_generators,
    delta_b0_census,
    delta_census,
    delta_skew_census,
    f8_mul,
    max_elements_cap,
    skew_image_masks,
)
from skabelund.settings import DEFAULT_MAX_CLOSURE_M, DEFAULT_MAX_S
from skabelund.suite import SAMPLE_LIMIT, run_oracle_suite, sample_standard_exponents

from references import SKEW_CLASSES, bit_positions, materialize_skew_subgroup
from sampling import sample_evenly

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


def ref_cm_subgroups(m):
    """The pairwise closure the counted walk replaced: every one of the m*m
    generators walked in full, and every pair of cyclic subgroups joined by
    doubling unless the second generator lies in the first subgroup."""
    full = (1 << (m * m)) - 1
    pattern = sum(1 << (x * m) for x in range(m))
    low_cache = {}

    def row_low(ty):
        got = low_cache.get(ty)
        if got is None:
            got = low_cache[ty] = ((1 << (m - ty)) - 1) * pattern
        return got

    cyclic = {}
    for gx in range(m):
        for gy in range(m):
            mask = 1
            x, y, order = gx, gy, 1
            while (x, y) != (0, 0):
                mask |= 1 << (x * m + y)
                x, y, order = (x + gx) % m, (y + gy) % m, order + 1
            if mask not in cyclic:
                cyclic[mask] = (gx, gy, order)

    subgroups = set(cyclic)
    entries = list(cyclic.items())
    for idx, (mask1, _) in enumerate(entries):
        for mask2, (gx, gy, order) in entries[idx:]:
            if mask1 >> ((gx * m + gy)) & 1:
                continue  # <g2> inside C1: join is C1 itself
            joined = mask1
            t = 1
            while t < order:
                joined |= _kernels._translate(
                    joined, (t * gx) % m, (t * gy) % m, m, full, row_low
                )
                t *= 2
            subgroups.add(joined)
    return {tuple(bit_positions(mask)) for mask in subgroups}

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
    cen = CENSUS_TABLE[group_tag]
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


def ref_close_affine(m, gens):
    """The elements (a, b, e) of the group the maps gens generate (x -> a*x
    + b on F_8, paired with tau^e), closed one product at a time."""
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


def ref_materialize_skew_subgroup(params, variant, i, w):
    m = params.m
    gens = [(F8_GENERATOR, 0, (i * w) % m)]
    if variant == "full":
        gens += [(1, 1, 0), (1, 2, 0), (1, 4, 0)]
    return ref_close_affine(m, gens)


def ref_delta_skew_census(params, variant, i, w, iota=iota_ree):
    m = params.m
    total = 0
    for a, b, e in ref_materialize_skew_subgroup(params, variant, i, w):
        if a == 1:
            if b == 0:
                if e != 0:
                    total += iota(params, OrderClassRee.TAU, e)
            else:
                total += iota(params, OrderClassRee.ORDER2, e)
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

        def recording(*args, _name=name, _kernel=kernel, **kwargs):
            result = _kernel(*args, **kwargs)
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
    assert _kernels.congruence_count(m, n1, n2, rhs) == ref_congruence_count(m, n1, n2, rhs)
    assert _kernels.sigma_cm_iota_counts(m, n1, n2, a, q_powers) == ref_sigma_cm_iota_counts(
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
        assert _kernels.congruence_count(m, n1, m, r) == ref_congruence_count(m, n1, m, r)
    assert _kernels.sigma_cm_iota_counts(m, n1, m, a, q_powers) == ref_sigma_cm_iota_counts(
        m, n1, m, a, q_powers
    )


@st.composite
def single_step_cases(draw):
    """One step on several columns: congruence_count, and sigma_cm_iota_counts
    with powers that all give the same step."""
    m = draw(st.integers(2, 400))
    n1 = draw(st.sampled_from(divisors(m)))
    n2 = draw(st.sampled_from(divisors(m)[:-1]))  # n2 < m: several columns
    a = draw(st.integers(-m, 2 * m))
    rhs = draw(st.one_of(st.sampled_from([0, n2, m - n2, m // 2]), st.integers(-m, 2 * m)))
    # powers that differ by multiples of m/n1 give the step n1*q - a each
    base = draw(st.integers(0, 2 * m))
    shifts = draw(st.lists(st.integers(0, 2 * n1), min_size=1, max_size=4))
    return m, n1, n2, a, rhs, tuple(base + c * (m // n1) for c in shifts)


@settings(max_examples=300, deadline=None)
@given(single_step_cases())
@example((12, 1, 2, 5, 3, (1,)))  # rows 12 >= cols 6
@example((12, 4, 2, 5, 9, (1, 4)))  # rows 3 < cols 6, one step
@example((360, 3, 4, 7, 354, (2,)))  # rows 120 >= cols 90
@example((360, 8, 3, 7, 100, (5, 50)))  # rows 45 < cols 120, one step
def test_single_step_kernels_match_the_nested_loops_on_several_columns(case):
    m, n1, n2, a, rhs, q_powers = case
    assert len({(n1 * qd - a) % m for qd in q_powers}) == 1
    assert _kernels.congruence_count(m, n1, n2, rhs) == ref_congruence_count(m, n1, n2, rhs)
    assert _kernels.sigma_cm_iota_counts(m, n1, n2, a, q_powers) == ref_sigma_cm_iota_counts(
        m, n1, n2, a, q_powers
    )


@st.composite
def shared_scan_calls(draw):
    """Unrelated kernel calls, most on one m so that their scans meet."""
    base = draw(st.integers(1, 400))
    calls = []
    for _ in range(draw(st.integers(2, 6))):
        m = draw(st.one_of(st.just(base), st.integers(1, 400)))
        n1 = draw(st.sampled_from(divisors(m)))
        n2 = draw(st.sampled_from(divisors(m)))
        if draw(st.booleans()):
            rhs = draw(st.integers(-m, 2 * m))
            calls.append(("congruence_count", (m, n1, n2, rhs)))
        else:
            a = draw(st.integers(-m, 2 * m))
            q_powers = tuple(draw(st.lists(st.integers(0, 2 * m), min_size=1, max_size=6)))
            calls.append(("sigma_cm_iota_counts", (m, n1, n2, a, q_powers)))
    return calls


@settings(max_examples=200, deadline=None)
@given(shared_scan_calls())
# same modulus and step, different rows: one-column scans of m = 12
@example([("congruence_count", (12, 3, 12, 5)), ("congruence_count", (12, 1, 12, 5))])
@example([("congruence_count", (12, 1, 12, 5)), ("congruence_count", (12, 3, 12, 5))])
# a multi-column scan (modulus 4) met by a one-column scan of m = 4
@example([("congruence_count", (12, 3, 4, 2)), ("sigma_cm_iota_counts", (4, 1, 4, 0, (2,)))])
def test_kernels_sharing_one_scans_dict_match_the_nested_loops(calls):
    scans: dict = {}
    for name, args in calls:
        got = getattr(_kernels, name)(*args, scans=scans)
        assert got == REFERENCE_KERNELS[name](*args), (name, args)


def test_row_scans_are_shared_within_one_suite_and_kept_by_none(monkeypatch, default_caps):
    """The delta and congruence checks of one suite share their row scans,
    and a second suite scans as much as the first: no scan outlives a suite.
    Work is counted as the divisor lists the kernels build plus the
    divisors they test as candidates for a scan's least hit."""
    work = 0

    class CountedDivisors(tuple):
        def __iter__(self):
            nonlocal work
            for d in super().__iter__():
                work += 1
                yield d

    build = _kernels._divisors

    def counting_divisors(n):
        nonlocal work
        work += 1
        return CountedDivisors(build(n))

    calls = []
    kernels = {name: getattr(_kernels, name) for name in REFERENCE_KERNELS}
    for name, kernel in kernels.items():

        def recording(*args, _name=name, _kernel=kernel, **kwargs):
            calls.append((_name, args))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(_kernels, name, recording)
    monkeypatch.setattr(_kernels, "_divisors", counting_divisors)
    per_suite = []
    for _ in range(2):
        work = 0
        run_oracle_suite(Family.REE, 2)
        per_suite.append(work)
    work = 0
    for name, args in calls[: len(calls) // 2]:  # the first suite's calls, unshared
        kernels[name](*args)
    assert 0 < per_suite[0] == per_suite[1] < work


# --- the subgroup closure against the pairwise closure ------------------------


@pytest.mark.parametrize("m", range(1, DEFAULT_MAX_CLOSURE_M + 1))
def test_subgroup_closure_matches_the_pairwise_closure(m):
    """Every m the closure cap admits by default: the counted walk and the
    size-indexed join skip find exactly the subgroups the pairwise closure
    finds."""
    found = {tuple(bit_positions(mask)) for mask in _kernels.cm_subgroups(m)}
    assert found == ref_cm_subgroups(m)


@pytest.mark.parametrize("m", range(1, 26))
def test_standard_exponent_masks_decode_to_their_pair_sets(m):
    """The row-by-row mask of each triple holds exactly the pairs
    ((i*n1) mod m, (i*a + j*n2) mod m) of its fundamental domain."""
    for se in enumerate_standard_exponents(m):
        pairs = {
            ((i * se.n1) % m, (i * se.a + j * se.n2) % m)
            for i in range(m // se.n1)
            for j in range(m // se.n2)
        }
        mask = standard_exponent_elements(m, se)
        assert {divmod(code, m) for code in bit_positions(mask)} == pairs, se


# --- the suite's per-subgroup and per-curve work ------------------------------


@pytest.mark.parametrize(
    "family, s", ORACLE_CURVES, ids=[f"{f.value}-{s}" for f, s in ORACLE_CURVES]
)
def test_congruence_counts_per_subgroup_match_the_nested_loop(family, s, default_caps):
    """One tuple per sampled subgroup, one entry per special power, each the
    nested-loop count of that power."""
    params = make_params(family, s)
    sampled = sample_standard_exponents(params.m, max_elements_cap(), SAMPLE_LIMIT)
    assert sampled
    for se in sampled:
        expected = tuple(
            ref_congruence_count(params.m, se.n1, se.n2, se.n1 * qd - se.a)
            for qd in params.q_powers
        )
        assert oracle.count_congruence_solutions(params, se) == expected, se


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 13, 37, 97, 241, 387631]),
    st.integers(0, 12),
    st.integers(0, 15),
    st.one_of(st.just(0), st.integers(-(10**30), 10**30)),
)
@example(2, 0, 0, 0)  # p^0 = 1
@example(5, 3, 0, 0)  # x = 0: p^v, with no infinite valuation
@example(3, 4, 7, 1)  # v_p(x) above v
@example(13, 2, 1, -5)  # a negative x
def test_suite_p_part_is_the_gcd_with_the_prime_power(p, v, k, y):
    """The suite's division loop gives p^min(v_p(x), v) = gcd(x, p^v)."""
    x = p**k * y
    assert suite._p_part(x, p, p**v) == math.gcd(x, p**v)


@pytest.mark.parametrize("s", range(1, DEFAULT_MAX_S[Family.REE] + 1))
def test_skew_census_with_the_curve_images_equals_the_census_without(
    s, monkeypatch, default_caps
):
    """Every skew census the suite runs is passed the curve's image masks,
    and gives what the census that builds its own gives."""
    calls = []

    def recording(params, h, *images):
        calls.append((params, h, images))
        return delta_skew_census(params, h, *images)

    monkeypatch.setattr(suite, "delta_skew_census", recording)
    params = make_params(Family.REE, s)
    run_oracle_suite(Family.REE, s)
    assert bool(calls) == seven_divides_m(params)
    for params, h, images in calls:
        assert images == (skew_image_masks(params),)
        assert delta_skew_census(params, h, *images) == delta_skew_census(params, h), h


# --- the row scan against its definition --------------------------------------


def ref_vanishing_rows(modulus, rows, r):
    """The multiples scan the least-hit search replaced: the multiples of
    modulus below rows*r, reduced mod r 1024 at a time, each zero a hit."""
    found = []
    end = rows * r
    span = 1024 * modulus
    for start in range(0, end, span):
        chunk = list(map(mod, range(start, min(start + span, end), modulus), repeat(r)))
        k = -1
        try:
            while True:
                k = chunk.index(0, k + 1)
                found.append((start + k * modulus) // r)
        except ValueError:
            pass
    return tuple(found)


PRIMES = [p for p in range(2, 2001) if is_prime(p)]
PRIME_POWERS = sorted({p**k for p in PRIMES for k in range(2, 11) if p**k <= 2000})
# highly composite numbers, a prime power of 2 and a primorial
MANY_DIVISORS = [360, 720, 840, 1024, 1260, 1680, 2310]


@st.composite
def row_scans(draw):
    modulus = draw(
        st.one_of(
            st.sampled_from(PRIMES),
            st.sampled_from(PRIME_POWERS),
            st.sampled_from(MANY_DIVISORS),
            st.integers(2, 2000),
        )
    )
    return modulus, draw(st.integers(1, modulus)), draw(st.integers(0, modulus - 1))


@settings(max_examples=400, deadline=None)
@given(st.lists(row_scans(), min_size=1, max_size=6))
@example([(1999, 1999, 1998)])  # a prime: row 0 only
@example([(720, 720, 360), (720, 7, 360), (720, 720, 1)])  # one modulus, several scans
@example([(1024, 1024, 512), (1024, 1000, 768)])
@example([(2310, 2310, 1155), (2310, 1, 1)])
@example([(12, 12, 0)])  # a zero step: every row
def test_row_scan_matches_its_definition(scans):
    shared: dict = {}
    for modulus, rows, r in scans:
        expected = tuple(i for i in range(rows) if i * r % modulus == 0)
        assert tuple(_kernels._vanishing_rows(modulus, rows, r)) == expected
        assert tuple(_kernels._vanishing_rows(modulus, rows, r, shared)) == expected


SCAN_CURVES = [(Family.SUZUKI, s) for s in range(1, 7)] + [(Family.REE, s) for s in range(1, 6)]


@pytest.mark.parametrize(
    "family, s", SCAN_CURVES, ids=[f"{f.value}-{s}" for f, s in SCAN_CURVES]
)
def test_row_scan_matches_the_multiples_scan_on_every_oracle_scan(
    family, s, monkeypatch, default_caps
):
    scans = set()
    scan = _kernels._vanishing_rows

    def recording(modulus, rows, r, *args):
        scans.add((modulus, rows, r))
        return scan(modulus, rows, r, *args)

    monkeypatch.setattr(_kernels, "_vanishing_rows", recording)
    run_oracle_suite(family, s)
    assert scans
    for modulus, rows, r in scans:
        # the multiples scan took no zero step: its callers counted every row
        expected = ref_vanishing_rows(modulus, rows, r) if r else tuple(range(rows))
        assert tuple(scan(modulus, rows, r)) == expected, (modulus, rows, r)


def test_kernels_count_coinciding_images_once():
    # m = 12, a = 0: the element (i, j) is sigma^i tau^j
    # powers 1, 13, 25 are all 1 mod 12: one image, the diagonal j = i != 0
    assert _kernels.sigma_cm_iota_counts(12, 1, 1, 0, (1, 13, 25)) == (11, 11)
    # powers 1 and 7: images i and 7i coincide exactly for even i
    assert _kernels.sigma_cm_iota_counts(12, 1, 1, 0, (1, 7)) == (11, 6 * 2 + 5)
    # fewer rows than columns, A = 2i: images 2i and 8i coincide for i = 2, 4
    assert _kernels.sigma_cm_iota_counts(12, 2, 1, 0, (1, 4)) == (11, 2 + 1 + 2 + 1 + 2)


@pytest.mark.parametrize("s", range(1, 5))
def test_b0_census_matches_the_element_loops(s):
    params = make_params(Family.SUZUKI, s)
    for d in divisors(params.q - 1):
        for n in divisors(params.m):
            for dihedral in (False, True):
                h = (B0Dihedral if dihedral else B0Cyclic)(d, n)
                assert delta_b0_census(params, h) == ref_delta_b0_census(
                    params, d, n, dihedral
                ), (d, n, dihedral)


@pytest.mark.parametrize("s", range(1, 5))
def test_ree_census_matches_the_element_loops(s):
    params = make_params(Family.REE, s)
    for n in divisors(params.m):
        for tag, h in [("psl28", Psl28(n))] + [
            (f"n2_{k}", N2NonSkew(k, n)) for k in (168, 56, 24, 12, 8, 4)
        ]:
            assert delta_census(params, h) == ref_delta_census(tag, params, n), (tag, n)


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
                assert delta_skew_census(
                    params, SKEW_CLASSES[variant](i, w)
                ) == ref_delta_skew_census(params, variant, i, w), (variant, i, w)


def _raised_at_zero(params, order_class, k):
    """iota_ree plus 10^6 where k = 0 (mod m): two distinct values for every
    order class, the involutions included."""
    weight = iota_ree(params, order_class, k)
    return weight + 10**6 if k % params.m == 0 else weight


@pytest.mark.parametrize("s", [2, 3])  # the Ree s <= 4 with 7 | m
def test_skew_census_weighs_each_bucket_at_k_0_and_elsewhere(s, monkeypatch, default_caps):
    """Ree involutions weigh q+1 at every k, so the real weights cannot tell
    how a bucket's tau^0 element is weighed; with a stand-in iota that can,
    the census must still equal the element loop."""
    params = make_params(Family.REE, s)
    monkeypatch.setattr(oracle, "iota_ree", _raised_at_zero)
    cap = max_elements_cap()
    for w in divisors(params.m // 7):
        if 56 * (params.m // (7 * w)) > cap:
            continue
        for variant in ("full", "cyclic"):
            assert delta_skew_census(params, SKEW_CLASSES[variant](1, w)) == ref_delta_skew_census(
                params, variant, 1, w, iota=_raised_at_zero
            ), (variant, w)


def ref_order7_special_powers(n):
    """The k in 1..n-1 with 7*k = 0 in C_n, over the n-1 multiples of 7."""
    return countOf(map(mod, range(7, 7 * n, 7), repeat(n)), 0)


def test_order7_coset_count_matches_the_multiples_of_7():
    ns = {(1, n) for n in range(1, 3000)}
    ns |= {(s, n) for s in range(1, 7) for n in divisors(make_params(Family.REE, s).m)}
    for s, n in sorted(ns):
        params = make_params(Family.REE, s)
        expected = params.m * ref_order7_special_powers(n)
        assert _ree_coset_sum(params, (7, None), n) == expected, (s, n)


GOLDEN = Path(__file__).resolve().parent / "data" / "oracle_golden.json"


@pytest.mark.parametrize(
    "curve", ["suzuki-5", "suzuki-6", "ree-5", "ree-6", "ree-7", "suzuki-7", "suzuki-8"]
)
def test_oracle_reproduces_the_recorded_verdicts(curve, default_caps):
    family, s = curve.split("-")
    checks = run_oracle_suite(Family(family), int(s))
    expected = json.loads(GOLDEN.read_text())[curve]
    assert [[c.name, c.ok, c.detail] for c in checks] == expected


# --- iota weights, the index sample and the bitset closure ---------------------


WEIGHER_CURVES = [(f, s) for f in Family for s in range(1, 5)]


def _weight_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize(
    "family, s", WEIGHER_CURVES, ids=[f"{f.value}-{s}" for f, s in WEIGHER_CURVES]
)
def test_order_class_weights_take_two_values(family, s):
    """The census sums read an order class at k = 0 and k = 1 only: every k
    weighs as k = 0 when k = 0 (mod m) and as k = 1 otherwise, and raises
    where those reads raise (the identity, the Singer-cycle classes)."""
    params = make_params(family, s)
    if family is Family.SUZUKI:
        iota, classes = iota_suzuki, OrderClassSz
        singer = OrderClassSz.DIVIDES_Q_MINUS_2Q0_PLUS_1
    else:
        iota, classes = iota_ree, OrderClassRee
        singer = OrderClassRee.DIVIDES_Q_MINUS_3Q0_PLUS_1
    raising = set()
    for klass in classes:
        at_zero = _weight_or_error(iota, params, klass, 0)
        elsewhere = _weight_or_error(iota, params, klass, 1)
        for k in range(2 * params.m):
            expected = at_zero if k % params.m == 0 else elsewhere
            assert _weight_or_error(iota, params, klass, k) == expected, (klass, k)
        raising |= {(klass, k) for k, w in ((0, at_zero), (1, elsewhere)) if type(w) is tuple}
    assert raising == {(classes.TAU, 0), (singer, 0), (singer, 1)}


@pytest.mark.parametrize(
    "family, s", WEIGHER_CURVES, ids=[f"{f.value}-{s}" for f, s in WEIGHER_CURVES]
)
def test_singer_images_match_iota_sigma_element(family, s):
    params = make_params(family, s)
    m = params.m
    exponents = set(range(1, m, max(1, m // 12))) | {1, m - 1, -1}
    exponents |= {c * (m // 7) for c in range(1, 7)} if m % 7 == 0 else set()
    for a_exp in sorted(exponents):
        weighing_m = {b for b in range(m) if iota_sigma_element(params, a_exp, b) == m}
        assert singer_images(params, a_exp) == weighing_m, a_exp


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


@pytest.mark.parametrize("limit", [0, -1])
def test_sample_limit_below_one_is_rejected(limit):
    message = f"sample limit must be at least 1, got {limit}"
    with pytest.raises(ValueError, match=message):
        sample_standard_exponents(make_params(Family.REE, 2).m, max_elements_cap(), limit)
    with pytest.raises(ValueError, match=message):
        sample_evenly([1, 2, 3], limit)


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
@example((12, [(1, 0, 8)]))  # a pure tau generator alone: E = <8>, one part
@example((12, [(1, 0, 4), (1, 0, 6)]))  # E = <4, 6>, the even exponents
@example((1, [(2, 0, 0), (1, 1, 0)]))  # m = 1: E = {0}, all 56 parts
def test_bitset_closure_matches_the_element_closure_on_any_generators(case):
    m, gens = case
    buckets = _close_skew(m, gens)
    got = {(a, b, e) for (a, b), bits in buckets.items() for e in bit_positions(bits)}
    assert got == ref_close_affine(m, gens)


@pytest.mark.parametrize("s", [2, 3])  # m = 217 and 2107
def test_skew_buckets_match_the_element_closure_on_every_suite_case(s, default_caps):
    """Bucket by bucket, on every (variant, i, w) the oracle suite's skew
    check closes: the affine parts, and each part's tau exponents, one coset
    of those of (1, 0)."""
    params = make_params(Family.REE, s)
    m, cap = params.m, max_elements_cap()
    for w in divisors(m // 7):
        if 56 * (m // (7 * w)) > cap:
            continue
        for i in range(1, 7):
            for variant in ("full", "cyclic"):
                gens = _skew_generators(params, SKEW_CLASSES[variant](i, w))
                expected = {}
                for a, b, e in ref_close_affine(m, gens):
                    expected.setdefault((a, b), set()).add(e)
                buckets = _close_skew(m, gens)
                got = {part: set(bit_positions(bits)) for part, bits in buckets.items()}
                assert got == expected, (variant, i, w)
