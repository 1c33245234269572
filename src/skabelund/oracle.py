"""Independent brute-force recomputation of every closed-form genus.

Nothing in this module evaluates a closed-form different degree, and nothing
in it takes a gcd, a valuation or a CRT step.  Deltas are sums of
per-element weights over enumerated elements, congruence solutions are
counted pair by pair, and subgroup lists come from set closure.  The pair
counts run in the kernels without interpreting a double loop: each step's
hit rows are the multiples of the least row i with n2 | i*r, found among
the divisors of n2 by trial division; one step, or a one-column domain
(n2 = m), counts the hit rows, and several steps on several columns count
the distinct pairs (i, i*r mod m) of the hit rows.  The singer-square
delta check and the congruence check scan the same rows of a subgroup with
the same steps, so the oracle suite passes one scans dict to both, and
each row scan and divisor list is made once per suite (see _kernels).
Census sums add each distinct term once and
multiply it by the number of elements that carry it: the weight of
sigma*tau^k depends on the class of sigma and on k, not on which element
of the class sigma is.  For an order class it depends on k only through
whether k = 0 (mod m), so a C_n coset (n | m) or a bucket of tau exponents
below m is weighed from two reads of iota_ree or iota_suzuki, at k = 0 and
k = 1, without visiting its elements.  A Singer-cycle element sigma^A tau^B
of a skew subgroup weighs m exactly when B is one of the images A*q^d mod m
(iota.singer_images), so a bucket of them is weighed as m times the number
of its tau exponents among those images.  What this module shares with
the formula modules is the curve's constants (CurveParams, tau_iota and
q_powers among them) and the descriptor checks (catalog.check_descriptor,
and subgroup_order_sigma, which validates a Singer-square triple); the
suite adds the KINDS evaluators it compares against.  No formula module
imports iota: only the oracle sums its weights.

A skew subgroup is closed as buckets: one m-bit int of tau exponents e per
affine part (a, b).  The subgroup lies in Aff(F8) x C_m, so each bucket is
one coset rep(a, b) + E of the exponents E paired with the identity map,
and Schreier's lemma gives E from one breadth-first pass over the affine
parts: the exponent differences met at parts already reached generate it.
That pass keeps each nonzero generator exponent symbolic, so it runs once
per generator shape per process (the suite's two shapes at import), and
each call only scales its multiples by the exponents mod m.  E is closed
from {0} by doubling on one m-bit int, and its census counts the buckets,
not the elements.  The element-by-element closure in the tests
(tests/test_oracle_gate.py) stays the reference it must match.

The censuses take a catalog descriptor h, checked first by
catalog.check_descriptor: delta_b0_census(params, h) a B0Cyclic or B0Dihedral,
delta_census(params, h) a Psl28 or N2NonSkew, delta_skew_census(params, h,
images=None) an N2SkewFull or N2SkewCyclic.  The six Singer image masks a
skew census weighs by depend on the curve only: a caller censusing several
skew subgroups of one curve builds them once with skew_image_masks and
passes them in.

count_congruence_solutions(params, se) validates se and checks the element
cap once, and returns one count per special power, in q_powers order.
Subgroup closure works on m*m-bit masks, bit A*m+B set for the element
(A, B): enumerate_subgroups_bruteforce returns the kernel's masks as they
are, and catalog.standard_exponent_elements builds the same form.

The Ree(3)-side censuses are validated against explicit permutation groups
(_ree3, which also holds the F8 tables): realize_census closes each tagged
group once per process.  _skew_generators reads r and the translations s1,
s2, s3 from _ree3._N2, the generators the N2 realizations name theirs from,
so the skew closure and the realized censuses share one definition of the
group.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, countOf, mod, mul, sub

from . import _kernels
from ._ree3 import _F8_LOG, _F8_MUL, _N2
from ._ree3 import realize_census  # noqa: F401  (suite and pipebench look it up here)
from .catalog import B0Cyclic, B0Dihedral, N2NonSkew, N2SkewCyclic, N2SkewFull, Psl28, SigmaCm
from .catalog import check_descriptor, subgroup_order_sigma
from .curves import CurveParams
from .iota import (  # iota_ree, iota_suzuki: callers also look them up here
    CENSUS_TABLE,
    OrderClassRee,
    OrderClassSz,
    iota_ree,
    iota_suzuki,
    singer_images,
)
from .settings import max_closure_m, max_elements_cap


class BruteForceCapError(ValueError):
    """Raised when an oracle run would exceed the configured brute-force cap."""


def _check_element_cap(params: CurveParams, se: SigmaCm, max_elements: int | None) -> None:
    """Validate se; BruteForceCapError when |H| exceeds the element cap."""
    order = subgroup_order_sigma(params.m, se)
    cap = max_elements_cap(max_elements)
    if order > cap:
        raise BruteForceCapError(f"|H|={order} exceeds brute-force cap {cap}")


def delta_sigma_cm_bruteforce(
    params: CurveParams,
    se: SigmaCm,
    max_elements: int | None = None,
    scans: dict | None = None,
) -> int:
    """Different degree of a Singer-square subgroup by element enumeration.

    The elements are (sigma^n1 tau^a)^i (tau^n2)^j over the fundamental
    domain, weighed by the iota classification: tau_iota for each pure tau
    power, m for each sigma^A tau^B (A != 0) with B = A*q^d, 0 for the
    rest.  The kernels count the first two kinds by row scans, without
    visiting each element; no closed form is involved.  A caller checking
    several subgroups of one curve may pass one scans dict here and to
    count_congruence_solutions: the kernels then run each row scan once
    (see _kernels).
    """
    _check_element_cap(params, se, max_elements)
    tau_count, special_count = _kernels.sigma_cm_iota_counts(
        params.m, se.n1, se.n2, se.a, params.q_powers, scans=scans
    )
    return tau_count * params.tau_iota + special_count * params.m


def count_congruence_solutions(
    params: CurveParams,
    se: SigmaCm,
    max_elements: int | None = None,
    scans: dict | None = None,
) -> tuple[int, ...]:
    """For each special power q^d, in q_powers order, the number of pairs
    (i, j) in the fundamental domain of the subgroup with
    j*n2 = i*(n1*q^d - a) (mod m), including (0, 0).  se is validated and
    the element cap checked once for all the powers.  scans as for
    delta_sigma_cm_bruteforce."""
    _check_element_cap(params, se, max_elements)
    m, n1, n2, a = params.m, se.n1, se.n2, se.a
    # a list comprehension, not a generator: with a generator object per
    # call the peak RSS of repeated Ree suites rose by 0.13 MiB
    return tuple([
        _kernels.congruence_count(m, n1, n2, (n1 * qd - a) % m, scans=scans)
        for qd in params.q_powers
    ])


def enumerate_subgroups_bruteforce(m: int) -> set[int]:
    """All subgroups of C_m x C_m, found by set closure, as m*m-bit masks
    with bit A*m+B set for each element (A, B) (see _kernels.cm_subgroups)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    limit = max_closure_m()
    if m > limit:
        raise BruteForceCapError(f"m={m} exceeds closure cap {limit}")
    return _kernels.cm_subgroups(m)


def _class_weight_sum(
    iota, params: CurveParams, order_class, at_zero: int, elsewhere: int
) -> int:
    """Weight sum of at_zero elements sigma*tau^k with k = 0 (mod m) and
    elsewhere elements with k != 0 (mod m), sigma in order_class; iota is
    iota_suzuki or iota_ree.

    An order class weighs sigma*tau^k by whether k = 0 (mod m) only, so the
    sum takes two reads of iota: at k = 1 (every curve has m > 1) and, when
    at_zero is not 0, at k = 0.  For the tau class k = 0 is the identity,
    which raises in iota.
    """
    total = elsewhere * iota(params, order_class, 1)
    if at_zero:
        total += at_zero * iota(params, order_class, 0)
    return total


def _require(h, *classes: type) -> None:
    """ValueError unless h is of one of classes, the kinds a census sums."""
    if type(h) not in classes:
        raise ValueError(f"expected {' or '.join(c.__name__ for c in classes)}, got {h!r}")


def delta_b0_census(params: CurveParams, h: B0Cyclic | B0Dihedral) -> int:
    """Different degree of C_d x C_n or D_d x C_n (Suzuki) by census summation.

    q-1 is odd, so the d-1 non-identity rotations all have odd order
    dividing q-1; the dihedral case adds d reflections, all involutions.
    Each rotation and each reflection carries the same C_n coset of weights,
    sigma*tau^k for k in range(n).  Since n | m, k = 0 is the only k there
    with k = 0 (mod m), so a coset weighs its k = 0 element once and its
    k = 1 weight n-1 times (_class_weight_sum); the tau powers are the k != 0.
    """
    check_descriptor(params, h)
    _require(h, B0Cyclic, B0Dihedral)
    d, n = h
    total = _class_weight_sum(iota_suzuki, params, OrderClassSz.TAU, 0, n - 1)
    total += (d - 1) * _class_weight_sum(
        iota_suzuki, params, OrderClassSz.DIVIDES_Q_MINUS_1, 1, n - 1
    )
    if type(h) is B0Dihedral:
        total += d * _class_weight_sum(iota_suzuki, params, OrderClassSz.ORDER2, 1, n - 1)
    return total


def delta_census(params: CurveParams, h: Psl28 | N2NonSkew) -> int:
    """Different degree of (Ree(3)-subgroup) x C_n by census summation.

    Each census entry contributes its count times the weight sum of one
    full C_n coset, sigma*tau^k for k in range(n) (see _ree_coset_sum); the
    tau-only coset (k != 0) is added once.
    """
    check_descriptor(params, h)
    _require(h, Psl28, N2NonSkew)
    cen = CENSUS_TABLE["psl28" if type(h) is Psl28 else f"n2_{h.k_order}"]
    total = _ree_coset_sum(params, (1, None), h.n)
    for order, count in cen.counts:
        if order != 1:
            key = (order, cen.order3_central if order == 3 else None)
            total += count * _ree_coset_sum(params, key, h.n)
    return total


# (element order, central in a Sylow 3-subgroup or None) -> order class of
# sigma in a Ree(3)-side group; order 1 stands for the tau powers, k != 0
_REE_COSET_CLASSES = {
    (1, None): OrderClassRee.TAU,
    (2, None): OrderClassRee.ORDER2,
    (3, True): OrderClassRee.ORDER3_CENTRAL,
    (3, False): OrderClassRee.ORDER3_NONCENTRAL,
    (6, None): OrderClassRee.ORDER6,
    (9, None): OrderClassRee.ORDER9,
}


def _ree_coset_sum(params: CurveParams, key: tuple[int, bool | None], n: int) -> int:
    """Weight sum of sigma*tau^k over k in range(n), n | m, for sigma of the
    order and centrality in key (see _REE_COSET_CLASSES); for the tau powers
    the sum runs over k != 0.

    For every order but 7 the coset is the k = 0 element plus n-1 elements
    with k != 0 (mod m), weighed from two reads of iota_ree
    (_class_weight_sum).  Order-7 elements weigh 0 except at the special
    tau powers, the k != 0 with 7*k = 0 in C_n, which weigh m each.  Those
    k are the j*n/7 for the j in 1..6 with 7 | j*n, so they are counted
    over the multiples of n below 7n.
    """
    if key[0] == 7:
        return params.m * countOf(map(mod, range(n, 7 * n, n), repeat(7)), 0)
    klass = _REE_COSET_CLASSES[key]
    at_zero = 0 if klass is OrderClassRee.TAU else 1
    return _class_weight_sum(iota_ree, params, klass, at_zero, n - 1)


# --- the skew-subgroup element oracle ---------------------------------------


def _skew_generators(
    params: CurveParams, h: N2SkewFull | N2SkewCyclic
) -> list[tuple[int, int, int]]:
    """Generators (a, b, e) of h: r*tau^(i*w), and for N2SkewFull also the
    translations s1, s2, s3, read from _N2 (their j = 0 reads as e = 0)."""
    a, b, _ = _N2["r"]
    gens = [(a, b, (h.i * h.w) % params.m)]
    if type(h) is N2SkewFull:
        gens += [_N2["s1"], _N2["s2"], _N2["s3"]]
    return gens


def _skeleton(shape: tuple[tuple[int, int, bool], ...]) -> tuple[tuple, tuple]:
    """The breadth-first pass of _close_skew over the affine parts, for
    generators (a, b, symbolic) with symbolic true where the tau exponent is
    not 0 mod m.  Exponents are vectors of multiples of the symbolic
    generators' exponents, so the pass does not depend on m or on them.

    Returns (schreier, groups): the distinct nonzero Schreier generators of
    E, and (rep, parts) per distinct rep, the parts whose coset is rep + E.
    """
    symbols = [k for k, (_, _, symbolic) in enumerate(shape) if symbolic]
    units = [(a, b, tuple(int(i == k) for i in symbols)) for k, (a, b, _) in enumerate(shape)]
    reps = {(1, 0): (0,) * len(symbols)}  # the identity (1, 0, 0)
    schreier = {}
    frontier = [(1, 0)]
    while frontier:
        reached = []
        for a1, b1 in frontier:
            v1 = reps[a1, b1]
            row = _F8_MUL[a1]
            for a2, b2, unit in units:
                part = row[a2], row[b2] ^ b1
                v = tuple(map(add, v1, unit))
                rep = reps.get(part)
                if rep is None:
                    reps[part] = v
                    reached.append(part)
                elif rep != v:
                    schreier[tuple(map(sub, v, rep))] = None
        frontier = reached
    groups = {}
    for part, v in reps.items():
        groups.setdefault(v, []).append(part)
    return tuple(schreier), tuple((v, tuple(parts)) for v, parts in groups.items())


# the shapes of the suite's skew generators, built once: r*tau^(i*w), whose
# exponent 0 < i*w < m is never 0 mod m, alone or with s1, s2, s3 (j = 0)
_SKELETONS = {
    shape: _skeleton(shape)
    for shape in (
        tuple((*_N2[name][:2], name == "r") for name in names)
        for names in (("r",), ("r", "s1", "s2", "s3"))
    )
}


def _close_skew(m: int, gens: list[tuple[int, int, int]]) -> dict[tuple[int, int], int]:
    """Closure of gens as {(a, b): m-bit int whose bit e marks (a, b, e)}.

    The product (a1, b1, e1)(a2, b2, e2) is (a1*a2, a1*b2 + b1, e1 + e2), so
    the group G = <gens> lies in Aff(F8) x C_m, and each of its buckets is
    one coset rep(a, b) + E of the tau exponents E paired with the identity
    map.  One breadth-first pass over the affine parts from (1, 0) keeps the
    first tau exponent reaching each part as its rep; an edge that reaches
    a seen part with another exponent e gives the Schreier generator
    e - rep of E (Schreier's lemma: C_m is central, so the Schreier
    generator of a part and a generator is its exponent difference).

    That pass depends on the generators' affine parts and on which of their
    exponents are 0 mod m only: each rep and Schreier generator is a sum of
    integer multiples of the nonzero exponents (_skeleton).  It runs once
    per generator shape per process, at import for the suite's two shapes
    (_SKELETONS); a call only scales its multiples by the exponents mod m.
    E is closed from {0} by doubling (E <- E u E + delta*2^j until nothing
    is added), skipping each delta already in E, and rotated once per
    distinct rep.
    """
    full = (1 << m) - 1

    def rotate(bits, e):
        return ((bits << e) | (bits >> (m - e))) & full

    exponents = [e % m for _, _, e in gens]
    shape = tuple((a, b, e != 0) for (a, b, _), e in zip(gens, exponents))
    schreier, groups = _SKELETONS.get(shape) or _skeleton(shape)
    nonzero = [e for e in exponents if e]  # what the multiples scale
    kernel = 1  # E as an m-bit int
    for multiples in schreier:
        delta = sum(map(mul, multiples, nonzero)) % m
        if kernel >> delta & 1:
            continue
        while True:
            grown = kernel | rotate(kernel, delta)
            if grown == kernel:
                break
            kernel, delta = grown, (2 * delta) % m
    buckets = {}
    for multiples, parts in groups:
        bits = rotate(kernel, sum(map(mul, multiples, nonzero)) % m)
        for part in parts:
            buckets[part] = bits
    return buckets


def skew_image_masks(params: CurveParams) -> dict[int, int]:
    """{c: m-bit int with bit B set at each image B of sigma^(c*m/7)} for
    c = 1..6, the singer_images a skew census weighs its a != 1 buckets by.
    They depend on the curve only, so a caller censusing several skew
    subgroups of one curve builds them once and passes them to each
    delta_skew_census; m must be a multiple of 7."""
    m = params.m
    return {
        c: sum(1 << b for b in singer_images(params, c * (m // 7))) for c in range(1, 7)
    }


def delta_skew_census(
    params: CurveParams, h: N2SkewFull | N2SkewCyclic, images: dict[int, int] | None = None
) -> int:
    """Different degree of a skew subgroup by element-level weight summation.

    Involution cosets weigh q+1 per element, pure tau powers q^3+1, and the
    order-7-bearing elements a*x+b (a = g^c != 1) reduce to the Singer-square
    weight of sigma^(c*m/7) tau^e: conjugation by a translation moves any
    such element onto r^c without touching e.  The weight of a*x+b paired
    with tau^e therefore depends on (a, whether b = 0, e) only.  Each bucket
    of the closure (_close_skew) is weighed from its bits without visiting
    its e: for a != 1 as m per e among the singer_images of c*m/7, with
    a = g^c.  The a = 1 buckets weigh by order class and by whether
    e = 0 mod m, which for e in range(m) is bit 0 only: the involution
    buckets (b != 0) are summed into one count and weighed with the pure
    tau powers from at most three reads of iota_ree.  images is
    skew_image_masks(params), built here when not given.
    """
    check_descriptor(params, h)
    _require(h, N2SkewFull, N2SkewCyclic)
    m = params.m
    buckets = _close_skew(m, _skew_generators(params, h))
    order = sum(bits.bit_count() for bits in buckets.values())
    expected_order = (56 if type(h) is N2SkewFull else 7) * (m // (7 * h.w))
    assert order == expected_order, (
        f"closure produced {order} elements, expected {expected_order}"
    )
    tau = buckets.pop((1, 0)) & ~1  # the identity has no weight
    if images is None:
        images = skew_image_masks(params)
    total = involutions = at_zero = 0
    for (a, _), bits in buckets.items():
        if a != 1:
            total += m * (bits & images[_F8_LOG[a]]).bit_count()
        else:
            involutions += bits.bit_count()
            at_zero += bits & 1  # bit e stands for tau^e, e in range(m)
    total += _class_weight_sum(iota_ree, params, OrderClassRee.TAU, 0, tau.bit_count())
    return total + _class_weight_sum(
        iota_ree, params, OrderClassRee.ORDER2, at_zero, involutions - at_zero
    )
