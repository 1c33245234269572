"""Independent brute-force recomputation of every closed-form genus.

Nothing in this module evaluates a closed-form different degree, and nothing
in it takes a gcd, a valuation or a CRT step.  Deltas are sums of
per-element weights over enumerated elements, congruence solutions are
counted pair by pair, and subgroup lists come from set closure.  The pair
counts run in the kernels without interpreting a double loop: one step on
any domain, or any steps on a one-column domain (n2 = m), is a row scan
that streams the multiples of n2 the progression i*r can reach, at most
half as many items as rows; several steps on several columns are a table
join (the shorter side of the fundamental domain tabulated, the longer
side streamed past it).  The singer-square delta check and the congruence
check scan the same rows of a subgroup with the same steps, so the oracle
suite passes one scans dict to both, and each row scan runs once per
suite (see _kernels.pure).  Census sums add each distinct term once and
multiply it by the number of elements that carry it: the weight of
sigma*tau^k depends on the class of sigma and on k, not on which element
of the class sigma is.  A census still weighs every element it adds: it
binds a weigher of the iota layer once per class (ree_weigher,
suzuki_weigher, sigma_weigher) and streams it over the elements with map.
The only shared code with the formula modules is the iota classification
layer, which is exactly the point of contact the cross-checks are meant to
pin.

A skew subgroup is closed as buckets: one m-bit int of tau exponents e per
affine part (a, b).  Right multiplication by an element moves each bucket
to one bucket and rotates its bits, so the closure adds S*g^(2^j) for
j = 0, 1, ... to S until nothing is added, for each generator g in turn,
until S*g is inside S for every generator; its census counts the buckets,
not the elements.

The Ree(3)-side censuses are validated against explicit permutation groups:
N2 (the order-168 normalizer of a Sylow 2-subgroup of Ree(3)) acts on the
field with eight elements by semilinear affine maps x -> a*x^(2^j) + b, and
PSL(2,8) acts on the projective line over that field by fractional linear
maps.  A realization does not depend on the curve, so each group is closed
once per process.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import cache
from itertools import compress, repeat
from operator import countOf, mod

from . import _kernels
from .catalog import StandardExponents, subgroup_order_sigma
from .curves import CurveParams, Family
from .iota import (  # iota_ree, iota_suzuki: callers also look them up here
    OrderClassRee,
    OrderClassSz,
    iota_ree,
    iota_sigma_element,
    iota_suzuki,
    ree_weigher,
    sigma_weigher,
    suzuki_weigher,
)
from .iota import census as census_table

DEFAULT_MAX_ELEMENTS = 400_000
DEFAULT_MAX_CLOSURE_M = 60


class BruteForceCapError(ValueError):
    """Raised when an oracle run would exceed the configured brute-force cap."""


class SettingError(ValueError):
    """Raised when an environment setting does not hold a valid value."""


def env_int(name: str, default: int, minimum: int | None = None) -> int:
    """Integer value of environment variable name, or default when unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise SettingError(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise SettingError(f"{name} must be at least {minimum}, got {value}")
    return value


def max_elements_cap(override: int | None = None) -> int:
    """Per-subgroup element-enumeration cap (env SKABELUND_MAX_ELEMENTS)."""
    if override is not None:
        return override
    return env_int("SKABELUND_MAX_ELEMENTS", DEFAULT_MAX_ELEMENTS, minimum=0)


def max_closure_m(override: int | None = None) -> int:
    """Largest m for closure subgroup enumeration (env SKABELUND_MAX_CLOSURE_M)."""
    if override is not None:
        return override
    return env_int("SKABELUND_MAX_CLOSURE_M", DEFAULT_MAX_CLOSURE_M, minimum=0)


def delta_sigma_cm_bruteforce(
    params: CurveParams,
    se: StandardExponents,
    max_elements: int | None = None,
    scans: dict | None = None,
) -> int:
    """Different degree of a Singer-square subgroup by element enumeration.

    Every element is materialized as (sigma^n1 tau^a)^i (tau^n2)^j and its
    weight read off the iota classification; no closed form is involved.
    A caller checking several subgroups of one curve may pass one scans
    dict here and to count_congruence_solutions: the kernels then run each
    row scan once (see _kernels.pure).
    """
    se.validate(params.m)
    order = subgroup_order_sigma(params.m, se)
    cap = max_elements_cap(max_elements)
    if order > cap:
        raise BruteForceCapError(f"|H|={order} exceeds brute-force cap {cap}")
    tau_count, special_count = _kernels.sigma_cm_iota_counts(
        params.m, se.n1, se.n2, se.a, params.q_powers, scans=scans
    )
    return tau_count * params.tau_iota + special_count * params.m


def delta_sigma_cm_direct(params: CurveParams, se: StandardExponents) -> int:
    """Kernel-free variant of delta_sigma_cm_bruteforce for small subgroups:
    sums iota_sigma_element per element, pinning the kernels to the iota
    primitive."""
    se.validate(params.m)
    m, n1, n2, a = params.m, se.n1, se.n2, se.a
    total = 0
    for i in range(m // n1):
        for j in range(m // n2):
            if i == 0 and j == 0:
                continue
            total += iota_sigma_element(params, (i * n1) % m, (i * a + j * n2) % m)
    return total


def count_congruence_solutions(
    params: CurveParams,
    se: StandardExponents,
    d: int,
    max_elements: int | None = None,
    scans: dict | None = None,
) -> int:
    """Number of pairs (i, j) in the fundamental domain of the subgroup with
    j*n2 = i*(n1*q^d - a) (mod m), including (0, 0).  scans as for
    delta_sigma_cm_bruteforce."""
    se.validate(params.m)
    if not 0 <= d < len(params.q_powers):
        raise ValueError(f"d={d} out of range for {params.family.value}")
    cap = max_elements_cap(max_elements)
    if subgroup_order_sigma(params.m, se) > cap:
        raise BruteForceCapError(f"subgroup exceeds brute-force cap {cap}")
    rhs = (se.n1 * params.q_powers[d] - se.a) % params.m
    return _kernels.congruence_count(params.m, se.n1, se.n2, rhs, scans=scans)


def enumerate_subgroups_bruteforce(
    m: int, cap: int | None = None
) -> set[frozenset[tuple[int, int]]]:
    """All subgroups of C_m x C_m as element sets, found by set closure."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    limit = max_closure_m(cap)
    if m > limit:
        raise BruteForceCapError(f"m={m} exceeds closure cap {limit}")
    return {
        frozenset(divmod(code, m) for code in codes)
        for codes in _kernels.cm_subgroups(m)
    }


def delta_b0_census(params: CurveParams, d: int, n: int, dihedral: bool) -> int:
    """Different degree of C_d x C_n or D_d x C_n (Suzuki) by census summation.

    q-1 is odd, so the d-1 non-identity rotations all have odd order
    dividing q-1; the dihedral case adds d reflections, all involutions.
    Each rotation and each reflection carries the same C_n coset of weights,
    so each coset is summed once and counted once per element.
    """
    if params.family is not Family.SUZUKI:
        raise ValueError("delta_b0_census needs Suzuki parameters")
    if (params.q - 1) % d != 0 or params.m % n != 0:
        raise ValueError(f"invalid divisors (d={d}, n={n})")
    total = sum(map(suzuki_weigher(params, OrderClassSz.TAU), range(1, n)))
    total += (d - 1) * sum(
        map(suzuki_weigher(params, OrderClassSz.DIVIDES_Q_MINUS_1), range(n))
    )
    if dihedral:
        total += d * sum(map(suzuki_weigher(params, OrderClassSz.ORDER2), range(n)))
    return total


def delta_census(
    group_tag: str, params: CurveParams, n: int, cosets: dict | None = None
) -> int:
    """Different degree of (Ree(3)-subgroup) x C_n by census summation.

    Each census entry contributes its count times the weight sum of one
    full C_n coset, sigma*tau^k for k in range(n) (see _ree_coset_sum); the
    tau-only coset (k != 0) is added once.

    A coset sum depends on the element order and on n, not on the group, so
    a caller checking several groups for one curve and one n may pass the
    same dict as cosets: each sum is then computed by the first call that
    needs it.  The dict must not be shared between curves or values of n.
    """
    if params.family is not Family.REE:
        raise ValueError("delta_census needs Ree parameters")
    if params.m % n != 0:
        raise ValueError(f"n={n} does not divide m={params.m}")
    cen = census_table(group_tag)
    if cosets is None:
        cosets = {}

    def coset(order: int) -> int:
        key = (order, cen.order3_central if order == 3 else None)
        if key not in cosets:
            cosets[key] = _ree_coset_sum(params, key, n)
        return cosets[key]

    total = coset(1)
    for order, count in cen.counts:
        if order != 1:
            total += count * coset(order)
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
    """Weight sum of sigma*tau^k over k in range(n), for sigma of the order
    and centrality in key (see _REE_COSET_CLASSES); for the tau powers the
    sum runs over k != 0.

    Order-2 elements weigh q+1 on every k, order-6 elements 1, order-3 and
    order-9 elements their k=0 weight and 1 elsewhere.  Order-7 elements
    weigh 0 except at the special tau powers, the k != 0 with 7*k = 0 in
    C_n, which weigh m each.  Those k are the j*n/7 for the j in 1..6 with
    7 | j*n, so they are counted over the multiples of n below 7n.
    """
    if key[0] == 7:
        return params.m * countOf(map(mod, range(n, 7 * n, n), repeat(7)), 0)
    try:
        klass = _REE_COSET_CLASSES[key]
    except KeyError:
        raise ValueError(f"unexpected (order, central) {key} in census") from None
    first = 1 if klass is OrderClassRee.TAU else 0
    return sum(map(ree_weigher(params, klass), range(first, n)))


# --- F8 arithmetic and the skew-subgroup element oracle ---------------------

_F8_REDUCTION = 0b1011  # x^3 + x + 1
F8_GENERATOR = 2  # the class of x, a generator of the multiplicative group


def f8_mul(a: int, b: int) -> int:
    """Multiplication in the field with eight elements (carry-less, reduced)."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 8:
            a ^= _F8_REDUCTION
    return acc


# product table of F8, built from f8_mul: _F8_MUL[a][b] = a*b
_F8_MUL = tuple(tuple(f8_mul(a, b) for b in range(8)) for a in range(8))

# discrete logarithm table for F8*: _F8_LOG[g^c] = c
_F8_LOG = {}
_v = 1
for _c in range(7):
    _F8_LOG[_v] = _c
    _v = f8_mul(_v, F8_GENERATOR)
del _c, _v


# bin() digits '0'/'1' as the bytes 0/1, selectors for itertools.compress
_BIT_DIGITS = bytes.maketrans(b"01", bytes((0, 1)))


def _bit_positions(bits: int):
    """Positions of the set bits of a non-negative int, ascending."""
    digits = bin(bits)[:1:-1].encode().translate(_BIT_DIGITS)
    return compress(range(len(digits)), digits)


def _skew_generators(
    params: CurveParams, variant: str, i: int, w: int
) -> list[tuple[int, int, int]]:
    if params.family is not Family.REE:
        raise ValueError("skew subgroups need Ree parameters")
    m = params.m
    if m % 7 != 0:
        raise ValueError("skew subgroups require 7 | m")
    if m % (7 * w) != 0:
        raise ValueError(f"w={w} violates 7w | m")
    if not 1 <= i <= 6:
        raise ValueError(f"i={i} out of range 1..6")
    if variant not in ("full", "cyclic"):
        raise ValueError(f"unknown variant {variant!r}")
    gens = [(F8_GENERATOR, 0, (i * w) % m)]
    if variant == "full":
        gens += [(1, 1, 0), (1, 2, 0), (1, 4, 0)]
    return gens


def _close_skew(m: int, gens: list[tuple[int, int, int]]) -> dict[tuple[int, int], int]:
    """Closure of gens as {(a, b): m-bit int whose bit e marks (a, b, e)}.

    The product (a1, b1, e1)(a2, b2, e2) is (a1*a2, a1*b2 + b1, e1 + e2), so
    right multiplication by one element moves every bucket (a, b) to one
    bucket and rotates its bits by e2.  S <- S*<g> is built by doubling
    (S <- S u S*g^(2^j) until nothing is added), generator after
    generator, until S*g is inside S for every generator.
    """
    full = (1 << m) - 1

    def times(group, g):
        a2, b2, e2 = g
        out = {}
        for (a1, b1), bits in group.items():
            row = _F8_MUL[a1]
            out[row[a2], row[b2] ^ b1] = ((bits << e2) | (bits >> (m - e2))) & full
        return out

    group = {(1, 0): 1}  # the identity (1, 0, 0)
    closed = False
    while not closed:
        closed = True
        for g in gens:
            power = g
            while True:
                grown = dict(group)
                for key, bits in times(group, power).items():
                    grown[key] = grown.get(key, 0) | bits
                if grown == group:
                    break
                group, closed = grown, False
                a, b, e = power
                power = (_F8_MUL[a][a], _F8_MUL[a][b] ^ b, (2 * e) % m)
    return group


def materialize_skew_subgroup(
    params: CurveParams, variant: str, i: int, w: int
) -> set[tuple[int, int, int]]:
    """Element set of H_{i,w} (variant 'full') or H'_{i,w} ('cyclic').

    Elements are triples (a, b, e) meaning the affine map x -> a*x + b on F8
    (an element of the order-56 subgroup of N2) paired with tau^e.  Closure
    of the generating set (_close_skew), no structure theory used.
    """
    buckets = _close_skew(params.m, _skew_generators(params, variant, i, w))
    return {
        (a, b, e) for (a, b), bits in buckets.items() for e in _bit_positions(bits)
    }


def delta_skew_census(params: CurveParams, variant: str, i: int, w: int) -> int:
    """Different degree of a skew subgroup by element-level weight summation.

    Involution cosets weigh q+1 per element, pure tau powers q^3+1, and the
    order-7-bearing elements a*x+b (a = g^c != 1) reduce to the Singer-square
    weight of sigma^(c*m/7) tau^e: conjugation by a translation moves any
    such element onto r^c without touching e.  The weight of a*x+b paired
    with tau^e therefore depends on (a, whether b = 0, e) only.  Buckets of
    the closure (_close_skew) with the same a, the same "b = 0" and the same
    bits are counted together, and the weights of their e are summed once.
    """
    m = params.m
    buckets = _close_skew(m, _skew_generators(params, variant, i, w))
    order = sum(bits.bit_count() for bits in buckets.values())
    expected_order = (56 if variant == "full" else 7) * (m // (7 * w))
    assert order == expected_order, (
        f"closure produced {order} elements, expected {expected_order}"
    )
    buckets[1, 0] &= ~1  # the identity has no weight
    total = 0
    terms = Counter((a, b != 0, bits) for (a, b), bits in buckets.items())
    for (a, translated, bits), count in terms.items():
        if a != 1:
            weigher = sigma_weigher(params, (_F8_LOG[a] * (m // 7)) % m)
        elif translated:
            weigher = ree_weigher(params, OrderClassRee.ORDER2)
        else:
            weigher = ree_weigher(params, OrderClassRee.TAU)
        total += count * sum(map(weigher, _bit_positions(bits)))
    return total


# --- permutation realizations of the Ree(3)-side groups ---------------------


def _f8_frobenius(x: int, j: int) -> int:
    for _ in range(j):
        x = _F8_MUL[x][x]
    return x


def _affine_perm(a: int, b: int, j: int) -> tuple[int, ...]:
    """x -> a * x^(2^j) + b as a permutation of the eight field elements."""
    return tuple(_F8_MUL[a][_f8_frobenius(x, j)] ^ b for x in range(8))


def _f8_div(a: int, b: int) -> int:
    for k in range(8):
        if _F8_MUL[b][k] == a:
            return k
    raise ZeroDivisionError("division by zero in F8")


def _mobius_perm(a: int, b: int, c: int, d: int) -> tuple[int, ...]:
    """z -> (a*z + b)/(c*z + d) on the projective line over F8; 8 = infinity."""
    image = []
    for z in range(9):
        if z == 8:
            image.append(8 if c == 0 else _f8_div(a, c))
            continue
        num = _F8_MUL[a][z] ^ b
        den = _F8_MUL[c][z] ^ d
        image.append(8 if den == 0 else _f8_div(num, den))
    return tuple(image)


def _perm_closure(generators: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    degree = len(generators[0])
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = tuple(g[p[k]] for k in range(degree))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def _perm_order(p: tuple[int, ...]) -> int:
    identity = tuple(range(len(p)))
    q, order = p, 1
    while q != identity:
        q = tuple(p[k] for k in q)
        order += 1
    return order


_G = F8_GENERATOR
_G2 = _F8_MUL[_G][_G]

# generator sets: s1, s2, s3 span the translations (the Sylow 2-subgroup),
# r is multiplication by a generator of F8* (order 7, cycles the s_i under
# conjugation), l is the Frobenius (order 3, conjugates r to r^2); the
# order-12 subgroup needs the twisted order-3 map x -> g*x^2, which
# normalizes the four translations by {0, 1, g, g+1}
_PERM_GENERATORS: dict[str, list[tuple[int, ...]]] = {
    "n2_168": [
        _affine_perm(1, 1, 0),
        _affine_perm(1, _G, 0),
        _affine_perm(1, _G2, 0),
        _affine_perm(_G, 0, 0),
        _affine_perm(1, 0, 1),
    ],
    "n2_56": [
        _affine_perm(1, 1, 0),
        _affine_perm(1, _G, 0),
        _affine_perm(1, _G2, 0),
        _affine_perm(_G, 0, 0),
    ],
    "n2_24": [
        _affine_perm(1, 1, 0),
        _affine_perm(1, _G, 0),
        _affine_perm(1, _G2, 0),
        _affine_perm(1, 0, 1),
    ],
    "n2_12": [
        _affine_perm(1, 1, 0),
        _affine_perm(1, _G, 0),
        _affine_perm(_G, 0, 1),
    ],
    "n2_8": [
        _affine_perm(1, 1, 0),
        _affine_perm(1, _G, 0),
        _affine_perm(1, _G2, 0),
    ],
    "n2_4": [
        _affine_perm(1, 1, 0),
        _affine_perm(1, _G, 0),
    ],
    "psl28": [
        _mobius_perm(1, 1, 0, 1),
        _mobius_perm(_G, 0, 0, 1),
        _mobius_perm(0, 1, 1, 0),
    ],
}


@cache
def _realized_census(group_tag: str) -> tuple[tuple[int, int], ...]:
    try:
        generators = _PERM_GENERATORS[group_tag]
    except KeyError:
        raise ValueError(f"unknown group tag {group_tag!r}") from None
    group = _perm_closure(generators)
    return tuple(sorted(Counter(_perm_order(p) for p in group).items()))


def realize_census(group_tag: str) -> dict[int, int]:
    """Order census of a tagged group from its permutation realization.

    The closure does not depend on the curve, so it runs once per tag per
    process; each call returns a fresh dict.
    """
    return dict(_realized_census(group_tag))
