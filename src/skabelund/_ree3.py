"""The Ree(3)-side groups as explicit permutation groups, and the field with
eight elements they act on.

N2 (the order-168 normalizer of a Sylow 2-subgroup of Ree(3)) acts on the
field with eight elements by semilinear affine maps x -> a*x^(2^j) + b, and
PSL(2,8) acts on the projective line over that field by fractional linear
maps.  N2's generators are defined once, in _N2: the N2 realizations name
theirs from it, and the oracle's skew closure reads r and the translations
s1, s2, s3 from it, so the skew closure and the realized censuses share one
definition of the group.  A realization does not depend on the curve, so
each group is closed once per process.  Only the oracle imports this module.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

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

# the generators of N2 as semilinear maps x -> a*x^(2^j) + b, stored as
# (a, b, j): s1, s2, s3 span the translations (the Sylow 2-subgroup), r is
# multiplication by a generator g of F8* (order 7, cycles the s_i under
# conjugation), l is the Frobenius (order 3, conjugates r to r^2), and lt,
# x -> g*x^2, is the twisted order-3 map that normalizes the four
# translations by {0, 1, g, g+1}
_N2 = {
    "s1": (1, 1, 0),
    "s2": (1, F8_GENERATOR, 0),
    "s3": (1, _F8_MUL[F8_GENERATOR][F8_GENERATOR], 0),
    "r": (F8_GENERATOR, 0, 0),
    "l": (1, 0, 1),
    "lt": (F8_GENERATOR, 0, 1),
}


def _f8_frobenius(x: int, j: int) -> int:
    for _ in range(j):
        x = _F8_MUL[x][x]
    return x


def _affine_perm(a: int, b: int, j: int) -> tuple[int, ...]:
    """x -> a * x^(2^j) + b as a permutation of the eight field elements."""
    return tuple(_F8_MUL[a][_f8_frobenius(x, j)] ^ b for x in range(8))


def _f8_div(a: int, b: int) -> int:
    """a/b in F8, the unique k with b*k = a; ZeroDivisionError when b = 0."""
    if not b:
        raise ZeroDivisionError("division by zero in F8")
    return _F8_MUL[b].index(a)


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


# each N2 subgroup by the names of its generators in _N2; PSL(2,8) by the
# fractional linear maps z -> z+1, z -> g*z and z -> 1/z
_PERM_GENERATORS: dict[str, list[tuple[int, ...]]] = {
    tag: [_affine_perm(*_N2[name]) for name in names]
    for tag, names in {
        "n2_168": ("s1", "s2", "s3", "r", "l"),
        "n2_56": ("s1", "s2", "s3", "r"),
        "n2_24": ("s1", "s2", "s3", "l"),
        "n2_12": ("s1", "s2", "lt"),
        "n2_8": ("s1", "s2", "s3"),
        "n2_4": ("s1", "s2"),
    }.items()
}
_PERM_GENERATORS["psl28"] = [
    _mobius_perm(1, 1, 0, 1),
    _mobius_perm(F8_GENERATOR, 0, 0, 1),
    _mobius_perm(0, 1, 1, 0),
]


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
