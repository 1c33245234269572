"""Catalog of subgroup families with known closed-form quotient genera.

Subgroups of the abelian square C_m x C_m = <sigma> x <tau> are parametrized
by their standard exponents (n1, n2, a): the unique triple with n1 | m,
n2 | m, 0 <= a < n2, n1*n2 | a*m such that H = <sigma^n1 tau^a, tau^n2>.
Every subgroup arises from exactly one such triple and |H| = m^2/(n1*n2).
The descriptor SigmaCm is that triple: the enumerator, the closed form, the
oracle and the exports all take it.

The remaining descriptors name the non-abelian families handled by this
package: cyclic/dihedral subgroups of B0 x C_m on the Suzuki side, and
PSL(2,8) x C_n plus subgroups of N2 x C_m (N2 the order-168 normalizer of a
Sylow 2-subgroup of Ree(3)) on the Ree side.  Families whose genus formulas
exist only in earlier work (Frobenius, opposite Singer normalizer,
involution centralizer, N, and subfield-subgroup products) are deliberately
not cataloged; spectrum reports carry a completeness note to that effect.

Each descriptor is the flat tuple of its export parameters.  KINDS defines
each cataloged kind once: its name, descriptor class (whose _fields are the
parameters), curve family, enumerator, conditions and closed form.
family_kinds answers which kinds a curve has (all, or one named kind), and
enumerate_descriptors which descriptors; the spectrum and the oracle suite
take them from there.  The closed forms and the oracle's censuses check a
descriptor by check_descriptor first and trust what the catalog built.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from itertools import product, starmap
from typing import NamedTuple, Union

from .arith import divisors
from .curves import CurveParams, Family

N2_SUBGROUP_ORDERS = (168, 56, 24, 12, 8, 4)


def _same_kind_eq(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _same_kind_ne(self, other) -> bool:
    return type(other) is not type(self) or tuple.__ne__(self, other)


def _kind_hash(self) -> int:
    return hash((type(self), *self))


def _descriptor(cls):
    """Compare and hash a descriptor class's tuples within their kind only:
    B0Cyclic(3, 5) differs from B0Dihedral(3, 5) and from the plain tuple
    (3, 5), although all three hold equal fields."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _same_kind_eq, _same_kind_ne, _kind_hash
    return cls


@_descriptor
class SigmaCm(NamedTuple):
    """Subgroup of the Singer-cycle square Sigma_- x C_m, by standard exponents."""

    n1: int
    n2: int
    a: int

    def validate(self, m: int) -> None:
        """ValueError unless (n1, n2, a) are ints naming a subgroup for m.
        A float or a bool field would pass every arithmetic check below."""
        _check_fields(self)
        _divides("n1", self.n1, "m", m)
        _divides("n2", self.n2, "m", m)
        if not 0 <= self.a < self.n2:
            raise ValueError(f"a={self.a} out of range [0, {self.n2})")
        if (self.a * m) % (self.n1 * self.n2) != 0:
            raise ValueError(f"n1*n2 must divide a*m for {self}")


@_descriptor
class B0Cyclic(NamedTuple):
    """C_d x C_n inside B0 x C_m (Suzuki), d | q-1 and n | m."""

    d: int
    n: int


@_descriptor
class B0Dihedral(NamedTuple):
    """D_d x C_n inside B0 x C_m (Suzuki), order 2*d*n."""

    d: int
    n: int


@_descriptor
class Psl28(NamedTuple):
    """PSL(2,8) x C_n (Ree), n | m."""

    n: int


@_descriptor
class N2NonSkew(NamedTuple):
    """K x C_n with K a subgroup of N2 of order 168, 56, 24, 12, 8 or 4 (Ree)."""

    k_order: int
    n: int


@_descriptor
class N2SkewFull(NamedTuple):
    """<s1, s2, s3, r*tau^(i*w)> of order 56*m/(7w), requires 7w | m (Ree)."""

    i: int
    w: int


@_descriptor
class N2SkewCyclic(NamedTuple):
    """<r*tau^(i*w)> of order 7*m/(7w), requires 7w | m (Ree)."""

    i: int
    w: int


SubgroupDescriptor = Union[
    SigmaCm, B0Cyclic, B0Dihedral, Psl28, N2NonSkew, N2SkewFull, N2SkewCyclic
]


class GenusRecord(NamedTuple):
    """One quotient curve: subgroup descriptor, |H|, different degree, genus."""

    descriptor: SubgroupDescriptor
    order: int
    delta: int
    genus: int


class NonIntegralGenusError(ArithmeticError):
    """Raised when a genus formula fails to produce an exact integer."""


def make_record(
    params: CurveParams, descriptor: SubgroupDescriptor, order: int, delta: int
) -> GenusRecord:
    """Build a GenusRecord from |H| and delta via Riemann-Hurwitz, exactly.

    ambient_degree = |H|*(2g - 2) + delta must solve for an integer g >= 0,
    and |H| must divide the full automorphism group order; anything else is
    a formula or implementation fault and aborts loudly.  The descriptor is
    taken as valid: its closed form has checked it (check_descriptor).
    """
    remainder = params.ambient_degree - delta
    if remainder % (2 * order) != 0:
        raise NonIntegralGenusError(
            f"{descriptor}: 2|H|={2 * order} does not divide "
            f"ambient-delta={remainder}"
        )
    genus = remainder // (2 * order) + 1
    if genus < 0:
        raise NonIntegralGenusError(f"{descriptor}: negative genus {genus}")
    if delta < 0 or params.aut_order % order != 0:
        raise NonIntegralGenusError(
            f"{descriptor}: invalid order/delta pair ({order}, {delta})"
        )
    return GenusRecord(descriptor=descriptor, order=order, delta=delta, genus=genus)


def standard_exponent_step(m: int, n1: int, n2: int) -> int:
    """The valid a for (n1, n2) are exactly the multiples of this step below n2.

    n1*n2 | a*m holds iff n1*n2/gcd(n1*n2, m) divides a; since n1 | m the
    step divides n2.
    """
    n1n2 = n1 * n2
    return n1n2 // math.gcd(n1n2, m)


def standard_exponent_blocks(m: int) -> list[tuple[int, int, int]]:
    """(n1, n2, step) per block of enumerate_standard_exponents, in its order.

    The block (n1, n2) holds the n2/step triples (n1, n2, j*step), all of
    order m^2/(n1*n2).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    divs = divisors(m)
    return [(n1, n2, standard_exponent_step(m, n1, n2)) for n1 in divs for n2 in divs]


def enumerate_standard_exponents(m: int) -> list[SigmaCm]:
    """All standard-exponent triples for C_m x C_m, lexicographic by (n1, n2, a).

    Exactly one triple per subgroup; the bijection with closure-enumerated
    subgroups is certified by the oracle test suite.
    """
    out = []
    for n1, n2, step in standard_exponent_blocks(m):
        out.extend(SigmaCm(n1, n2, a) for a in range(0, n2, step))
    return out


def subgroup_order_sigma(m: int, se: SigmaCm) -> int:
    """|H| = m^2/(n1*n2), always exact."""
    se.validate(m)
    order, rem = divmod(m * m, se.n1 * se.n2)
    assert rem == 0
    return order


def standard_exponent_elements(m: int, se: SigmaCm) -> int:
    """Element set of <sigma^n1 tau^a, tau^n2> as an m*m-bit mask: bit A*m+B
    is set for each element sigma^A tau^B, exponents mod m (the form of
    oracle.enumerate_subgroups_bruteforce).

    Elements are written uniquely as (sigma^n1 tau^a)^i (tau^n2)^j with
    0 <= i < m/n1 and 0 <= j < m/n2, so the mask is built row by row: row
    A = i*n1 holds the column pattern sum_j 2^(j*n2) rotated by i*a mod m.
    The pattern repeats every n2 bits, so that rotation is a shift by
    i*a mod n2.
    """
    se.validate(m)
    n1, n2, a = se.n1, se.n2, se.a
    pattern = sum(1 << j for j in range(0, m, n2))
    return sum(pattern << (i * n1 * m + i * a % n2) for i in range(m // n1))


def _b0(cls):
    """Enumerator of C_d x C_n resp. D_d x C_n: d | q-1 major, n | m minor."""
    return lambda params: starmap(cls, product(divisors(params.q - 1), divisors(params.m)))


def _skew(cls):
    """Enumerator of a skew N2 family: w with 7w | m major, i = 1..6 minor."""
    return lambda params: (
        cls(i, w) for w in divisors(params.m) if params.m % (7 * w) == 0 for i in range(1, 7)
    )


def _check_fields(h: SubgroupDescriptor) -> None:
    # a float or a bool field would pass every arithmetic check of a kind
    for field in h:
        if type(field) is not int:
            raise ValueError(f"descriptor fields must be int, got {h!r}")


def _divides(name: str, value: int, total_name: str, total: int) -> None:
    # a negative divisor still divides: m % -n == 0
    if value < 1 or total % value != 0:
        raise ValueError(f"{name}={value} does not divide {total_name}={total}")


def _check_b0(params: CurveParams, h: B0Cyclic | B0Dihedral) -> None:
    _divides("d", h.d, "q-1", params.q - 1)
    _divides("n", h.n, "m", params.m)


def _check_n2_nonskew(params: CurveParams, h: N2NonSkew) -> None:
    _divides("n", h.n, "m", params.m)
    if h.k_order not in N2_SUBGROUP_ORDERS:
        orders = ", ".join(map(str, N2_SUBGROUP_ORDERS))
        raise ValueError(f"k_order={h.k_order} not one of {orders}")


def _check_skew(params: CurveParams, h: N2SkewFull | N2SkewCyclic) -> None:
    # when 7 does not divide m, no w >= 1 passes
    if h.w < 1 or params.m % (7 * h.w) != 0:
        raise ValueError(f"w={h.w} violates 7w | m for m={params.m}")
    if not 1 <= h.i <= 6:
        raise ValueError(f"i={h.i} out of range 1..6")


class DescriptorKind(NamedTuple):
    """One cataloged subgroup family: everything the package knows of a kind.

    The evaluators look their closed forms up at call time on the genus
    modules and, for sigma-cm (one closed form for both families), on
    singer, so whatever those module attributes hold is what runs.
    """

    name: str  # CLI and export name
    cls: type  # the descriptor class; its _fields are the parameters
    family: Family | None  # the curve family that has the kind; None: both
    # params -> the kind's descriptors on that curve, in order
    enumerate: Callable[[CurveParams], Iterable[SubgroupDescriptor]]
    # (params, descriptor of int fields): ValueError unless it is enumerated
    check: Callable[[CurveParams, SubgroupDescriptor], None]
    evaluate: Callable[[CurveParams, SubgroupDescriptor], GenusRecord]


KINDS: tuple[DescriptorKind, ...] = (
    DescriptorKind(
        "sigma-cm", SigmaCm, None,
        lambda params: enumerate_standard_exponents(params.m),
        lambda params, h: h.validate(params.m),
        lambda params, h: singer.sigma_cm_record(params, h),
    ),
    DescriptorKind(
        "b0-cyclic", B0Cyclic, Family.SUZUKI, _b0(B0Cyclic), _check_b0,
        lambda params, h: genus_suzuki.genus_b0_cyclic(params, h.d, h.n),
    ),
    DescriptorKind(
        "b0-dihedral", B0Dihedral, Family.SUZUKI, _b0(B0Dihedral), _check_b0,
        lambda params, h: genus_suzuki.genus_b0_dihedral(params, h.d, h.n),
    ),
    DescriptorKind(
        "psl28", Psl28, Family.REE, lambda params: map(Psl28, divisors(params.m)),
        lambda params, h: _divides("n", h.n, "m", params.m),
        lambda params, h: genus_ree.genus_psl28(params, h.n),
    ),
    DescriptorKind(
        "n2-nonskew", N2NonSkew, Family.REE,
        lambda params: starmap(N2NonSkew, product(N2_SUBGROUP_ORDERS, divisors(params.m))),
        _check_n2_nonskew,
        lambda params, h: genus_ree.genus_n2_nonskew(params, h.k_order, h.n),
    ),
    DescriptorKind(
        "n2-skew-full", N2SkewFull, Family.REE, _skew(N2SkewFull), _check_skew,
        lambda params, h: genus_ree.genus_n2_skew_full(params, h.i, h.w),
    ),
    DescriptorKind(
        "n2-skew-cyclic", N2SkewCyclic, Family.REE, _skew(N2SkewCyclic), _check_skew,
        lambda params, h: genus_ree.genus_n2_skew_cyclic(params, h.i, h.w),
    ),
)

KINDS_BY_NAME = {kind.name: kind for kind in KINDS}
_KINDS_BY_CLASS = {kind.cls: kind for kind in KINDS}


def kind_of(descriptor: SubgroupDescriptor) -> DescriptorKind:
    """The KINDS entry of a descriptor's class."""
    try:
        return _KINDS_BY_CLASS[type(descriptor)]
    except KeyError:
        raise ValueError(f"unknown descriptor {descriptor!r}") from None


def family_kinds(family: Family, name: str | None = None) -> list[DescriptorKind]:
    """The kinds a curve of family has, in KINDS order, or the one named;
    ValueError if name names no kind, or a kind of the other family."""
    if name is None:
        return [kind for kind in KINDS if kind.family in (None, family)]
    kind = KINDS_BY_NAME.get(name)
    if kind is None:
        raise ValueError(f"unknown subgroup family {name!r}")
    if kind.family not in (None, family):
        raise ValueError(
            f"subgroup family {name!r} is a {kind.family.value} kind, "
            f"not a {family.value} one"
        )
    return [kind]


def check_descriptor(params: CurveParams, h: SubgroupDescriptor) -> None:
    """Raise ValueError unless h names a subgroup of the curve.  In order:
    every field is an int (a float or a bool would pass the arithmetic), the
    kind is of the curve's family, and DescriptorKind.check passes."""
    kind = kind_of(h)
    _check_fields(h)
    family_kinds(params.family, kind.name)
    kind.check(params, h)


def enumerate_descriptors(params: CurveParams) -> list[SubgroupDescriptor]:
    """All cataloged descriptors for one curve, kind by kind in KINDS order:
    the Singer square (the one kind both families have) first."""
    return [d for kind in family_kinds(params.family) for d in kind.enumerate(params)]


# the evaluators reach the genus modules, which import this one, through
# these module attributes; importing them last leaves no import-order cycle
from . import genus_ree, genus_suzuki, singer  # noqa: E402
