"""Closed-form different degree for subgroups of the Singer-cycle square.

Both curve families use the same expression; only the number of special
powers (four for Suzuki, six for Ree) and the pure-tau weight differ, and
both are carried by CurveParams.  With m = p_1^e_1 ... p_r^e_r and
nu_{d,l} = min(v_{p_l}(n1*q^d - a), v_{p_l}(n2)),

    delta = (m/n2 - 1) * (q^e + 1)
          + sum_d (m * prod_l p_l^nu_{d,l} / (n1*n2) - 1) * m,

where the d-th summand counts the subgroup elements sigma^A tau^B whose
tau-exponent hits the d-th special power A*q^d, via a prime-by-prime
congruence solution count.  The product is one gcd:

    prod_l p_l^nu_{d,l} = gcd(n1*q^d - a, n2),

because every prime of n2 divides m, gcd(0, n2) = n2 plays the role of
v_p(0) = infinity, and reducing q^d mod m shifts n1*q^d - a by a multiple
of m, hence of n2, which leaves the gcd unchanged.  The oracle's
congruence check (spectrum.run_oracle_suite) still forms the product prime by
prime, so it checks the count against a formulation this module no longer
shares.

delta_sigma_cm evaluates this for one subgroup.  For a whole curve,
evaluate_singer_square evaluates it once per nu-profile class instead, on
one member of the class: for fixed (n1, n2) the exponents nu_{d,l} depend on
a only through a mod p_l^v_{p_l}(n2), so the valid a (the multiples of
n1*n2/gcd(n1*n2, m) below n2) fall into a few classes that share one
profile, one delta and one genus.  The classes are counted prime by prime:
only the residues a = n1*q^d (mod p) can have a nonzero exponent, so at most
one residue in p of each power is enumerated and every other residue is
counted into the all-zero profile; the p-part p^nu_d of a residue r is
gcd(n1*q^d - r, p^v_p(n2)).  The primes are then combined by the Chinese
remainder theorem into a multiset {profile: count}, with one member of each
class.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import repeat
from math import gcd
from operator import mod
from typing import NamedTuple, TypeVar

from .arith import valuation
from .catalog import (
    GenusRecord,
    SigmaCm,
    StandardExponents,
    make_record,
    standard_exponent_blocks,
    standard_exponent_step,
    subgroup_order_sigma,
)
from .curves import CurveParams

T = TypeVar("T")


def delta_sigma_cm(params: CurveParams, se: StandardExponents) -> int:
    """Different degree of the subgroup with standard exponents (n1, n2, a).

    The congruence count of the d-th special power is
    m * gcd(n1*q^d - a, n2) / (n1*n2): the gcd is the product of the
    p^nu_{d,l} of the closed form (see the module docstring).
    """
    se.validate(params.m)
    m = params.m
    n1, n2, a = se.n1, se.n2, se.a
    n1n2 = n1 * n2
    total = (m // n2 - 1) * params.tau_iota
    for qd in params.q_powers:
        # q^d is reduced mod m; n2 | m, so the gcd is that of the unreduced power
        part = gcd(n1 * qd - a, n2)
        count, rem = divmod(m * part, n1n2)
        assert rem == 0, f"congruence count {m * part} not divisible by {n1n2}"
        total += (count - 1) * m
    return total


class ProfileClass(NamedTuple):
    """The subgroups of one (n1, n2) that share a nu-profile."""

    a: int  # one member of the class
    count: int  # number of members


class SingerBlock(NamedTuple):
    """The subgroups (n1, n2, a) of one (n1, n2), grouped by nu-profile.

    a runs over the multiples of step below n2.  For the i-th prime p | n2,
    residues[i] maps a mod moduli[i] = p^v_p(n2) to the index of the p-part
    of its profile; residues missing from the map have the all-zero p-part,
    index 0.  A class is keyed by the tuple of those indices.
    """

    n1: int
    n2: int
    step: int
    moduli: tuple[int, ...]
    residues: tuple[dict[int, int], ...]
    classes: dict[tuple[int, ...], ProfileClass]


def _prime_classes(params: CurveParams, n1: int, p: int, pe: int, step: int):
    """The p-parts p^nu_d of the profiles over the residues a mod pe that are
    multiples of p^v_p(step).

    Returns (residue -> profile index, count per profile, one residue per
    profile); index 0 is the all-zero profile.
    """
    base = p ** valuation(p, step)
    index = {(1,) * len(params.q_powers): 0}
    residue_ids: dict[int, int] = {}
    counts = [pe // base]
    members = [None]
    for target in sorted({n1 * qd % p for qd in params.q_powers}):
        # residues = target (mod p) that are multiples of base; when base > 1
        # they exist only for target 0, and then they are all of them
        if base == 1:
            hits = range(target, pe, p)
        elif target == 0:
            hits = range(0, pe, base)
        else:
            continue
        for r in hits:
            profile = tuple(gcd(n1 * qd - r, pe) for qd in params.q_powers)
            i = index.setdefault(profile, len(index))
            if i == len(counts):
                counts.append(0)
                members.append(r)
            residue_ids[r] = i
            counts[i] += 1
            counts[0] -= 1
    if counts[0]:
        members[0] = next(r for r in range(0, pe, base) if r not in residue_ids)
    return residue_ids, counts, members


def singer_block(params: CurveParams, n1: int, n2: int) -> SingerBlock:
    """Every nu-profile class of the subgroups (n1, n2, a), with its size."""
    step = standard_exponent_step(params.m, n1, n2)
    combined = {(): (0, 1)}  # class key -> (CRT sum of a member, count)
    moduli = []
    residues = []
    for p, _e in params.m_factors:
        pe = p ** valuation(p, n2)
        if pe == 1:
            continue
        residue_ids, counts, members = _prime_classes(params, n1, p, pe, step)
        moduli.append(pe)
        residues.append(residue_ids)
        # a = r (mod pe) and a = 0 (mod n2/pe) for a member r of the p-class
        rest = n2 // pe
        lift = rest * pow(rest, -1, pe)
        combined = {
            key + (i,): (a + members[i] * lift, count * counts[i])
            for key, (a, count) in combined.items()
            for i in range(len(counts))
            if counts[i]
        }
    classes = {key: ProfileClass(a % n2, count) for key, (a, count) in combined.items()}
    total = sum(c.count for c in classes.values())
    assert total == n2 // step, f"(n1, n2)=({n1}, {n2}): {total} subgroups counted"
    return SingerBlock(n1, n2, step, tuple(moduli), tuple(residues), classes)


class SingerSquare(NamedTuple):
    """Every subgroup of the Singer-cycle square of one curve, by class.

    blocks follow catalog.standard_exponent_blocks, so walk and expand keep
    enumerate_standard_exponents order.  class_records[i] maps each class key
    of blocks[i] to the genus record of the class's member a.
    """

    blocks: tuple[SingerBlock, ...]
    class_records: tuple[dict[tuple[int, ...], GenusRecord], ...]

    def genera(self) -> set[int]:
        return {r.genus for records in self.class_records for r in records.values()}

    def count(self) -> int:
        """Number of subgroups, summed over the class sizes."""
        return sum(c.count for b in self.blocks for c in b.classes.values())

    def walk(self, text_of: Callable[[GenusRecord], T]) -> Iterator[tuple[range, Iterator[T]]]:
        """Per (n1, n2), in enumerate_standard_exponents order: (values, texts),
        where values is the range of valid a and texts yields, for each a in
        order, text_of(record of a's class).

        text_of is called once per class, not once per subgroup; a renderer
        returns the fixed text of the class's rows, expand the record itself.
        """
        for block, records in zip(self.blocks, self.class_records):
            texts = {key: text_of(r) for key, r in records.items()}
            values = range(0, block.n2, block.step)
            # the class key of each a, one residue-table column per prime
            columns = [
                map(res.get, map(mod, values, repeat(pe)), repeat(0))
                for pe, res in zip(block.moduli, block.residues)
            ]
            keys = zip(*columns) if columns else repeat((), len(values))
            yield values, map(texts.__getitem__, keys)

    def expand(self) -> list[GenusRecord]:
        """One record per subgroup, in enumerate_standard_exponents order."""
        return [
            GenusRecord(SigmaCm(b.n1, b.n2, a), r.order, r.delta, r.genus)
            for b, (values, records) in zip(self.blocks, self.walk(lambda r: r))
            for a, r in zip(values, records)
        ]


def sigma_cm_record(params: CurveParams, se: StandardExponents) -> GenusRecord:
    """Genus record of the subgroup with standard exponents se, either family."""
    order = subgroup_order_sigma(params.m, se)
    return make_record(params, SigmaCm(*se), order, delta_sigma_cm(params, se))


def evaluate_singer_square(params: CurveParams) -> SingerSquare:
    """Class tables of every (n1, n2), in catalog.standard_exponent_blocks
    order; each class's record is evaluated once, on one member, by
    sigma_cm_record."""
    blocks = tuple(
        singer_block(params, n1, n2) for n1, n2, _ in standard_exponent_blocks(params.m)
    )
    class_records = tuple(
        {
            key: sigma_cm_record(params, StandardExponents(b.n1, b.n2, c.a))
            for key, c in b.classes.items()
        }
        for b in blocks
    )
    return SingerSquare(blocks, class_records)
