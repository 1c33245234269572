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
congruence check (suite.run_oracle_suite) still forms the product prime by
prime, so it checks the count against a formulation this module no longer
shares.

delta_sigma_cm evaluates this for one subgroup.  For a whole curve,
evaluate_singer_square evaluates it once per nu-profile class instead, on
one member of the class: for fixed (n1, n2) the exponents nu_{d,l} depend on
a only through a mod p_l^v_{p_l}(n2), so the valid a (the multiples of
step = n1*n2/gcd(n1*n2, m) below n2) fall into a few classes that share one
profile, one delta and one genus.  The classes are counted prime by prime:
only the residues a = n1*q^d (mod p) can have a nonzero exponent, so at most
one residue in p of each power is enumerated and every other residue is
counted into the all-zero profile; the p-part p^nu_d of a residue r is
gcd(n1*q^d - r, p^v_p(n2)).  The primes are then combined by the Chinese
remainder theorem into a multiset {profile: count}, with one member of each
class.

A prime's table depends on the block only through (n1 mod p^v, p^v,
p^v_p(step)) with v = v_p(n2), so square_blocks builds each table once per
curve and shares it between the blocks with that key; the tables live only
for one call.  All classes of a block have the order m^2/(n1*n2), so their
genus is a function of delta: make_record runs once per distinct delta of a
block, and every class still gets a record naming its own member.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import chain, repeat
from math import gcd
from typing import NamedTuple, TypeVar

from .arith import valuation
from .catalog import (
    GenusRecord,
    SigmaCm,
    check_descriptor,
    make_record,
    standard_exponent_blocks,
    standard_exponent_step,
    subgroup_order_sigma,
)
from .curves import CurveParams

T = TypeVar("T")


def delta_sigma_cm(params: CurveParams, se: SigmaCm) -> int:
    """Different degree of the subgroup with standard exponents (n1, n2, a).

    The congruence count of the d-th special power is
    m * gcd(n1*q^d - a, n2) / (n1*n2): the gcd is the product of the
    p^nu_{d,l} of the closed form (see the module docstring).  se is taken
    as valid, naming a subgroup of the curve: sigma_cm_record checks it first
    (subgroup_order_sigma), and the class tables and the oracle suite's
    sample build valid triples only.
    """
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
    index 0.  A class is keyed by the tuple of those indices.  The blocks of
    one square_blocks call share a residue map wherever they share a prime
    table, so the maps are read, never written.
    """

    n1: int
    n2: int
    step: int
    moduli: tuple[int, ...]
    residues: tuple[dict[int, int], ...]
    classes: dict[tuple[int, ...], ProfileClass]


def _prime_classes(params: CurveParams, n1: int, p: int, pe: int, base: int):
    """The p-parts p^nu_d of the profiles over the residues a mod pe that are
    multiples of base = p^v_p(step), for n1 given mod pe.

    Returns (residue -> profile index, count per profile, one residue per
    profile); index 0 is the all-zero profile.  The result depends on n1 only
    through n1 mod pe, so one table serves every block with the same
    (n1 mod pe, pe, base).
    """
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


# (n1 mod pe, pe, base) -> _prime_classes(params, n1 mod pe, p, pe, base)
PrimeTables = dict[tuple[int, int, int], tuple[dict[int, int], list[int], list]]


def _p_parts(primes: list[int], numbers) -> dict[int, tuple[int, ...]]:
    """n -> (p^v_p(n) for each p of primes), for each n of numbers."""
    return {n: tuple(p ** valuation(p, n) for p in primes) for n in numbers}


def _block(
    params: CurveParams,
    primes: list[int],
    parts: dict[int, tuple[int, ...]],
    tables: PrimeTables,
    n1: int,
    n2: int,
    step: int,
) -> SingerBlock:
    """singer_block for a valid (n1, n2) with its step, given the primes of
    m, the p-parts of n2 and step (see _p_parts) and the prime tables built
    so far for this curve; a missing table is built and added."""
    combined = {(): (0, 1)}  # class key -> (CRT sum of a member, count)
    moduli = []
    residues = []
    for p, pe, base in zip(primes, parts[n2], parts[step]):
        if pe == 1:
            continue
        residue = n1 % pe
        table = tables.get((residue, pe, base))
        if table is None:
            table = tables[residue, pe, base] = _prime_classes(params, residue, p, pe, base)
        residue_ids, counts, members = table
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


def singer_block(params: CurveParams, n1: int, n2: int) -> SingerBlock:
    """Every nu-profile class of the subgroups (n1, n2, a), with its size.
    The block exists exactly when its first triple (n1, n2, 0) is valid."""
    check_descriptor(params, SigmaCm(n1, n2, 0))
    primes = [p for p, _e in params.m_factors]
    step = standard_exponent_step(params.m, n1, n2)
    return _block(params, primes, _p_parts(primes, (n2, step)), {}, n1, n2, step)


def square_blocks(params: CurveParams) -> tuple[SingerBlock, ...]:
    """singer_block of every (n1, n2), in catalog.standard_exponent_blocks
    order, with m factored once and each prime table built once for the
    curve (blocks with one key share the table's residue map)."""
    spec = standard_exponent_blocks(params.m)
    primes = [p for p, _e in params.m_factors]
    # every step divides m, so it is one of the n2
    parts = _p_parts(primes, {n2 for _n1, n2, _step in spec})
    tables: PrimeTables = {}
    return tuple(_block(params, primes, parts, tables, *b) for b in spec)


class ClassRuns:
    """The texts of a block's rows as runs of one class: runs holds
    (values, text) pairs in order, the text of every a of values being text.
    Iterating gives one text per a, like the texts of any other block."""

    __slots__ = ("runs",)

    def __init__(self, runs: list[tuple[range, T]]) -> None:
        self.runs = runs

    def __iter__(self) -> Iterator[T]:
        return chain.from_iterable(repeat(text, len(values)) for values, text in self.runs)


def _class_runs(
    values: range, residue_ids: dict[int, int], texts: dict[tuple[int, ...], T]
) -> list[tuple[range, T]]:
    """A one-column block's rows as (values[start:stop], text of the class)
    runs of one class each, in order.  The block's modulus is n2, so each a
    of residue_ids is values[a // step], in class (index,); every other a is
    in the all-zero class (0,)."""
    starts = [(0, (0,))]  # (position, key) where each run starts
    for r, i in sorted(residue_ids.items()):
        j = r // values.step
        for at, key in ((j, (i,)), (j + 1, (0,))):
            if starts and starts[-1][0] == at:
                starts.pop()  # the run that started here is empty
            if not (starts and starts[-1][1] == key):  # else the last run goes on
                starts.append((at, key))
    if starts[-1][0] == len(values):
        starts.pop()
    stops = [at for at, _key in starts[1:]] + [len(values)]
    return [(values[at:stop], texts[key]) for (at, key), stop in zip(starts, stops)]


def _column(rows: int, step: int, pe: int, residue_ids: dict[int, int]) -> list[int]:
    """residue_ids.get(j*step % pe, 0) for each row j, one strided slice per
    listed residue r: with g = gcd(step, pe), its rows are j = (r/g) *
    (step/g)^-1 (mod pe/g), and pe/g divides rows (the p-part of n2/step)."""
    g = gcd(step, pe)
    period = pe // g
    inverse = pow(step // g, -1, period)
    column = [0] * rows
    for r, i in residue_ids.items():
        assert r % g == 0, f"residue {r} mod {pe} is not a multiple of gcd(step, pe) = {g}"
        j0 = r // g * inverse % period
        column[j0::period] = repeat(i, rows // period)
    return column


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

    def walk(self, text_of: Callable[[GenusRecord], T]) -> Iterator[tuple[range, Iterable[T]]]:
        """Per (n1, n2), in enumerate_standard_exponents order: (values, texts),
        where values is the range of valid a and texts yields, for each a in
        order, text_of(record of a's class).

        text_of is called once per class, not once per subgroup; a renderer
        returns the fixed text of the class's rows, expand the record itself.

        The form of texts is decided here, per block.  A block with a single
        residue column and fewer runs of one class than rows (each listed
        residue opens at most one run of its class and one of the all-zero
        class, so 2*len(residues)+1 < rows) gives a ClassRuns, found by
        walking its sorted residue map; a renderer joins each run's rows at
        once.  Every other block maps each a to its class key, one
        residue-table column per prime, written by _column.
        """
        for block, records in zip(self.blocks, self.class_records):
            texts = {key: text_of(r) for key, r in records.items()}
            values = range(0, block.n2, block.step)
            if len(block.residues) == 1 and 2 * len(block.residues[0]) + 1 < len(values):
                yield values, ClassRuns(_class_runs(values, block.residues[0], texts))
                continue
            columns = [
                _column(len(values), block.step, pe, res)
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


def sigma_cm_record(params: CurveParams, se: SigmaCm) -> GenusRecord:
    """Genus record of the subgroup with standard exponents se, either family."""
    order = subgroup_order_sigma(params.m, se)
    return make_record(params, se, order, delta_sigma_cm(params, se))


def _class_records(
    params: CurveParams, block: SingerBlock
) -> dict[tuple[int, ...], GenusRecord]:
    """The record of each class of one block, on the class's own member.

    Every class of a block has the order m^2/(n1*n2), so the genus is a
    function of delta alone: make_record runs once per distinct delta, and
    the block's other classes of that delta copy its genus.
    """
    n1, n2 = block.n1, block.n2
    order = params.m**2 // (n1 * n2)
    genera: dict[int, int] = {}  # delta -> genus, within this block only
    records = {}
    for key, c in block.classes.items():
        descriptor = SigmaCm(n1, n2, c.a)
        delta = delta_sigma_cm(params, descriptor)
        genus = genera.get(delta)
        if genus is None:
            record = make_record(params, descriptor, order, delta)
            genera[delta] = record.genus
        else:
            record = GenusRecord(descriptor, order, delta, genus)
        records[key] = record
    return records


def evaluate_singer_square(params: CurveParams) -> SingerSquare:
    """The class tables of square_blocks and the record of each class, on
    one member: delta_sigma_cm once per class and make_record once per
    distinct delta of a block (see _class_records)."""
    blocks = square_blocks(params)
    return SingerSquare(blocks, tuple(_class_records(params, b) for b in blocks))
