"""Pure-Python kernels for the brute-force oracle inner loops.

The two counting kernels enumerate the fundamental domain of a subgroup of
the Singer square as pairs (i, j) and count the pairs that satisfy a
congruence.  They do so as a table join rather than as an (i, j) double
loop: the shorter side of the domain is tabulated once (a set or Counter of
its residues mod m), and the longer side is streamed past that table through
C-level iterators (range progressions, ``map(operator.mod, ..., repeat(m))``,
set and dict lookups).  Every pair is still compared; no gcd, valuation,
CRT step or closed form enters, and memory stays bounded by the shorter
side.

A domain with one column (n2 = m, the dominant shape in the Ree oracle)
is the extreme of that rule: its only column residue is 0, so a row counts
iff one of its images i*r is 0 mod m.  The shorter side is then the
multiples of m below rows*r, tested against the progression i*r; with r
folded to min(r, m-r) that is at most rows/2 items per step.

Subgroup closure enumeration represents a subgroup of C_m x C_m as an
m*m-bit integer (bit x*m+y set iff the element (x, y) belongs), so that
translating the whole set by a group element costs a handful of wide-int
shift/mask operations instead of one operation per member.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, repeat
from operator import countOf, mod, not_

BACKEND_NAME = "pure"


def _residues(start: int, step: int, count: int, m: int):
    """(start + i*step) mod m for i in range(count), as a C-level stream."""
    if step == 0:
        return repeat(start % m, count)
    return map(mod, range(start, start + count * step, step), repeat(m))


def _vanishing_rows(m: int, rows: int, r: int):
    """The rows i < rows with i*r = 0 (mod m), for r > 0, as a stream.

    i*r runs over the progression range(0, rows*r, r); its members that are
    multiples of m are found among the multiples of m below rows*r, which
    are ceil(rows*r/m) instead of rows.
    """
    multiples = range(0, rows * r, m)
    hits = compress(multiples, map(not_, map(mod, multiples, repeat(r))))
    return map(range(0, rows * r, r).index, hits)


def _pair_count(
    m: int, rows: int, n2: int, steps, skip_rows: tuple[int, ...] = ()
) -> int:
    """Number of pairs (i, j), 0 <= i < rows, 0 <= j < m/n2, i not in
    skip_rows, with j*n2 = i*r (mod m) for at least one r in steps.

    One column (n2 = m, the dominant shape): its residue is 0, so row i
    counts iff i*r = 0 (mod m) for some r.  i*r and i*(m-r) vanish
    together, so r is folded to r' = min(r, m-r) and the multiples of m
    below rows*r' are tested against the progression i*r': at most rows/2
    items per step.  A zero step hits every row.  Several steps put their
    hit rows into one set, so a row that several steps hit counts once.

    Otherwise the shorter side is tabulated.  Fewer rows: each row adds its
    set of distinct images i*r mod m to a Counter, and the column residues
    are looked up in it.  More rows: the rows' images are streamed, one
    stream per step, and zipped so that each row's images arrive together;
    the column residues, all distinct, are tabulated as a set and
    intersected with each row's images, so a row counts each column residue
    once, however many steps give it.
    """
    cols = m // n2
    if cols == 1:
        folded = {min(r, m - r) for r in steps}
        if 0 in folded:
            return rows - len(skip_rows)
        if len(folded) == 1 and not skip_rows:
            (r,) = folded
            return countOf(map(mod, range(0, rows * r, m), repeat(r)), 0)
        hit_rows: set[int] = set()
        for r in folded:
            hit_rows.update(_vanishing_rows(m, rows, r))
        return len(hit_rows.difference(skip_rows))
    column_residues = range(0, cols * n2, n2)  # j*n2 < m: already reduced
    if rows < cols:
        table: Counter[int] = Counter()
        for i in range(rows):
            if i not in skip_rows:
                table.update({i * r % m for r in steps})
        return sum(map(table.get, column_residues, repeat(0)))
    columns = set(column_residues)
    images = [_residues(0, r, rows, m) for r in steps]
    hits = sum(map(len, map(columns.intersection, zip(*images))))
    for i in skip_rows:
        hits -= len(columns.intersection({i * r % m for r in steps}))
    return hits


def sigma_cm_iota_counts(
    m: int, n1: int, n2: int, a: int, q_powers: tuple[int, ...]
) -> tuple[int, int]:
    """Classify every non-identity element of the subgroup with standard
    exponents (n1, n2, a): return (pure tau-power count, count of elements
    sigma^A tau^B with B = A*q^d mod m for some d).

    The elements are (sigma^n1 tau^a)^i (tau^n2)^j over the fundamental
    domain 0 <= i < m/n1, 0 <= j < m/n2, that is A = i*n1 and
    B = i*a + j*n2 (mod m).  B = A*q^d reads j*n2 = i*(n1*q^d - a), a pair
    count over the rows with A != 0.  The rows with A = 0 are found as the
    positions of the multiples of m in the progression i*n1; each holds a
    pure tau power for every j except those with B = 0.
    """
    rows, cols = m // n1, m // n2
    tau_rows = tuple(_vanishing_rows(m, rows, n1))
    column_residues = range(0, cols * n2, n2)
    tau_count = sum(cols - countOf(column_residues, -i * a % m) for i in tau_rows)
    steps = {(n1 * qd - a) % m for qd in q_powers}
    return tau_count, _pair_count(m, rows, n2, steps, tau_rows)


def congruence_count(m: int, n1: int, n2: int, rhs: int) -> int:
    """Count of pairs (i, j), 0 <= i < m/n1, 0 <= j < m/n2, with
    j*n2 = i*rhs (mod m).  Includes (0, 0)."""
    return _pair_count(m, m // n1, n2, (rhs % m,))


def _translate(mask: int, tx: int, ty: int, m: int, full: int, row_low) -> int:
    """Shift every set bit (x, y) of mask to (x+tx mod m, y+ty mod m)."""
    if ty:
        low = mask & row_low(ty)
        mask = ((low << ty) | ((mask ^ low) >> (m - ty))) & full
    if tx:
        shift = tx * m
        mask = ((mask << shift) | (mask >> (m - tx) * m)) & full
    return mask


def cm_subgroups(m: int) -> set[tuple[int, ...]]:
    """All subgroups of C_m x C_m by closure, as sorted tuples of x*m+y codes.

    Every subgroup of a rank-2 abelian group is generated by two elements,
    so the full set is obtained as pairwise joins of the cyclic subgroups;
    the join of subgroups of an abelian group is their sumset.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    full = (1 << (m * m)) - 1
    # column pattern: one bit at the start of each row
    pattern = sum(1 << (x * m) for x in range(m))
    low_cache: dict[int, int] = {}

    def row_low(ty: int) -> int:
        got = low_cache.get(ty)
        if got is None:
            got = low_cache[ty] = ((1 << (m - ty)) - 1) * pattern
        return got

    # cyclic subgroups, deduplicated: mask plus one generator and its order
    cyclic: dict[int, tuple[int, int, int]] = {}
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
            # join = C1 + <g2>, built by doubling the translation range
            joined = mask1
            t = 1
            while t < order:
                joined |= _translate(joined, (t * gx) % m, (t * gy) % m, m, full, row_low)
                t *= 2
            subgroups.add(joined)

    out = set()
    for mask in subgroups:
        indices = []
        while mask:
            low_bit = mask & -mask
            indices.append(low_bit.bit_length() - 1)
            mask ^= low_bit
        out.add(tuple(indices))
    return out
