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

Subgroup closure enumeration represents a subgroup of C_m x C_m as an
m*m-bit integer (bit x*m+y set iff the element (x, y) belongs), so that
translating the whole set by a group element costs a handful of wide-int
shift/mask operations instead of one operation per member.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import countOf, mod

BACKEND_NAME = "pure"


def _residues(start: int, step: int, count: int, m: int):
    """(start + i*step) mod m for i in range(count), as a C-level stream."""
    if step == 0:
        return repeat(start % m, count)
    return map(mod, range(start, start + count * step, step), repeat(m))


def _pair_count(
    m: int, rows: int, n2: int, steps, skip_rows: tuple[int, ...] = ()
) -> int:
    """Number of pairs (i, j), 0 <= i < rows, 0 <= j < m/n2, i not in
    skip_rows, with j*n2 = i*r (mod m) for at least one r in steps.

    The shorter side is tabulated.  Fewer rows: each row adds its set of
    distinct images i*r mod m to a Counter, and the column residues are
    looked up in it.  Otherwise the rows' images are streamed, one stream
    per step, and zipped so that each row's images arrive together: a row
    counts each column residue among its images once, however many steps
    give it.  Several columns: the residues, all distinct, are tabulated as
    a set and intersected with each row's images.  One column: its residue
    is 0, and all() over a row's images tells whether one of them is 0
    without building a set per row.
    """
    cols = m // n2
    column_residues = range(0, cols * n2, n2)  # j*n2 < m: already reduced
    if rows < cols:
        table: Counter[int] = Counter()
        for i in range(rows):
            if i not in skip_rows:
                table.update({i * r % m for r in steps})
        return sum(map(table.get, column_residues, repeat(0)))
    images = [_residues(0, r, rows, m) for r in steps]
    if cols > 1:
        columns = set(column_residues)
        hits = sum(map(len, map(columns.intersection, zip(*images))))
        for i in skip_rows:
            hits -= len(columns.intersection({i * r % m for r in steps}))
        return hits
    if len(images) == 1:  # zipping one stream would double the cost per row
        hits = countOf(images[0], 0)
    else:
        hits = countOf(map(all, zip(*images)), False)
    return hits - sum(not all(i * r % m for r in steps) for i in skip_rows)


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
    sigma_exponents = range(0, rows * n1, n1)
    tau_rows = tuple(
        sigma_exponents.index(x) for x in range(0, rows * n1, m) if x in sigma_exponents
    )
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
