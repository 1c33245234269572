"""Pure-Python kernels for the brute-force oracle inner loops.

The two counting kernels enumerate the fundamental domain of a subgroup of
the Singer square as pairs (i, j), 0 <= i < rows, 0 <= j < cols, and count
the pairs with j*n2 = i*r (mod m) for some step r.  No gcd, valuation, CRT
step or closed form enters.

One step, any shape: n2 divides m, so the column residues j*n2 are exactly
the multiples of n2 below m, and row i has a column j with j*n2 = i*r
(mod m) exactly when n2 | i*r, and then exactly one.  The count is the
number of rows hit by r mod n2 in modulus n2: a row scan.  r is folded to
min(r, n2-r) first (i*r and i*(n2-r) vanish together), and the scan tests
the multiples of n2 below rows*r against the progression i*r, at most
rows/2 items; a zero step hits every row without a scan.  The multiples
are reduced a chunk at a time and each chunk is searched for zeros, so a
scan holds at most _CHUNK residues and never a set of all rows.

Several steps on one column (n2 = m, the dominant shape in the Ree oracle)
put their hit rows into one set, so a row that several steps hit counts
once.  Several steps on several columns are a table join: the shorter side
of the domain is tabulated once (a Counter of row images, or a set of the
column residues) and the longer side streamed past it through C-level
iterators, so memory stays bounded by the shorter side.

A caller that counts the same rows several times (the oracle suite checks
each sampled subgroup twice, with the same steps) may pass one scans dict
to every call: each row scan is then run once and its hit rows kept in the
dict, keyed by (modulus, rows, folded step).  Its lifetime is the caller's;
nothing here caches across calls on its own.

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

_CHUNK = 1024  # multiples reduced per list in a row scan


def _residues(start: int, step: int, count: int, m: int):
    """(start + i*step) mod m for i in range(count), as a C-level stream."""
    if step == 0:
        return repeat(start % m, count)
    return map(mod, range(start, start + count * step, step), repeat(m))


def _vanishing_rows(
    modulus: int, rows: int, r: int, scans: dict | None = None
) -> tuple[int, ...]:
    """The rows i < rows with i*r = 0 (mod modulus), for r > 0, ascending.

    i*r runs over the progression range(0, rows*r, r); its members that are
    multiples of modulus are found among the multiples of modulus below
    rows*r, which are ceil(rows*r/modulus) instead of rows.  They are
    reduced mod r _CHUNK at a time, and list.index finds the zeros of each
    chunk.  With scans given, a scan of the same (modulus, rows, r) is
    looked up there instead of run again, and a new scan is stored.
    """
    key = (modulus, rows, r)
    if scans is not None and key in scans:
        return scans[key]
    found = []
    end = rows * r
    span = _CHUNK * modulus
    for start in range(0, end, span):
        chunk = list(map(mod, range(start, min(start + span, end), modulus), repeat(r)))
        k = -1
        try:
            while True:
                k = chunk.index(0, k + 1)
                found.append((start + k * modulus) // r)
        except ValueError:
            pass
    hit = tuple(found)
    if scans is not None:
        scans[key] = hit
    return hit


def _pair_count(
    m: int,
    rows: int,
    n2: int,
    steps,
    skip_rows: tuple[int, ...] = (),
    scans: dict | None = None,
) -> int:
    """Number of pairs (i, j), 0 <= i < rows, 0 <= j < m/n2, i not in
    skip_rows, with j*n2 = i*r (mod m) for at least one r in steps.

    One step or one column: a row has at most one such pair per step, and
    on one column at most one in all, so the count is the number of rows,
    outside skip_rows, that a row scan of some step mod n2 hits (see the
    module docstring).  A zero step hits every row.

    Several steps on several columns: the shorter side is tabulated.  Fewer
    rows: each row adds its set of distinct images i*r mod m to a Counter,
    and the column residues are looked up in it.  More rows: the rows'
    images are streamed, one stream per step, and zipped so that each row's
    images arrive together; the column residues, all distinct, are
    tabulated as a set and intersected with each row's images, so a row
    counts each column residue once, however many steps give it.
    """
    cols = m // n2
    if cols == 1 or len(steps) == 1:
        folded = {min(r % n2, n2 - r % n2) for r in steps}
        if 0 in folded:
            return rows - len(skip_rows)
        hit_rows: set[int] = set()
        for r in folded:
            hit_rows.update(_vanishing_rows(n2, rows, r, scans))
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
    m: int,
    n1: int,
    n2: int,
    a: int,
    q_powers: tuple[int, ...],
    scans: dict | None = None,
) -> tuple[int, int]:
    """Classify every non-identity element of the subgroup with standard
    exponents (n1, n2, a): return (pure tau-power count, count of elements
    sigma^A tau^B with B = A*q^d mod m for some d).

    The elements are (sigma^n1 tau^a)^i (tau^n2)^j over the fundamental
    domain 0 <= i < m/n1, 0 <= j < m/n2, that is A = i*n1 and
    B = i*a + j*n2 (mod m).  B = A*q^d reads j*n2 = i*(n1*q^d - a), a pair
    count over the rows with A != 0.  The rows with A = 0 are found as the
    positions of the multiples of m in the progression i*n1; each holds a
    pure tau power for every j except those with B = 0.  scans is passed
    to the row scans (see the module docstring).
    """
    rows, cols = m // n1, m // n2
    tau_rows = _vanishing_rows(m, rows, n1)
    column_residues = range(0, cols * n2, n2)
    tau_count = sum(cols - countOf(column_residues, -i * a % m) for i in tau_rows)
    steps = {(n1 * qd - a) % m for qd in q_powers}
    return tau_count, _pair_count(m, rows, n2, steps, tau_rows, scans)


def congruence_count(
    m: int, n1: int, n2: int, rhs: int, scans: dict | None = None
) -> int:
    """Count of pairs (i, j), 0 <= i < m/n1, 0 <= j < m/n2, with
    j*n2 = i*rhs (mod m).  Includes (0, 0).  One row scan (see the module
    docstring), shared through scans when given."""
    return _pair_count(m, m // n1, n2, (rhs,), (), scans)


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
