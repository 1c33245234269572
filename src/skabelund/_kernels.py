"""The brute-force oracle's inner loops, in pure Python.

Callers look the kernels up on this module at call time.

The two counting kernels enumerate the fundamental domain of a subgroup of
the Singer square as pairs (i, j), 0 <= i < rows, 0 <= j < cols, and count
the pairs with j*n2 = i*r (mod m) for some step r.  No gcd, valuation, CRT
step or closed form enters.

Every count is made of row scans.  n2 divides m, so the column residues
j*n2 are exactly the multiples of n2 below m, and row i has a column j
with j*n2 = i*r (mod m) exactly when n2 | i*r, and then exactly one: the
pair (i, i*r mod m).  The rows a step hits are the rows hit by r mod n2
in modulus n2: a row scan.  r is folded to min(r, n2-r) first (i*r and
i*(n2-r) vanish together); a zero step hits every row.

A row scan finds its least positive hit and nothing else.  The rows i with
modulus | i*r are closed under subtraction, so they are the multiples of
the least positive one, i0; modulus is itself such a row, so i0 divides
modulus.  The scan lists the divisors of modulus by trial division up to
its square root, in ascending order, and i0 is the first divisor d with
d*r = 0 (mod modulus); the hit rows are range(0, rows, i0), which is row 0
alone when i0 >= rows.  The divisors come from this trial division, not
from the arith module that factors m, so the oracle does not lean on the
code it checks.

One step, or one column (n2 = m, the dominant shape in the Ree oracle),
gives each row at most one pair, so the count is the number of rows some
step hits: for one folded step the length of its hit range, with no set
built.  Several steps on several columns may give one row several pairs,
so the pairs (i, i*r mod m) of every step's hit rows, with the unfolded
r, are collected and counted once each; memory is bounded by the distinct
pairs found, at most |H|, which the oracle's element cap limits.

A caller that counts the same rows several times (the oracle suite checks
each sampled subgroup twice, with the same steps: once in
sigma_cm_iota_counts, once in one congruence_count per special power) may
pass one scans dict to every call: each row scan is then run once and its
hit rows kept in the dict, keyed by (modulus, rows, folded step), and
each modulus's divisor list is built once and kept under the key
(modulus,).  Its lifetime is the caller's; nothing here caches across
calls on its own.

Subgroup closure enumeration represents a subgroup of C_m x C_m as an
m*m-bit integer (bit x*m+y set iff the element (x, y) belongs), so that
translating the whole set by a group element costs a handful of wide-int
shift/mask operations instead of one operation per member.  The subgroups
are returned in that form: the oracle suite compares them with
catalog.standard_exponent_elements, which builds the same masks, so no
set bit is ever extracted.  Orders are counted, not derived: a coordinate
x has order the least k >= 1 with k*x = 0 (mod m), and a pair (x, y) the
least multiple of x's order that also sends y to 0.  Each cyclic subgroup
is walked once: walking <g> of order n marks every member of order n,
since each of them generates <g>, and a marked element is never walked as
a generator.  The joins C1 + C2 of two cyclic subgroups then need no
closure when the answer is known: the join has |C1|*|C2| / |C1 & C2|
elements, the found subgroups are kept by size, and a found subgroup of
that size holding both C1 and C2 is the join itself.  A join that is built
by doubling asserts that size.
"""

from __future__ import annotations

import sys
from math import isqrt
from operator import countOf


def available_backends() -> dict[str, object]:
    """{"pure": this module}.  Kept only because pipebench reads it; this
    module holds the only kernel set."""
    return {"pure": sys.modules[__name__]}


def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of n >= 1, ascending, by trial division up to isqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return tuple(small + [n // d for d in reversed(small) if d * d != n])


def _vanishing_rows(modulus: int, rows: int, r: int, scans: dict | None = None) -> range:
    """The rows i < rows with i*r = 0 (mod modulus), ascending.

    They are the multiples below rows of the least positive such i, the
    first divisor d of modulus with d*r = 0 (mod modulus); see the module
    docstring.  With scans given, a scan of the same (modulus, rows, r) is
    looked up there instead of run again, the divisors of modulus are built
    once under the key (modulus,), and a new scan is stored.
    """
    key = (modulus, rows, r)
    if scans is None:
        scans = {}
    elif key in scans:
        return scans[key]
    divisors = scans.get((modulus,))
    if divisors is None:
        divisors = scans[(modulus,)] = _divisors(modulus)
    least = next(d for d in divisors if d * r % modulus == 0)
    hit = scans[key] = range(0, rows, least)
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

    Each step's row scan mod n2 gives its hit rows (see the module
    docstring); a zero step hits every row.  One step or one column: a row
    has at most one such pair, so the count is the number of hit rows
    outside skip_rows: for one folded step the length of its hit range
    less the skip rows in it, for several the size of the union of their
    hit rows.  Several steps on several columns: the pair of row i under
    step r is (i, i*r mod m), and the distinct pairs over every step's hit
    rows outside skip_rows are counted, at most |H| of them.
    """
    if m // n2 == 1 or len(steps) == 1:
        folded = {min(r % n2, n2 - r % n2) for r in steps}
        if 0 in folded:
            return rows - len(skip_rows)
        if len(folded) == 1:
            hit = _vanishing_rows(n2, rows, folded.pop(), scans)
            return len(hit) - sum(i in hit for i in skip_rows)
        hit_rows: set[int] = set()
        for r in folded:
            hit_rows.update(_vanishing_rows(n2, rows, r, scans))
        return len(hit_rows.difference(skip_rows))
    skip = set(skip_rows)
    pairs: set[tuple[int, int]] = set()
    for r in steps:
        folded = min(r % n2, n2 - r % n2)
        hit = _vanishing_rows(n2, rows, folded, scans)
        pairs.update((i, i * r % m) for i in hit if i not in skip)
    return len(pairs)


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
    to the row scans (see the module docstring); without it the scans of
    this call still share one divisor list per modulus.
    """
    if scans is None:
        scans = {}
    rows, cols = m // n1, m // n2
    tau_rows = _vanishing_rows(m, rows, n1, scans)
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


def cm_subgroups(m: int) -> set[int]:
    """All subgroups of C_m x C_m by closure, as m*m-bit masks: bit x*m+y is
    set for each element (x, y) of a subgroup.

    Every subgroup of a rank-2 abelian group is generated by two elements,
    so the full set is obtained as pairwise joins of the cyclic subgroups;
    the join of subgroups of an abelian group is their sumset.  Each cyclic
    subgroup is walked from one generator, its other generators (the
    members of the same counted order) marked on the way, and a join is
    built by doubling only when no found subgroup of its size
    |C1|*|C2| / |C1 & C2| holds both sides; a built join asserts that size
    (see the module docstring).  m >= 1: the one caller,
    oracle.enumerate_subgroups_bruteforce, rejects the rest.
    """
    full = (1 << (m * m)) - 1
    # column pattern: one bit at the start of each row
    pattern = sum(1 << (x * m) for x in range(m))
    low_cache: dict[int, int] = {}

    def row_low(ty: int) -> int:
        got = low_cache.get(ty)
        if got is None:
            got = low_cache[ty] = ((1 << (m - ty)) - 1) * pattern
        return got

    # the order of each coordinate: least k >= 1 with k*x = 0 (mod m)
    coord_order = []
    for x in range(m):
        k = 1
        while k * x % m:
            k += 1
        coord_order.append(k)

    def order(x: int, y: int) -> int:
        n = step = coord_order[x]
        while n * y % m:
            n += step
        return n

    # cyclic subgroups, each walked once: mask plus one generator and its order
    marked = bytearray(m * m)
    cyclic: list[tuple[int, int, int, int]] = []
    for gx in range(m):
        for gy in range(m):
            if marked[gx * m + gy]:
                continue  # generates a subgroup already walked
            n = order(gx, gy)
            mask = 1
            x, y = gx, gy
            while x or y:
                code = x * m + y
                mask |= 1 << code
                if order(x, y) == n:
                    marked[code] = 1
                x, y = (x + gx) % m, (y + gy) % m
            cyclic.append((mask, gx, gy, n))

    # found subgroups by size, the cyclic ones first
    by_size: dict[int, list[int]] = {}
    for mask, _, _, n in cyclic:
        by_size.setdefault(n, []).append(mask)
    for idx, (mask1, _, _, n1) in enumerate(cyclic):
        for mask2, gx, gy, n2 in cyclic[idx + 1 :]:
            size = n1 * n2 // (mask1 & mask2).bit_count()
            both = mask1 | mask2
            known = by_size.setdefault(size, [])
            if any(found & both == both for found in known):
                continue  # a found subgroup of the join's size holds both: the join
            # join = C1 + <g2>, built by doubling the translation range
            joined = mask1
            t = 1
            while t < n2:
                joined |= _translate(joined, (t * gx) % m, (t * gy) % m, m, full, row_low)
                t *= 2
            assert joined.bit_count() == size, (m, size)
            known.append(joined)

    return {mask for masks in by_size.values() for mask in masks}
