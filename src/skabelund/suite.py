"""The oracle suite: every closed form checked against the brute-force oracle.

run_oracle_suite(family, s) makes one OracleCheck per equivalence: the
Singer-square delta and congruence counts over an even sample of about
SAMPLE_LIMIT subgroups, the standard-exponent subgroups against closure
(m within SKABELUND_MAX_CLOSURE_M), and, per family, the B0 products
(Suzuki) or the order censuses, the PSL(2,8)/N2 products and, when 7 | m,
the skew subgroups (Ree).  A check fails naming each case whose two sides
differ, and a check whose cases the element cap left empty fails too.

The oracle itself (oracle.py) takes no valuation and no closed form; this
module compares it with both.  The congruence check's side of the
comparison is a product of p-parts p^min(v_p(x), v_p(n2)) over the primes
of m, each found by this module's own division loop (_p_part), not by
arith.valuation.

Work that depends on less than one case is done once: a sampled subgroup's
congruence counts come from one count_congruence_solutions call, one count
per special power; the closure check compares m*m-bit element masks (bit
A*m+B set for (A, B)) from enumerate_subgroups_bruteforce and
standard_exponent_elements; and the skew check builds the curve's six
Singer image masks once (skew_image_masks) and passes them to every
delta_skew_census.

The spectrum pipeline, the CLI's spectrum, genus and verify-tables commands
and `import skabelund` do not load this module or the oracle:
spectrum.run_oracle_suite imports it on its first call.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .arith import divisors
from .catalog import (
    N2_SUBGROUP_ORDERS,
    B0Cyclic,
    B0Dihedral,
    N2NonSkew,
    N2SkewCyclic,
    N2SkewFull,
    Psl28,
    SigmaCm,
    enumerate_standard_exponents,
    standard_exponent_blocks,
    standard_exponent_elements,
)
from .curves import CurveParams, Family, make_params, seven_divides_m
from .genus_ree import (
    genus_n2_nonskew,
    genus_n2_skew_cyclic,
    genus_n2_skew_full,
    genus_psl28,
    genus_sigma_cm_ree,
)
from .genus_suzuki import genus_b0_cyclic, genus_b0_dihedral
from .iota import census
from .oracle import (
    count_congruence_solutions,
    delta_b0_census,
    delta_census,
    delta_sigma_cm_bruteforce,
    delta_skew_census,
    enumerate_subgroups_bruteforce,
    realize_census,
    skew_image_masks,
)
from .settings import max_closure_m, max_elements_cap
from .singer import delta_sigma_cm


class OracleCheck(NamedTuple):
    name: str
    ok: bool
    detail: str


SAMPLE_LIMIT = 60  # about this many Singer-square subgroups per oracle suite


def sample_standard_exponents(m: int, cap: int, limit: int) -> list[SigmaCm]:
    """An even sample of the standard-exponent triples of order <= cap, in
    enumerate_standard_exponents order: all of them when there are at most
    limit, else every (total // limit)-th, always keeping the first and the
    last.  limit must be at least 1.

    Each (n1, n2) block is a run of n2/step triples of one order, so the
    picked indices are located block by block and only the picked triples
    are built, without listing the rest.
    """
    if limit < 1:
        raise ValueError(f"sample limit must be at least 1, got {limit}")
    blocks = [
        (n1, n2, step)
        for n1, n2, step in standard_exponent_blocks(m)
        if m * m // (n1 * n2) <= cap
    ]
    total = sum(n2 // step for _, n2, step in blocks)
    stride = max(1, total // limit) if total > limit else 1
    picked = []
    start = 0  # index of the block's first triple
    for n1, n2, step in blocks:
        size = n2 // step
        first = -start % stride  # offset of the block's first picked triple
        picked.extend(SigmaCm(n1, n2, j * step) for j in range(first, size, stride))
        start += size
    if (total - 1) % stride:
        n1, n2, step = blocks[-1]
        picked.append(SigmaCm(n1, n2, n2 - step))
    return picked


def _verdict(
    name: str, bad: list[str], summary: str, cases: Sequence = (), cap: int | None = None
) -> OracleCheck:
    """FAIL naming every bad case, else PASS with the summary.  A check whose
    cases are capped (cap given) fails too when the cap left it no case."""
    if bad:
        return OracleCheck(name, False, "; ".join(bad))
    if cap is not None and not cases:
        return OracleCheck(name, False, f"{summary} (none within the element cap {cap})")
    return OracleCheck(name, True, summary)


def _p_part(x: int, p: int, pe: int) -> int:
    """p^min(v_p(x), e) for pe = p^e, p prime: x divided by p while p
    divides it, at most e times.  That is gcd(x, pe), and x = 0 gives pe
    with no infinite valuation."""
    part = 1
    while part < pe and x % p == 0:
        x //= p
        part *= p
    return part


def _tally(what: str, cases: list) -> str:
    return f"{what}: {len(cases)}" + (f", first {cases[0]}" if cases else "")


def run_oracle_suite(
    family: Family, s: int, max_elements: int | None = None
) -> list[OracleCheck]:
    """Every oracle-vs-formula equivalence for one curve, within caps.

    About SAMPLE_LIMIT Singer-square subgroups are checked.
    """
    params = make_params(family, s)
    cap = max_elements_cap(max_elements)
    checks: list[OracleCheck] = []

    sampled = sample_standard_exponents(params.m, cap, SAMPLE_LIMIT)
    # row scans of this curve, shared by the delta and congruence checks
    scans: dict = {}

    bad = []
    for se in sampled:
        formula = delta_sigma_cm(params, se)
        brute = delta_sigma_cm_bruteforce(params, se, max_elements=cap, scans=scans)
        if formula != brute:
            bad.append(f"{se}: formula {formula} != brute force {brute}")
    checks.append(
        _verdict(
            "singer-square delta: closed form vs element enumeration",
            bad,
            f"{len(sampled)} subgroups checked",
            sampled,
            cap,
        )
    )

    bad = []
    m_parts = [(p, p**e) for p, e in params.m_factors]
    for se in sampled:
        counts = count_congruence_solutions(params, se, max_elements=cap, scans=scans)
        # (p, p^v_p(n2)) per prime of m, the same for every power; n2 | m
        n2_parts = [(p, _p_part(se.n2, p, pe)) for p, pe in m_parts]
        for d, (qd, count) in enumerate(zip(params.q_powers, counts)):
            # the product prime by prime, not the gcd delta_sigma_cm takes,
            # so the count is checked against a formulation of its own
            x = se.n1 * qd - se.a
            prod = 1
            for p, pe in n2_parts:
                prod *= _p_part(x, p, pe)
            if count * se.n1 * se.n2 != params.m * prod:
                bad.append(f"{se} d={d}: {count} vs {params.m * prod}")
    checks.append(
        _verdict(
            "congruence solution count: literal loop vs CRT product",
            bad,
            f"{len(sampled)} subgroups x {len(params.q_powers)} powers",
            sampled,
            cap,
        )
    )

    if params.m <= max_closure_m():
        subgroups = enumerate_subgroups_bruteforce(params.m)
        generated: set = set()
        extra, repeats = [], []
        for se in enumerate_standard_exponents(params.m):
            elements = standard_exponent_elements(params.m, se)
            if elements in generated:
                repeats.append(se)
            elif elements not in subgroups:
                extra.append(se)
            generated.add(elements)
        # missing subgroups are named by order, the smallest first
        missing = [f"of order {n}" for n in sorted(map(int.bit_count, subgroups - generated))]
        tallies = [
            _tally("closure subgroups no triple generates", missing),
            _tally("generated sets not closure subgroups", extra),
            _tally("triples repeating an earlier subgroup", repeats),
        ]
        checks.append(
            _verdict(
                "subgroup enumeration: standard exponents vs closure",
                tallies if missing or extra or repeats else [],
                f"{len(subgroups)} subgroups of C_{params.m} x C_{params.m}",
            )
        )

    if family is Family.SUZUKI:
        bad = []
        for d in divisors(params.q - 1):
            for n in divisors(params.m):
                if genus_b0_cyclic(params, d, n).delta != delta_b0_census(
                    params, B0Cyclic(d, n)
                ):
                    bad.append(f"cyclic d={d} n={n}")
                if genus_b0_dihedral(params, d, n).delta != delta_b0_census(
                    params, B0Dihedral(d, n)
                ):
                    bad.append(f"dihedral d={d} n={n}")
        checks.append(
            _verdict("B0 products: closed form vs census summation", bad, "all divisor pairs")
        )
    else:
        checks.extend(_ree_census_checks(params))
        if seven_divides_m(params):
            checks.append(_skew_check(params, cap))
    return checks


def _ree_census_checks(params: CurveParams) -> list[OracleCheck]:
    bad = []
    for tag in ("psl28", *(f"n2_{k_order}" for k_order in N2_SUBGROUP_ORDERS)):
        table = census(tag)
        realized = realize_census(tag)
        if dict(table.counts) != realized or sum(realized.values()) != table.group_order:
            bad.append(f"{tag}: table {dict(table.counts)} vs realized {realized}")
    checks = [
        _verdict("order censuses: tables vs permutation realizations", bad, "7 groups realized")
    ]

    bad = []
    for n in divisors(params.m):
        if genus_psl28(params, n).delta != delta_census(params, Psl28(n)):
            bad.append(f"psl28 n={n}")
        for k_order in N2_SUBGROUP_ORDERS:
            formula = genus_n2_nonskew(params, k_order, n).delta
            if formula != delta_census(params, N2NonSkew(k_order, n)):
                bad.append(f"n2_{k_order} n={n}")
    checks.append(
        _verdict("PSL(2,8)/N2 products: closed form vs census summation", bad, "all divisors of m")
    )
    return checks


def _skew_check(params: CurveParams, cap: int) -> OracleCheck:
    bad = []
    pairs = [
        (i, w)
        for w in divisors(params.m // 7)
        for i in range(1, 7)
        if 56 * (params.m // (7 * w)) <= cap
    ]
    images = skew_image_masks(params)  # the curve's, shared by every census
    for i, w in pairs:
        full = genus_n2_skew_full(params, i, w)
        cyclic = genus_n2_skew_cyclic(params, i, w)
        if full.delta != delta_skew_census(params, N2SkewFull(i, w), images):
            bad.append(f"full i={i} w={w}")
        if cyclic.delta != delta_skew_census(params, N2SkewCyclic(i, w), images):
            bad.append(f"cyclic i={i} w={w}")
        n1 = params.m // 7
        reduced = genus_sigma_cm_ree(params, SigmaCm(n1, 7 * w, (i * w) % (7 * w)))
        if (cyclic.genus, cyclic.delta) != (reduced.genus, reduced.delta):
            bad.append(f"cyclic-reduction i={i} w={w}")
    return _verdict(
        "skew subgroups: closed forms vs element-level census and reduction",
        bad,
        f"{len(pairs)} (i, w) pairs",
        pairs,
        cap,
    )
