"""The oracle suite: every closed form checked against the brute-force oracle.

run_oracle_suite(family, s) makes one OracleCheck per equivalence: the
Singer-square delta and congruence counts over an even sample of about
SAMPLE_LIMIT subgroups, the standard-exponent subgroups against closure
(m within SKABELUND_MAX_CLOSURE_M), and, per family, the B0 products
(Suzuki) or the order censuses, the PSL(2,8)/N2 products and, when 7 | m,
the skew subgroups (Ree).  A check fails naming each case whose two sides
differ, and a check whose cases the element cap left empty fails too.

The cases come from the catalog: each kind's descriptors from its KINDS
enumerator, which takes the curve alone, and its closed form from its KINDS
evaluator, and the order censuses from iota.CENSUS_TABLE.  This module
names each kind's census and failure text only (_CENSUS_CHECKS).  The
sampled triples are valid by construction, so delta_sigma_cm takes them
unchecked.

The oracle itself (oracle.py) takes no valuation and no closed form; this
module compares it with both.  The congruence check's side of the
comparison is a product of p-parts p^min(v_p(x), v_p(n2)) over the primes
of m, each found by this module's own division loop (_p_part), not by
arith.valuation.

Work that depends on less than one case is done once: the delta and
congruence checks walk the sample in one loop, with one scans dict; a
sampled subgroup's congruence counts come from one
count_congruence_solutions call, one count per special power; the closure
check compares m*m-bit element masks (bit A*m+B set for (A, B)) from
enumerate_subgroups_bruteforce and standard_exponent_elements; and the
skew check builds the curve's six Singer image masks once
(skew_image_masks) and passes them to every delta_skew_census.

The spectrum pipeline, the CLI's spectrum, genus and verify-tables commands
and `import skabelund` do not load this module or the oracle:
spectrum.run_oracle_suite imports it on its first call.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .catalog import KINDS_BY_NAME, SigmaCm, standard_exponent_blocks, standard_exponent_elements
from .curves import CurveParams, Family, make_params, seven_divides_m
from .iota import CENSUS_TABLE
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
    scans: dict = {}  # row scans of this curve, shared by both checks

    bad_delta, bad_count = [], []
    m = params.m
    m_parts = [(p, p**e) for p, e in params.m_factors]
    for se in sampled:
        n1, n2, a = se
        formula = delta_sigma_cm(params, se)
        brute = delta_sigma_cm_bruteforce(params, se, max_elements=cap, scans=scans)
        if formula != brute:
            bad_delta.append(f"{se}: formula {formula} != brute force {brute}")
        counts = count_congruence_solutions(params, se, max_elements=cap, scans=scans)
        # (p, p^v_p(n2)) per prime of m, the same for every power; n2 | m
        n2_parts = [(p, _p_part(n2, p, pe)) for p, pe in m_parts]
        for d, (qd, count) in enumerate(zip(params.q_powers, counts)):
            # the product prime by prime, not the gcd delta_sigma_cm takes,
            # so the count is checked against a formulation of its own
            x = n1 * qd - a
            prod = 1
            for p, pe in n2_parts:
                prod *= _p_part(x, p, pe)
            if count * n1 * n2 != m * prod:
                bad_count.append(f"{se} d={d}: {count} vs {m * prod}")
    checks.append(
        _verdict(
            "singer-square delta: closed form vs element enumeration",
            bad_delta,
            f"{len(sampled)} subgroups checked",
            sampled,
            cap,
        )
    )
    checks.append(
        _verdict(
            "congruence solution count: literal loop vs CRT product",
            bad_count,
            f"{len(sampled)} subgroups x {len(params.q_powers)} powers",
            sampled,
            cap,
        )
    )

    if params.m <= max_closure_m():
        subgroups = enumerate_subgroups_bruteforce(params.m)
        generated: set = set()
        extra, repeats = [], []
        for se in KINDS_BY_NAME["sigma-cm"].enumerate(params):
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

    if family is Family.REE:
        bad = []
        for tag, table in CENSUS_TABLE.items():
            realized = realize_census(tag)
            if dict(table.counts) != realized or sum(realized.values()) != table.group_order:
                bad.append(f"{tag}: table {dict(table.counts)} vs realized {realized}")
        summary = f"{len(CENSUS_TABLE)} groups realized"
        checks.append(_verdict("order censuses: tables vs permutation realizations", bad, summary))
    checks.append(_census_check(params))
    if family is Family.REE and seven_divides_m(params):
        checks.append(_skew_check(params, cap))
    return checks


# Per family, the check of its census kinds: (check name, summary, {kind
# name: (census, failure text of a descriptor's fields)}), kinds in KINDS
# order.  Each census looks its oracle function up on this module at call
# time, so a patched or traced census is the one that runs.
_CENSUS_CHECKS = {
    Family.SUZUKI: (
        "B0 products: closed form vs census summation",
        "all divisor pairs",
        {
            "b0-cyclic": (lambda params, h: delta_b0_census(params, h), "cyclic d={} n={}"),
            "b0-dihedral": (lambda params, h: delta_b0_census(params, h), "dihedral d={} n={}"),
        },
    ),
    Family.REE: (
        "PSL(2,8)/N2 products: closed form vs census summation",
        "all divisors of m",
        {
            "psl28": (lambda params, h: delta_census(params, h), "psl28 n={}"),
            "n2-nonskew": (lambda params, h: delta_census(params, h), "n2_{} n={}"),
        },
    ),
}


def _census_check(params: CurveParams) -> OracleCheck:
    """Each descriptor its KINDS enumerator lists, kind by kind: the KINDS
    evaluator's delta against the census sum."""
    name, summary, censuses = _CENSUS_CHECKS[params.family]
    bad = []
    for kind_name, (census, text) in censuses.items():
        kind = KINDS_BY_NAME[kind_name]
        for h in kind.enumerate(params):
            if kind.evaluate(params, h).delta != census(params, h):
                bad.append(text.format(*h))
    return _verdict(name, bad, summary)


def _skew_check(params: CurveParams, cap: int) -> OracleCheck:
    """The n2-skew-full pairs (i, w) whose record has order <= cap: both skew
    closed forms against the census, and the cyclic one against the Singer
    square triple (m/7, 7w, iw mod 7w) it reduces to."""
    full_kind, cyclic_kind, sigma_kind = (
        KINDS_BY_NAME[name] for name in ("n2-skew-full", "n2-skew-cyclic", "sigma-cm")
    )
    images = skew_image_masks(params)  # the curve's, shared by every census
    pairs, bad = [], []
    for h in full_kind.enumerate(params):
        full = full_kind.evaluate(params, h)
        if full.order > cap:
            continue
        pairs.append(h)
        i, w = h
        cyclic_h = cyclic_kind.cls(*h)
        cyclic = cyclic_kind.evaluate(params, cyclic_h)
        if full.delta != delta_skew_census(params, h, images):
            bad.append(f"full i={i} w={w}")
        if cyclic.delta != delta_skew_census(params, cyclic_h, images):
            bad.append(f"cyclic i={i} w={w}")
        reduced = sigma_kind.evaluate(params, SigmaCm(params.m // 7, 7 * w, i * w % (7 * w)))
        if (cyclic.genus, cyclic.delta) != (reduced.genus, reduced.delta):
            bad.append(f"cyclic-reduction i={i} w={w}")
    name = "skew subgroups: closed forms vs element-level census and reduction"
    return _verdict(name, bad, f"{len(pairs)} (i, w) pairs", pairs, cap)
