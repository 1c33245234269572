"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
every expected value is an exact integer, never a tolerance.
"""

import time
from contextlib import contextmanager

from skabelund.arith import is_prime
from skabelund.catalog import (
    B0Cyclic,
    N2SkewFull,
    SigmaCm,
    enumerate_descriptors,
    enumerate_standard_exponents,
    standard_exponent_elements,
)
from skabelund.curves import Family, ambient_genus, make_params
from skabelund.genus_ree import (
    genus_n2_nonskew,
    genus_n2_skew_cyclic,
    genus_n2_skew_full,
    genus_psl28,
    genus_sigma_cm_ree,
)
from skabelund.genus_suzuki import genus_sigma_cm_suzuki
from skabelund.iota import CENSUS_TABLE
from skabelund.oracle import (
    count_congruence_solutions,
    delta_sigma_cm_bruteforce,
    delta_skew_census,
    enumerate_subgroups_bruteforce,
    realize_census,
)
from skabelund.singer import delta_sigma_cm
from skabelund.spectrum import evaluate_descriptor

from references import capped_p_parts
from sampling import sample_evenly

MAX_ELEMENTS = 400_000

TABLE_1 = {
    1: {38},
    2: {104, 534, 604, 614, 3066},
    3: {9080},
    4: {3484, 10420, 129160, 135688, 138736, 138952, 138958, 138970, 1806442, 5141854},
}


@contextmanager
def criterion(number, title, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {title}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert budget is None or elapsed < budget, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    )
    print(f"ACCEPTANCE {number} {title}: PASS ({elapsed:.2f}s)")


def test_criterion_1_table_1_reproduction():
    with criterion(1, "Table 1 (Suzuki Singer-square genera, s=1..4)", budget=10.0):
        for s, expected in TABLE_1.items():
            params = make_params(Family.SUZUKI, s)
            spectrum = {
                genus_sigma_cm_suzuki(params, se).genus
                for se in enumerate_standard_exponents(params.m)
            }
            missing = expected - spectrum
            assert not missing, f"s={s}: missing genera {sorted(missing)}"


def test_criterion_2_table_2_reproduction():
    with criterion(2, "Table 2 (Ree Singer-square genus, s=1)", budget=1.0):
        params = make_params(Family.REE, 1)
        spectrum = {
            genus_sigma_cm_ree(params, se).genus
            for se in enumerate_standard_exponents(params.m)
        }
        assert 12942 in spectrum


def test_criterion_3_table_3_reproduction():
    with criterion(3, "Table 3 (Ree PSL(2,8) and N2 genera, s=1)", budget=1.0):
        params = make_params(Family.REE, 1)
        assert genus_psl28(params, 1).genus == 445
        assert genus_n2_nonskew(params, 56, 1).genus == 4393


def test_criterion_4_oracle_equivalence():
    with criterion(4, "Singer-square delta: closed form == brute force", budget=60.0):
        for family, s in ((Family.SUZUKI, 1), (Family.SUZUKI, 2), (Family.REE, 1)):
            params = make_params(family, s)
            for se in enumerate_standard_exponents(params.m):
                assert delta_sigma_cm(params, se) == delta_sigma_cm_bruteforce(
                    params, se, max_elements=MAX_ELEMENTS
                ), f"{family} s={s} {se}"
        for family, s in ((Family.SUZUKI, 3), (Family.SUZUKI, 4), (Family.REE, 2)):
            params = make_params(family, s)
            triples = enumerate_standard_exponents(params.m)
            sampled = sample_evenly(triples, 50)
            assert len(sampled) >= 50
            for se in sampled:
                assert delta_sigma_cm(params, se) == delta_sigma_cm_bruteforce(
                    params, se, max_elements=MAX_ELEMENTS
                ), f"{family} s={s} {se}"


def _crt_product(params, se, d):
    x = se.n1 * params.q_powers[d] - se.a
    return params.m * capped_p_parts(x, se.n2, (p for p, _e in params.m_factors))


def test_criterion_5_congruence_count_law():
    with criterion(5, "congruence counts times n1*n2 == m * prod p^nu"):
        for family, s in ((Family.SUZUKI, 1), (Family.REE, 1), (Family.SUZUKI, 2)):
            params = make_params(family, s)  # m = 5, 19, 25
            for se in enumerate_standard_exponents(params.m):
                for d in range(len(params.q_powers)):
                    count = count_congruence_solutions(
                        params, se, max_elements=MAX_ELEMENTS
                    )[d]
                    assert count * se.n1 * se.n2 == _crt_product(params, se, d)
        for family, s in ((Family.REE, 2), (Family.SUZUKI, 4)):
            params = make_params(family, s)  # m = 217, 481
            nd = len(params.q_powers)
            triples = sample_evenly(
                enumerate_standard_exponents(params.m), (100 + nd - 1) // nd + 1
            )
            pairs = [(se, d) for se in triples for d in range(nd)]
            assert len(pairs) >= 100
            for se, d in pairs:
                count = count_congruence_solutions(
                    params, se, max_elements=MAX_ELEMENTS
                )[d]
                assert count * se.n1 * se.n2 == _crt_product(params, se, d)


def test_criterion_6_subgroup_bijection():
    with criterion(6, "standard exponents <-> closure subgroups, m <= 60"):
        for m in range(1, 61):
            triples = enumerate_standard_exponents(m)
            generated = {standard_exponent_elements(m, se) for se in triples}
            assert len(generated) == len(triples)  # triples are injective
            assert generated == enumerate_subgroups_bruteforce(m)
            if is_prime(m):
                assert len(triples) == m + 3


def test_criterion_7_rh_integrality_sweep():
    with criterion(7, "Riemann-Hurwitz integrality for every descriptor"):
        for family, s_range, ambient_s1 in (
            (Family.SUZUKI, (1, 2, 3, 4), 196),
            (Family.REE, (1, 2), 246051),
        ):
            for s in s_range:
                params = make_params(family, s)
                for descriptor in enumerate_descriptors(params):
                    record = evaluate_descriptor(params, descriptor)
                    # make_record already asserts exact divisibility; recheck
                    assert (
                        params.ambient_degree
                        == record.order * (2 * record.genus - 2) + record.delta
                    )
                    assert record.genus >= 0
            params = make_params(family, 1)
            trivial = SigmaCm(params.m, params.m, 0)
            assert evaluate_descriptor(params, trivial).genus == ambient_s1
            assert ambient_genus(params) == ambient_s1
            if family is Family.SUZUKI:
                assert evaluate_descriptor(params, B0Cyclic(1, 1)).genus == ambient_s1


def test_criterion_8_skew_laws():
    with criterion(8, "skew subgroup laws at Ree s=2 (m=217)", budget=5.0):
        params = make_params(Family.REE, 2)
        assert params.m == 217
        for w in (1, 31):
            n = params.m // (7 * w)
            full_genera = set()
            for i in range(1, 7):
                cyclic = genus_n2_skew_cyclic(params, i, w)
                reduced = genus_sigma_cm_ree(
                    params, SigmaCm(params.m // 7, 7 * w, i * w)
                )
                assert cyclic.genus == reduced.genus and cyclic.delta == reduced.delta
                full_genera.add(genus_n2_skew_full(params, i, w).genus)
            assert len(full_genera) == 1  # independent of i
            # delta branch: nonzero exactly when 7 does not divide n
            census_delta = delta_skew_census(params, N2SkewFull(1, w))
            tau_and_involutions = (n - 1) * (params.q**3 + 1) + 7 * n * (params.q + 1)
            branch = census_delta - tau_and_involutions
            assert branch == (0 if n % 7 == 0 else 48 * params.m)
            assert branch == genus_n2_skew_full(params, 1, w).delta - tau_and_involutions


def test_criterion_9_census_validation():
    with criterion(9, "N2 permutation census and census sums"):
        assert realize_census("n2_168") == {1: 1, 2: 7, 3: 56, 6: 56, 7: 48}
        for tag, census in CENSUS_TABLE.items():
            assert sum(count for _o, count in census.counts) == census.group_order
            assert realize_census(tag) == dict(census.counts), tag
