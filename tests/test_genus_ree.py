import pytest

from skabelund.catalog import (
    N2NonSkew,
    N2SkewCyclic,
    N2SkewFull,
    Psl28,
    SigmaCm,
    enumerate_standard_exponents,
)
from skabelund.curves import Family, ambient_genus, make_params
from skabelund.genus_ree import (
    genus_n2_nonskew,
    genus_n2_skew_cyclic,
    genus_n2_skew_full,
    genus_psl28,
    genus_sigma_cm_ree,
)
from skabelund.oracle import delta_census, delta_sigma_cm_bruteforce, delta_skew_census

R1 = make_params(Family.REE, 1)
R2 = make_params(Family.REE, 2)


def test_table2_value():
    assert genus_sigma_cm_ree(R1, SigmaCm(1, 19, 1)).genus == 12942


def test_trivial_subgroup():
    record = genus_sigma_cm_ree(R1, SigmaCm(19, 19, 0))
    assert record.genus == ambient_genus(R1) == 246051


def test_oracle_derived_values():
    record = genus_sigma_cm_ree(R1, SigmaCm(1, 19, 0))
    assert record.genus == 12951
    assert genus_sigma_cm_ree(R1, SigmaCm(1, 19, 1)).delta == 342


def test_sigma_cm_oracle_equivalence_all_triples():
    for se in enumerate_standard_exponents(R1.m):
        assert genus_sigma_cm_ree(R1, se).delta == delta_sigma_cm_bruteforce(R1, se)


def test_psl28():
    assert genus_psl28(R1, 1).genus == 445  # table value
    assert genus_psl28(R1, 1).delta == 44548
    assert genus_psl28(R1, 19).genus == 4
    assert genus_psl28(R1, 19).order == 504 * 19
    with pytest.raises(ValueError):
        genus_psl28(R1, 5)


def test_psl28_census_equivalence_s2():
    from skabelund.arith import divisors

    for n in divisors(R2.m):
        record = genus_psl28(R2, n)
        assert record.delta == delta_census(R2, Psl28(n))
        assert R2.ambient_degree == record.order * (2 * record.genus - 2) + record.delta


def test_n2_nonskew():
    assert genus_n2_nonskew(R1, 56, 1).genus == 4393  # table value
    assert genus_n2_nonskew(R1, 168, 1).genus == 1433
    assert genus_n2_nonskew(R1, 168, 1).delta == 10948
    record = genus_n2_nonskew(R1, 4, 1)
    assert record.delta == 84 and record.genus == 61503
    with pytest.raises(ValueError):
        genus_n2_nonskew(R1, 21, 1)


def test_n2_nonskew_census_equivalence():
    from skabelund.arith import divisors

    for params in (R1, R2):
        for k_order in (168, 56, 24, 12, 8, 4):
            for n in divisors(params.m):
                assert genus_n2_nonskew(params, k_order, n).delta == delta_census(
                    params, N2NonSkew(k_order, n)
                )


def test_skew_requires_seven_divides_m():
    with pytest.raises(ValueError):
        genus_n2_skew_full(R1, 1, 1)  # m = 19
    with pytest.raises(ValueError):
        genus_n2_skew_cyclic(R2, 1, 7)  # 49 does not divide 217
    with pytest.raises(ValueError):
        genus_n2_skew_full(R2, 7, 1)  # i out of range


def test_skew_i_independence():
    for w in (1, 31):
        full = {genus_n2_skew_full(R2, i, w).genus for i in range(1, 7)}
        cyclic = {genus_n2_skew_cyclic(R2, i, w).genus for i in range(1, 7)}
        assert len(full) == 1 and len(cyclic) == 1


def test_skew_cyclic_reduction_law():
    # <r tau^(i*w)> has the same quotient genus as the Singer-square subgroup
    # with standard exponents (m/7, 7w, i*w)
    for w in (1, 31):
        for i in range(1, 7):
            cyclic = genus_n2_skew_cyclic(R2, i, w)
            reduced = genus_sigma_cm_ree(R2, SigmaCm(R2.m // 7, 7 * w, i * w))
            assert cyclic.genus == reduced.genus
            assert cyclic.delta == reduced.delta
            assert cyclic.order == reduced.order == 7 * (R2.m // (7 * w))


def test_skew_census_equivalence():
    for cls, fn in ((N2SkewFull, genus_n2_skew_full), (N2SkewCyclic, genus_n2_skew_cyclic)):
        for w in (1, 31):
            for i in (1, 3, 6):
                assert fn(R2, i, w).delta == delta_skew_census(R2, cls(i, w))


def test_skew_delta_branch():
    # at s=2 both w choices give 7 not dividing n, so the 48m branch is active
    full = genus_n2_skew_full(R2, 1, 31)
    assert full.order == 56
    assert full.delta == 7 * 1 * (R2.q + 1) + 48 * R2.m  # n = 1 coset part + delta

    # at s=3 (m = 2107 = 7^2 * 43) w = 1 gives n = 301 divisible by 7: delta = 0
    r3 = make_params(Family.REE, 3)
    full = genus_n2_skew_full(r3, 1, 1)
    n = r3.m // 7
    assert full.delta == (n - 1) * (r3.q**3 + 1) + 7 * n * (r3.q + 1)
    assert full.delta == delta_skew_census(r3, N2SkewFull(1, 1))
    cyclic = genus_n2_skew_cyclic(r3, 1, 1)
    assert cyclic.delta == (n - 1) * (r3.q**3 + 1)
    assert cyclic.delta == delta_skew_census(r3, N2SkewCyclic(1, 1))


def test_rh_integrality_sweep_s2():
    from skabelund.spectrum import compute_spectrum

    report = compute_spectrum(Family.REE, 2)
    for record in report.records:
        assert R2.ambient_degree == record.order * (2 * record.genus - 2) + record.delta
        assert record.genus >= 0


def test_sigma_cm_oracle_equivalence_prime_square_m():
    # m = 2107 = 7^2 * 43: the only supported m where a prime enters m
    # squared alongside a second prime, stressing the nu = 2 case of the
    # per-prime congruence counting
    from sampling import sample_evenly

    r3 = make_params(Family.REE, 3)
    assert r3.m_factors == ((7, 2), (43, 1))
    triples = [
        se
        for se in enumerate_standard_exponents(r3.m)
        if se.n1 * se.n2 >= r3.m * r3.m // 100_000
    ]
    sampled = sample_evenly(triples, 24)
    # make sure the deep-ramification cases are present: n2 divisible by 49
    sampled += [se for se in triples if se.n2 == r3.m and se.a % 49 == 0][:8]
    for se in sampled:
        assert genus_sigma_cm_ree(r3, se).delta == delta_sigma_cm_bruteforce(
            r3, se, max_elements=100_000
        )
