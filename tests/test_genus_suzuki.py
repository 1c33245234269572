import pytest

from skabelund.catalog import (
    B0Cyclic,
    B0Dihedral,
    NonIntegralGenusError,
    SigmaCm,
    enumerate_standard_exponents,
)
from skabelund.curves import Family, ambient_genus, make_params
from skabelund.genus_suzuki import genus_b0_cyclic, genus_b0_dihedral, genus_sigma_cm_suzuki
from skabelund.oracle import delta_b0_census, delta_sigma_cm_bruteforce

S1 = make_params(Family.SUZUKI, 1)
S2 = make_params(Family.SUZUKI, 2)


def test_table_values_sigma_cm():
    assert genus_sigma_cm_suzuki(S1, SigmaCm(1, 5, 1)).genus == 38
    assert genus_sigma_cm_suzuki(S2, SigmaCm(5, 5, 1)).genus == 534


def test_trivial_subgroup_gives_ambient_genus():
    record = genus_sigma_cm_suzuki(S1, SigmaCm(5, 5, 0))
    assert record.genus == ambient_genus(S1) == 196
    assert record.order == 1 and record.delta == 0


def test_full_group_quotient():
    # brute-force oracle value: the full Singer square quotient has genus 2
    record = genus_sigma_cm_suzuki(S1, SigmaCm(1, 1, 0))
    assert record.order == 25
    assert record.delta == delta_sigma_cm_bruteforce(S1, SigmaCm(1, 1, 0)) == 340
    assert record.genus == 2


def test_full_group_is_minimum_of_family():
    for params in (S1, S2):
        genera = {
            se: genus_sigma_cm_suzuki(params, se).genus
            for se in enumerate_standard_exponents(params.m)
        }
        assert min(genera.values()) == genera[SigmaCm(1, 1, 0)]


def test_rh_identity_holds():
    for params in (S1, S2):
        for se in enumerate_standard_exponents(params.m):
            r = genus_sigma_cm_suzuki(params, se)
            assert params.ambient_degree == r.order * (2 * r.genus - 2) + r.delta
            assert r.genus >= 0


def test_sigma_cm_rejects_wrong_family():
    with pytest.raises(ValueError):
        genus_sigma_cm_suzuki(make_params(Family.REE, 1), SigmaCm(1, 1, 0))


def test_sigma_cm_rejects_invalid_triple():
    with pytest.raises(ValueError):
        genus_sigma_cm_suzuki(S1, SigmaCm(2, 5, 0))


def test_b0_cyclic_values():
    assert genus_b0_cyclic(S1, 1, 1).genus == 196  # trivial subgroup
    assert genus_b0_cyclic(S1, 7, 5).genus == 2
    assert genus_b0_cyclic(S1, 7, 1).genus == 28
    assert genus_b0_cyclic(S1, 7, 1).order == 7


def test_b0_dihedral_values():
    # oracle derivation: a single involution has delta = m(2q0+1) + 1
    assert genus_b0_dihedral(S1, 1, 1).delta == 26
    assert genus_b0_dihedral(S1, 1, 1).genus == 92
    assert genus_b0_dihedral(S1, 7, 5).genus == 0
    # s=2: delta = 25*9 + 1 = 226, genus = (30750 - 226)/4 + 1
    assert genus_b0_dihedral(S2, 1, 1).delta == 226
    assert genus_b0_dihedral(S2, 1, 1).genus == 7632


def test_b0_rejects_bad_divisors():
    with pytest.raises(ValueError):
        genus_b0_cyclic(S1, 3, 1)  # 3 does not divide q-1 = 7
    with pytest.raises(ValueError):
        genus_b0_dihedral(S1, 7, 3)  # 3 does not divide m = 5


def test_b0_census_equivalence():
    from skabelund.arith import divisors

    for params in (S1, S2):
        for d in divisors(params.q - 1):
            for n in divisors(params.m):
                assert genus_b0_cyclic(params, d, n).delta == delta_b0_census(
                    params, B0Cyclic(d, n)
                )
                assert genus_b0_dihedral(params, d, n).delta == delta_b0_census(
                    params, B0Dihedral(d, n)
                )


def test_oracle_equivalence_all_triples_small_s():
    for params in (S1, S2):
        for se in enumerate_standard_exponents(params.m):
            assert (
                genus_sigma_cm_suzuki(params, se).delta
                == delta_sigma_cm_bruteforce(params, se)
            )


def test_nu_with_exact_zero_argument():
    # a = n1*q^d exactly: every power of p divides 0, so the p-part is p^v_p(n2)
    record = genus_sigma_cm_suzuki(S1, SigmaCm(1, 5, 1))
    assert record.delta == 20  # the d=0 term contributes (5*5/5 - 1)*5


def test_non_integral_genus_is_loud():
    # q = 9 passes the B0 checks (1 | q-1, 5 | m) but is not a Suzuki q, so
    # the closed form's 2|H|(g-1) = (q^2+1)(q-n-1) = 246 is no multiple of 10
    message = r"2\|H\|=10 does not divide ambient-delta=246"
    with pytest.raises(NonIntegralGenusError, match=message):
        genus_b0_cyclic(S1._replace(q=9), 1, 5)
