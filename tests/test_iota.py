import pytest

from skabelund.catalog import enumerate_standard_exponents
from skabelund.curves import Family, make_params
from skabelund.iota import (
    CENSUS_TABLE,
    OrderClassRee,
    OrderClassSz,
    iota_ree,
    iota_sigma_element,
    iota_suzuki,
)

SUZUKI1 = make_params(Family.SUZUKI, 1)
REE1 = make_params(Family.REE, 1)


def test_iota_suzuki_values():
    assert iota_suzuki(SUZUKI1, OrderClassSz.TAU, 3) == 65  # q^2 + 1
    assert iota_suzuki(SUZUKI1, OrderClassSz.ORDER2, 0) == 26  # m(2q0+1) + 1
    assert iota_suzuki(SUZUKI1, OrderClassSz.ORDER2, 2) == 1
    assert iota_suzuki(SUZUKI1, OrderClassSz.ORDER4, 0) == 6  # m + 1
    assert iota_suzuki(SUZUKI1, OrderClassSz.ORDER4, 2) == 1
    assert iota_suzuki(SUZUKI1, OrderClassSz.DIVIDES_Q_MINUS_1, 0) == 2
    assert iota_suzuki(SUZUKI1, OrderClassSz.DIVIDES_Q_MINUS_1, 4) == 2
    assert iota_suzuki(SUZUKI1, OrderClassSz.DIVIDES_Q_PLUS_2Q0_PLUS_1, 1) == 0


def test_iota_suzuki_rejections():
    with pytest.raises(ValueError):
        iota_suzuki(SUZUKI1, OrderClassSz.TAU, 0)  # identity
    with pytest.raises(ValueError):
        iota_suzuki(SUZUKI1, OrderClassSz.DIVIDES_Q_MINUS_2Q0_PLUS_1, 1)
    with pytest.raises(ValueError):
        iota_suzuki(REE1, OrderClassSz.TAU, 1)


def test_iota_ree_values():
    assert iota_ree(REE1, OrderClassRee.TAU, 5) == 19684  # q^3 + 1
    assert iota_ree(REE1, OrderClassRee.ORDER2, 7) == 28  # q + 1, any k
    assert iota_ree(REE1, OrderClassRee.ORDER2, 0) == 28
    assert iota_ree(REE1, OrderClassRee.ORDER3_NONCENTRAL, 0) == 191  # m(3q0+1)+1
    assert iota_ree(REE1, OrderClassRee.ORDER3_NONCENTRAL, 3) == 1
    assert iota_ree(REE1, OrderClassRee.ORDER3_CENTRAL, 0) == 19 * 37 + 1
    assert iota_ree(REE1, OrderClassRee.ORDER9, 5) == 1
    assert iota_ree(REE1, OrderClassRee.ORDER9, 0) == 20  # m + 1
    assert iota_ree(REE1, OrderClassRee.ORDER6, 0) == 1
    assert iota_ree(REE1, OrderClassRee.DIVIDES_Q_MINUS_1_NOT_2, 2) == 2
    assert iota_ree(REE1, OrderClassRee.DIVIDES_Q_PLUS_1_NOT_2, 2) == 0
    assert iota_ree(REE1, OrderClassRee.DIVIDES_Q_PLUS_3Q0_PLUS_1, 0) == 0


def test_iota_ree_rejections():
    with pytest.raises(ValueError):
        iota_ree(REE1, OrderClassRee.TAU, 0)
    with pytest.raises(ValueError):
        iota_ree(REE1, OrderClassRee.DIVIDES_Q_MINUS_3Q0_PLUS_1, 1)
    with pytest.raises(ValueError):
        iota_ree(SUZUKI1, OrderClassRee.TAU, 1)


def test_iota_sigma_element_suzuki():
    # 8^d mod 5 = 1, 3, 4, 2
    assert iota_sigma_element(SUZUKI1, 1, 3) == 5
    assert iota_sigma_element(SUZUKI1, 1, 1) == 5
    assert iota_sigma_element(SUZUKI1, 2, 0) == 0
    assert iota_sigma_element(SUZUKI1, 0, 4) == 65
    with pytest.raises(ValueError):
        iota_sigma_element(SUZUKI1, 0, 0)


def test_iota_sigma_element_ree():
    # 27^d mod 19 = 1, 8, 7, 18, 11, 12
    assert REE1.q_powers == (1, 8, 7, 18, 11, 12)
    assert iota_sigma_element(REE1, 1, 8) == 19
    assert iota_sigma_element(REE1, 1, 2) == 0
    assert iota_sigma_element(REE1, 0, 2) == 19684


@pytest.mark.parametrize(
    "family,s", [(Family.SUZUKI, 1), (Family.SUZUKI, 2), (Family.REE, 1), (Family.REE, 2)]
)
def test_special_powers_pairwise_distinct(family, s):
    # for each A != 0 the weight-m tau exponents are exactly {A*q^d}, all distinct
    params = make_params(family, s)
    half = params.field_exponent // 2
    for a_exp in range(1, params.m):
        specials = {(a_exp * qd) % params.m for qd in params.q_powers}
        assert len(specials) == 2 * half
        hits = {b for b in range(params.m) if iota_sigma_element(params, a_exp, b) == params.m}
        assert hits == specials


def test_special_powers_distinct_at_size_caps():
    # distinctness of {A*q^d mod m} for sampled A at the largest supported
    # curves (the full hit-scan above is only viable at small m)
    for family, s in ((Family.SUZUKI, 6), (Family.REE, 5)):
        params = make_params(family, s)
        for a_exp in (1, 2, 97, params.m // 2, params.m - 1):
            specials = {(a_exp * qd) % params.m for qd in params.q_powers}
            assert len(specials) == params.field_exponent


def test_tau_row_matches_tau_class():
    for params in (SUZUKI1, REE1):
        for b in range(1, params.m):
            assert iota_sigma_element(params, 0, b) == params.tau_iota


def test_census_sums():
    for tag, cen in CENSUS_TABLE.items():
        assert sum(count for _o, count in cen.counts) == cen.group_order, tag


def test_census_contents():
    psl = CENSUS_TABLE["psl28"]
    assert dict(psl.counts) == {1: 1, 2: 63, 3: 56, 7: 216, 9: 168}
    assert psl.order3_central is True
    n2 = CENSUS_TABLE["n2_168"]
    assert dict(n2.counts) == {1: 1, 2: 7, 3: 56, 6: 56, 7: 48}
    assert n2.order3_central is False
    assert dict(CENSUS_TABLE["n2_8"].counts) == {1: 1, 2: 7}


def test_complete_element_accounting():
    # every non-identity subgroup element is a tau power, a special element,
    # or weight zero; counts add up to |H| - 1
    params = make_params(Family.REE, 1)
    for se in enumerate_standard_exponents(params.m):
        m, n1, n2, a = params.m, se.n1, se.n2, se.a
        tau = special = zero = 0
        for i in range(m // n1):
            for j in range(m // n2):
                if i == 0 and j == 0:
                    continue
                weight = iota_sigma_element(params, (i * n1) % m, (i * a + j * n2) % m)
                if weight == params.tau_iota:
                    tau += 1
                elif weight == m:
                    special += 1
                else:
                    zero += 1
        assert tau + special + zero == (m // n1) * (m // n2) - 1
        assert tau == m // n2 - 1
