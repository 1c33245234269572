import math
import re
from types import SimpleNamespace

import pytest

from skabelund import curves
from skabelund.curves import Family, ambient_genus, make_params, seven_divides_m


def test_suzuki_small_parameters():
    p = make_params(Family.SUZUKI, 1)
    assert (p.q0, p.q, p.m) == (2, 8, 5)
    assert p.field_exponent == 4
    assert p.ambient_degree == (8**2 + 1) * 6
    assert ambient_genus(p) == 196


def test_ree_small_parameters():
    p = make_params(Family.REE, 1)
    assert (p.q0, p.q, p.m) == (3, 27, 19)
    assert p.field_exponent == 6
    assert ambient_genus(p) == 246051


def test_suzuki_s4():
    p = make_params(Family.SUZUKI, 4)
    assert (p.q0, p.q, p.m) == (16, 512, 481)
    assert p.m_factors == ((13, 1), (37, 1))


def test_ambient_genus_s2():
    assert ambient_genus(make_params(Family.SUZUKI, 2)) == 15376  # (1025*30)/2 + 1


def test_rejects_s_below_one():
    with pytest.raises(ValueError, match="^s must be >= 1, got 0$"):
        make_params(Family.SUZUKI, 0)
    with pytest.raises(ValueError, match="^s must be >= 1, got -2$"):
        make_params(Family.REE, -2)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("s", [True, False, 1.0, 2.5, "1", None], ids=repr)
def test_rejects_a_non_integer_s(family, s):
    with pytest.raises(ValueError, match=f"^s must be an integer, got {re.escape(repr(s))}$"):
        make_params(family, s)


def test_rejects_an_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'ree'"):
        make_params("ree", 1)  # the name, not Family.REE


def test_m_sharing_a_factor_with_q_minus_1_is_loud(monkeypatch):
    monkeypatch.setattr(curves, "math", SimpleNamespace(gcd=lambda a, b: 7))
    with pytest.raises(ArithmeticError, match=r"gcd\(m, q-1\) != 1 for s=1"):
        make_params(Family.SUZUKI, 1)


def test_q_of_the_wrong_order_mod_m_is_loud(monkeypatch):
    monkeypatch.setattr(curves, "pow", lambda base, exponent, modulus: 2, raising=False)
    with pytest.raises(ArithmeticError, match="q does not have order dividing 6 mod m"):
        make_params(Family.REE, 1)


@pytest.mark.parametrize("family,s", [(f, s) for f in Family for s in range(1, 8)])
def test_invariants(family, s):
    p = make_params(family, s)
    assert math.gcd(p.m, p.q - 1) == 1
    assert pow(p.q, p.field_exponent, p.m) == 1
    assert p.q_powers[0] == 1 % p.m
    assert len(p.q_powers) == p.field_exponent
    if family is Family.SUZUKI:
        assert p.m * (p.q + 2 * p.q0 + 1) == p.q**2 + 1
    else:
        assert p.m * (p.q + 1) * (p.q + 3 * p.q0 + 1) == p.q**3 + 1


def test_seven_divides_m_examples():
    assert seven_divides_m(make_params(Family.REE, 1)) is False  # m = 19
    assert seven_divides_m(make_params(Family.REE, 2)) is True  # m = 217
    p3 = make_params(Family.REE, 3)
    assert p3.m == 2107 and seven_divides_m(p3) is True


@pytest.mark.parametrize("s", range(1, 31))
def test_seven_divides_m_congruence(s):
    # for the Ree family, 7 | m iff s = 2 or 3 mod 6
    assert seven_divides_m(make_params(Family.REE, s)) == (s % 6 in (2, 3))
