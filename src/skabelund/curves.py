"""Numeric parameters of the two Skabelund curve families.

The Suzuki-family curve lives over F_{q^4} with q = 2^(2s+1); the Ree-family
curve lives over F_{q^6} with q = 3^(2s+1).  Both carry a distinguished
cyclic automorphism factor C_m with m = q - p*q0 + 1 (p the characteristic),
and the full automorphism group is Sz(q) x C_m resp. Ree(q) x C_m.  Only the
integer data needed for genus computations is modelled here; there is no
function-field machinery.

CurveParams is a plain NamedTuple, so none of its fields can be set or
deleted.  It stores no factorization: m_factors reads arith.factorize,
whose cache holds it.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .arith import Factorization, factorize


class Family(enum.Enum):
    SUZUKI = "suzuki"
    REE = "ree"


class CurveParams(NamedTuple):
    """Validated parameter tuple of one Skabelund curve.

    ambient_degree is 2g-2 of the curve itself, i.e. the left-hand side
    (q^2+1)(q-2) (Suzuki) or (q^3+1)(q-2) (Ree) of the Riemann-Hurwitz
    identity ambient_degree = |H|*(2*g_H - 2) + delta_H.
    """

    family: Family
    s: int
    q0: int
    q: int
    m: int
    field_exponent: int  # 4 for Suzuki, 6 for Ree
    ambient_degree: int
    q_powers: tuple[int, ...]  # q^d mod m for d = 0 .. field_exponent - 1
    aut_order: int  # |Sz(q)|*m resp. |Ree(q)|*m

    @property
    def tau_iota(self) -> int:
        """Ramification weight q^2+1 (Suzuki) or q^3+1 (Ree) of a pure tau power."""
        return self.q ** (self.field_exponent // 2) + 1

    @property
    def m_factors(self) -> Factorization:
        """Prime factorization of m.  Construction never factors m: trial
        division is only viable at desk scale (roughly m <= 10^14).
        factorize caches, so m is trial-divided once per process."""
        return factorize(self.m)


def make_params(family: Family, s: int) -> CurveParams:
    """Construct and validate curve parameters for exponent s >= 1."""
    # not isinstance: True is an int, and would reach the exports as given
    if type(s) is not int:
        raise ValueError(f"s must be an integer, got {s!r}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if family is Family.SUZUKI:
        p = 2
        q0 = 2**s
        q = 2 * q0**2
        m = q - 2 * q0 + 1
        field_exponent = 4
        ambient_degree = (q**2 + 1) * (q - 2)
        aut_order = q**2 * (q**2 + 1) * (q - 1) * m
        # q^2+1 = (q - 2q0 + 1)(q + 2q0 + 1)
        assert m * (q + 2 * q0 + 1) == q**2 + 1
    elif family is Family.REE:
        p = 3
        q0 = 3**s
        q = 3 * q0**2
        m = q - 3 * q0 + 1
        field_exponent = 6
        ambient_degree = (q**3 + 1) * (q - 2)
        aut_order = q**3 * (q**3 + 1) * (q - 1) * m
        # q^3+1 = (q + 1)(q + 3q0 + 1)(q - 3q0 + 1)
        assert m * (q + 1) * (q + 3 * q0 + 1) == q**3 + 1
    else:
        raise ValueError(f"unknown family {family!r}")

    assert q == p ** (2 * s + 1)
    if math.gcd(m, q - 1) != 1:
        raise ArithmeticError(f"gcd(m, q-1) != 1 for s={s}")
    half = field_exponent // 2
    if pow(q, 2 * half, m) != 1:
        raise ArithmeticError(f"q does not have order dividing {2 * half} mod m")

    return CurveParams(
        family=family,
        s=s,
        q0=q0,
        q=q,
        m=m,
        field_exponent=field_exponent,
        ambient_degree=ambient_degree,
        q_powers=tuple(pow(q, d, m) for d in range(2 * half)),
        aut_order=aut_order,
    )


def ambient_genus(params: CurveParams) -> int:
    """Genus of the Skabelund curve itself (quotient by the trivial group)."""
    assert params.ambient_degree % 2 == 0
    return params.ambient_degree // 2 + 1


def seven_divides_m(params: CurveParams) -> bool:
    """Whether 7 | m; for the Ree family this happens iff s = 2 or 3 mod 6."""
    result = params.m % 7 == 0
    if params.family is Family.REE:
        assert result == (params.s % 6 in (2, 3))
    return result
