"""Closed-form genera of Ree-family quotient curves.

Families handled: subgroups of the Singer-cycle square Sigma_- x C_m,
PSL(2,8) x C_n, the non-skew products K x C_n with K one of the six
relevant subgroups of N2 (orders 168, 56, 24, 12, 8, 4), and - when
7 | m - the skew subgroups H_{i,w} = <s1, s2, s3, r*tau^(i*w)> and
H'_{i,w} = <r*tau^(i*w)> of the order-56 group crossed with C_m.
genus_psl28(params, n), genus_n2_nonskew(params, k_order, n) and
genus_n2_skew_full/_cyclic(params, i, w) check their descriptor with
catalog.check_descriptor first.  The skew closed forms give the numerator
2|H|(g-1) = ambient_degree - delta, and make_record checks that 2|H|
divides it.
"""

from __future__ import annotations

import math

from . import singer
from .catalog import GenusRecord, N2NonSkew, N2SkewCyclic, N2SkewFull, Psl28, SigmaCm
from .catalog import check_descriptor, make_record
from .curves import CurveParams, Family


def genus_sigma_cm_ree(params: CurveParams, se: SigmaCm) -> GenusRecord:
    """Quotient by the subgroup of Sigma_- x C_m with standard exponents se."""
    # sigma-cm is a kind of both families: check_descriptor takes any curve
    if params.family is not Family.REE:
        raise ValueError(f"need Ree parameters, got {params.family.value}")
    return singer.sigma_cm_record(params, se)


def genus_psl28(params: CurveParams, n: int) -> GenusRecord:
    """Quotient by PSL(2,8) x C_n, order 504*n."""
    h = Psl28(n)
    check_descriptor(params, h)
    q, q0, m = params.q, params.q0, params.m
    delta = (
        63 * n * q
        + 56 * m * (q + 3 * q0 + 4)
        + 287 * n
        + 216 * (math.gcd(7, n) - 1) * m
        + (n - 1) * (q**3 + 1)
    )
    return make_record(params, h, 504 * n, delta)


def genus_n2_nonskew(params: CurveParams, k_order: int, n: int) -> GenusRecord:
    """Quotient by K x C_n with K a subgroup of N2 of the given order."""
    h = N2NonSkew(k_order, n)
    check_descriptor(params, h)
    q, q0, m = params.q, params.q0, params.m
    tau_part = (n - 1) * (q**3 + 1)
    gcd7 = math.gcd(7, n) - 1
    if k_order == 168:
        delta = 7 * n * q + 56 * m * (3 * q0 + 1) + 119 * n + 48 * gcd7 * m + tau_part
    elif k_order == 56:
        delta = 7 * n * (q + 1) + 48 * gcd7 * m + tau_part
    elif k_order == 24:
        delta = 7 * n * q + 8 * m * (3 * q0 + 1) + 23 * n + tau_part
    elif k_order == 12:
        delta = 3 * n * q + 8 * m * (3 * q0 + 1) + 11 * n + tau_part
    elif k_order == 8:
        delta = 7 * n * (q + 1) + tau_part
    else:  # 4
        delta = 3 * n * (q + 1) + tau_part
    return make_record(params, h, k_order * n, delta)


def genus_n2_skew_full(params: CurveParams, i: int, w: int) -> GenusRecord:
    """Quotient by H_{i,w} = <s1, s2, s3, r*tau^(i*w)>, order 56*m/(7w).

    The genus does not depend on i; the descriptor keeps i for bookkeeping.
    """
    h = N2SkewFull(i, w)
    check_descriptor(params, h)
    q, m = params.q, params.m
    n = m // (7 * w)
    extra = 0 if n % 7 == 0 else 48 * m
    numerator = (q**3 + 1) * (q - n - 1) - 7 * n * (q + 1) - extra
    return make_record(params, h, 56 * n, params.ambient_degree - numerator)


def genus_n2_skew_cyclic(params: CurveParams, i: int, w: int) -> GenusRecord:
    """Quotient by H'_{i,w} = <r*tau^(i*w)>, cyclic of order 7*m/(7w)."""
    h = N2SkewCyclic(i, w)
    check_descriptor(params, h)
    q, m = params.q, params.m
    n = m // (7 * w)
    extra = 0 if n % 7 == 0 else 6 * m
    numerator = (q**3 + 1) * (q - n - 1) - extra
    return make_record(params, h, 7 * n, params.ambient_degree - numerator)
