"""Closed-form genera of Suzuki-family quotient curves.

Two subgroup families are handled: subgroups of the Singer-cycle square
Sigma_- x C_m (by standard exponents) and the cyclic/dihedral subgroups
C_d x C_n, D_d x C_n of B0 x C_m with d | q-1 and n | m.  genus_b0_cyclic
and genus_b0_dihedral take (params, d, n) and check their descriptor with
catalog.check_descriptor first.  The B0 closed forms give the numerator
2|H|(g-1) = ambient_degree - delta, and make_record checks that 2|H|
divides it.
"""

from __future__ import annotations

from . import singer
from .catalog import B0Cyclic, B0Dihedral, GenusRecord, SigmaCm, check_descriptor, make_record
from .curves import CurveParams, Family


def genus_sigma_cm_suzuki(params: CurveParams, se: SigmaCm) -> GenusRecord:
    """Quotient by the subgroup of Sigma_- x C_m with standard exponents se."""
    # sigma-cm is a kind of both families: check_descriptor takes any curve
    if params.family is not Family.SUZUKI:
        raise ValueError(f"need Suzuki parameters, got {params.family.value}")
    return singer.sigma_cm_record(params, se)


def genus_b0_cyclic(params: CurveParams, d: int, n: int) -> GenusRecord:
    """Quotient by C_d x C_n, order d*n."""
    h = B0Cyclic(d, n)
    check_descriptor(params, h)
    q = params.q
    numerator = (q**2 + 1) * (q - n - 1) - 2 * (d - 1) * n
    return make_record(params, h, d * n, params.ambient_degree - numerator)


def genus_b0_dihedral(params: CurveParams, d: int, n: int) -> GenusRecord:
    """Quotient by D_d x C_n, order 2*d*n (D_1 is the order-2 group)."""
    h = B0Dihedral(d, n)
    check_descriptor(params, h)
    q, q0, m = params.q, params.q0, params.m
    numerator = (q**2 + 1) * (q - n - 1) - d * m * (2 * q0 + 1) - 3 * d * n + 2 * n
    return make_record(params, h, 2 * d * n, params.ambient_degree - numerator)
