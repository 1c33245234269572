"""Per-element ramification weights iota(omega) and element-order censuses.

iota(omega) is the total higher-ramification weight of an automorphism
omega = sigma * tau^k, summed over its fixed points; the different degree of
a quotient is the sum of iota over the non-identity elements of the
subgroup.  The weight depends only on the exact order of the Sz(q)/Ree(q)
part (plus, for order 3 in the Ree case, whether the element is central in
a Sylow 3-subgroup) and on whether tau^k hits one of the finitely many
special powers.

For sigma of order dividing m (the Singer-cycle case) the weight depends on
k itself: with the canonical choice of the generator tau, iota(sigma^A tau^B)
equals m exactly when B = A*q^d mod m for some d in {0..3} (Suzuki) or
{0..5} (Ree), and 0 otherwise; pure tau powers weigh q^2+1 resp. q^3+1.
That case is served by iota_sigma_element, not by the order-class tables.

An order class weighs sigma*tau^k the same for every k != 0 (mod m), so
the oracle's census sums read iota_ree and iota_suzuki only at k = 0 and
k = 1 and multiply by element counts.  A Singer-cycle weight does depend on
B, but only through whether B is one of the images A*q^d mod m, so the
oracle counts the B among singer_images, the set iota_sigma_element reads.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .curves import CurveParams, Family


class OrderClassSz(enum.Enum):
    TAU = "tau"  # sigma = id, k != 0
    ORDER2 = "order2"
    ORDER4 = "order4"
    DIVIDES_Q_MINUS_1 = "divides_q_minus_1"
    DIVIDES_Q_PLUS_2Q0_PLUS_1 = "divides_q_plus_2q0_plus_1"
    DIVIDES_Q_MINUS_2Q0_PLUS_1 = "divides_q_minus_2q0_plus_1"


class OrderClassRee(enum.Enum):
    TAU = "tau"
    ORDER3_CENTRAL = "order3_central"  # central in a Sylow 3-subgroup
    ORDER3_NONCENTRAL = "order3_noncentral"
    ORDER9 = "order9"
    ORDER2 = "order2"
    ORDER6 = "order6"
    DIVIDES_Q_MINUS_1_NOT_2 = "divides_q_minus_1_not_2"
    DIVIDES_Q_PLUS_1_NOT_2 = "divides_q_plus_1_not_2"
    DIVIDES_Q_PLUS_3Q0_PLUS_1 = "divides_q_plus_3q0_plus_1"
    DIVIDES_Q_MINUS_3Q0_PLUS_1 = "divides_q_minus_3q0_plus_1"


def iota_suzuki(params: CurveParams, order_class: OrderClassSz, k: int) -> int:
    """Weight of sigma*tau^k for the Suzuki family, k taken mod m."""
    if params.family is not Family.SUZUKI:
        raise ValueError("iota_suzuki needs Suzuki parameters")
    m, q, q0 = params.m, params.q, params.q0
    k %= m
    if order_class is OrderClassSz.TAU:
        if k == 0:
            raise ValueError("identity element has no ramification weight")
        return q**2 + 1
    if order_class is OrderClassSz.ORDER2:
        return m * (2 * q0 + 1) + 1 if k == 0 else 1
    if order_class is OrderClassSz.ORDER4:
        return m + 1 if k == 0 else 1
    if order_class is OrderClassSz.DIVIDES_Q_MINUS_1:
        return 2
    if order_class is OrderClassSz.DIVIDES_Q_PLUS_2Q0_PLUS_1:
        return 0
    # order dividing m: the weight depends on (A, B), not on the order alone
    raise ValueError("Singer-cycle elements must go through iota_sigma_element")


def iota_ree(params: CurveParams, order_class: OrderClassRee, k: int) -> int:
    """Weight of sigma*tau^k for the Ree family, k taken mod m."""
    if params.family is not Family.REE:
        raise ValueError("iota_ree needs Ree parameters")
    m, q, q0 = params.m, params.q, params.q0
    k %= m
    if order_class is OrderClassRee.TAU:
        if k == 0:
            raise ValueError("identity element has no ramification weight")
        return q**3 + 1
    if order_class is OrderClassRee.ORDER3_CENTRAL:
        return m * (q + 3 * q0 + 1) + 1 if k == 0 else 1
    if order_class is OrderClassRee.ORDER3_NONCENTRAL:
        return m * (3 * q0 + 1) + 1 if k == 0 else 1
    if order_class is OrderClassRee.ORDER9:
        return m + 1 if k == 0 else 1
    if order_class is OrderClassRee.ORDER2:
        return q + 1
    if order_class is OrderClassRee.ORDER6:
        return 1
    if order_class is OrderClassRee.DIVIDES_Q_MINUS_1_NOT_2:
        return 2
    if order_class is OrderClassRee.DIVIDES_Q_PLUS_1_NOT_2:
        return 0
    if order_class is OrderClassRee.DIVIDES_Q_PLUS_3Q0_PLUS_1:
        return 0
    raise ValueError("Singer-cycle elements must go through iota_sigma_element")


def iota_sigma_element(params: CurveParams, a_exp: int, b_exp: int) -> int:
    """Weight of sigma^A tau^B, with sigma the canonical Singer-cycle generator.

    A = 0: pure tau power, weight q^2+1 resp. q^3+1.  A != 0: weight m when
    B = A*q^d mod m for one of the d in {0..3} resp. {0..5}, else 0.
    """
    m = params.m
    a_exp %= m
    b_exp %= m
    if a_exp == 0 and b_exp == 0:
        raise ValueError("identity element has no ramification weight")
    if a_exp == 0:
        return params.tau_iota
    return m if b_exp in singer_images(params, a_exp) else 0


def singer_images(params: CurveParams, a_exp: int) -> set[int]:
    """The B in range(m) at which sigma^A tau^B (A != 0 mod m) weighs m: the
    A*q^d mod m."""
    return {(a_exp * qd) % params.m for qd in params.q_powers}


class OrderCensus(NamedTuple):
    """Element counts by exact order; order3_central tags the order-3 entries."""

    group_order: int
    counts: tuple[tuple[int, int], ...]  # (element order, count), ascending
    order3_central: bool | None = None


# Censuses of the Ree(3)-side groups used by the closed forms.  PSL(2,8) and
# the full N2 counts come with the theory; the smaller N2 subgroups (one
# conjugacy class each of orders 56, 24, 12, 8, 4) are pinned down by their
# delta formulas and re-derived from an explicit permutation realization of
# N2 in the oracle test suite.  Order-3 elements of PSL(2,8) are central in
# their (cyclic, order 9) Sylow 3-subgroups; those of N2 are not.
CENSUS_TABLE: dict[str, OrderCensus] = {
    "psl28": OrderCensus(504, ((1, 1), (2, 63), (3, 56), (7, 216), (9, 168)), True),
    "n2_168": OrderCensus(168, ((1, 1), (2, 7), (3, 56), (6, 56), (7, 48)), False),
    "n2_56": OrderCensus(56, ((1, 1), (2, 7), (7, 48))),
    "n2_24": OrderCensus(24, ((1, 1), (2, 7), (3, 8), (6, 8)), False),
    "n2_12": OrderCensus(12, ((1, 1), (2, 3), (3, 8)), False),
    "n2_8": OrderCensus(8, ((1, 1), (2, 7))),
    "n2_4": OrderCensus(4, ((1, 1), (2, 3))),
}
