"""Fixed-income analytics: present-value bond pricing and rating-adjusted
price curves.

Everything here is real-valued and side-effect free; ledger money never
passes through this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

TOP_RATING = 5


def price(coupon: float, rate: float, face: float, periods: int) -> float:
    """Theoretical price of a bond paying a fixed coupon each period and the
    face value at maturity.

    Parameters
    ----------
    coupon : float
        Payment per period, in currency units.
    rate : float
        Discount rate per period, as a fraction.  Must be > -1.  A rate of
        exactly 0 prices as the undiscounted sum ``coupon * periods + face``.
    face : float
        Amount repaid at maturity.
    periods : int
        Number of whole periods until maturity (>= 0).

    Returns
    -------
    float
        Present value of all remaining cash flows.
    """
    if rate <= -1:
        raise ValueError("rate must be greater than -1")
    if periods < 0:
        raise ValueError("periods must be non-negative")
    if rate == 0:
        return coupon * periods + face
    discount = (1 + rate) ** -periods
    return coupon * (1 - discount) / rate + face * discount


def penalty(rating: int) -> Tuple[int, int]:
    """The coupon's scale for a rating, (numerator, denominator): 10% compounded per star below 5."""
    if not 1 <= rating <= TOP_RATING:
        raise ValueError(f"rating must be between 1 and {TOP_RATING}")
    k = TOP_RATING - rating
    return 11**k, 10**k


def penalty_multiplier(rating: int) -> float:
    """Coupon scale factor for a rating (see `penalty`)."""
    scale, base = penalty(rating)
    return scale / base


def rated_price(coupon_base: float, rating: int, rate: float, face: float, periods: int) -> float:
    """Price with the coupon scaled up by the rating penalty.

    A rating of 5 leaves the coupon untouched, so ``rated_price(c, 5, ...)``
    is bit-identical to ``price(c, ...)``; a zero coupon is unaffected by the
    rating entirely.
    """
    return price(coupon_base * penalty_multiplier(rating), rate, face, periods)


@dataclass(frozen=True)
class CurveRow:
    rating: int
    sweep_value: float
    price: float


SWEEP_PERIODS = "T"
SWEEP_COUPON_RATE = "coupon_rate"


def curve(
    sweep_variable: str,
    values: Sequence[float],
    *,
    face: float,
    rate: float,
    coupon_rate: float = 0.05,
    periods: int = 10,
) -> List[CurveRow]:
    """Price table over ratings 1..5 crossed with a swept parameter.

    ``sweep_variable`` selects what `values` ranges over: ``"T"`` sweeps the
    number of periods (with `coupon_rate` fixed), ``"coupon_rate"`` sweeps
    the per-period coupon as a fraction of face (with `periods` fixed).
    Rows are ordered rating-major, then in the given value order.  A
    non-finite input raises `ValueError`, a price that overflows to a
    non-finite one `OverflowError`.
    """
    if not values:
        raise ValueError("sweep values must be non-empty")
    if sweep_variable not in (SWEEP_PERIODS, SWEEP_COUPON_RATE):
        raise ValueError(f"unknown sweep variable: {sweep_variable}")
    if not all(map(math.isfinite, (face, rate, coupon_rate, *values))):
        raise ValueError("face, rate, coupon rate and sweep values must be finite numbers")
    rows: List[CurveRow] = []
    for rating in range(1, TOP_RATING + 1):
        for value in values:
            if sweep_variable == SWEEP_PERIODS:
                p = rated_price(coupon_rate * face, rating, rate, face, int(value))
            else:
                p = rated_price(float(value) * face, rating, rate, face, periods)
            if not math.isfinite(p):
                raise OverflowError(f"price is not finite at rating {rating}, {sweep_variable}={value!r}")
            rows.append(CurveRow(rating, value, p))
    return rows
