"""Closed-form worst-case and best-case MinMaxShare bounds, the monotone
guarantee, and the witness instances certifying that the bounds are tight.

``m=None`` everywhere means "number of objects unrestricted".  All values are
exact Fractions; a finite-m query must satisfy m >= ceil(1/alpha), otherwise
the class of normalised vectors with max entry alpha is empty and the query
is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    DisutilityVector,
    DomainError,
    Instance,
    as_fraction,
    ceil_inv,
    classify_guarantee,
    classify_theorem1,
)

F = Fraction


@dataclass(frozen=True)
class WitnessInstance:
    """A unanimous single-agent profile whose exact MinMaxShare attains a bound."""

    instance: Instance
    claimed_mms: Fraction
    construction_tag: str

    @property
    def vector(self) -> DisutilityVector:
        return self.instance.profile[0]


def _validate(n: int, alpha: Fraction, m: Optional[int]) -> None:
    if not isinstance(n, int) or n < 2:
        raise DomainError("need an integer agent count n >= 2")
    if not 0 < alpha < 1:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    if m is not None:
        if not isinstance(m, int):
            raise DomainError("m must be an integer or None (unrestricted)")
        if m < ceil_inv(alpha):
            raise DomainError(
                f"m={m} < ceil(1/alpha)={ceil_inv(alpha)}: no normalised "
                f"vector with max entry {alpha} exists on {m} objects"
            )


def _upper_piece(n: int, alpha: Fraction, m: Optional[int]) -> tuple[str, int, Fraction]:
    """(construction tag, bracket k, value) of the tight upper bound.

    The single branch tree of the bound: hill_share reads the value and
    witness_upper builds the vector that the tag names.
    """
    reg = classify_theorem1(n, alpha)
    k = reg.k
    if n == 2 and k == 1:
        # three-step piece on (1/5, 1/3]; m < 6 cuts it short
        if m == 3:  # feasibility forces alpha = 1/3
            return "two-agent-m3", k, F(2, 3)
        if m == 4:
            return "two-agent-m4", k, 2 * alpha
        if alpha <= (F(3, 11) if m == 5 else F(7, 27)):
            return "two-agent-low", k, F(3, 4) * (1 - alpha)
        if m == 5 or alpha > F(2, 7):
            return "two-agent-high", k, 2 * alpha
        return "two-agent-mid", k, alpha + F(2, 5) * (1 - alpha)
    if reg.tag == "D" and (m is None or m >= k * n + n + 1):
        return "one-heavy-balanced", k, F(k + 2, k + 1) * (1 - alpha) / n
    # restricted-m D branch and every I branch
    tag = "alpha-heavy" if reg.tag == "I" and m is None else "alpha-block"
    return tag, k, (k + 1) * alpha


def _lower_piece(n: int, alpha: Fraction, m: Optional[int]) -> tuple[str, int, Fraction]:
    """(construction tag, k = floor(1/(n alpha)), value) of the best-case bound."""
    p, q = alpha.numerator, alpha.denominator
    if n * p > q:
        return "singleton-cover", 0, alpha
    k = q // (n * p)
    if k * n * p == q:
        return "even-split", k, F(1, n)
    # 1/((k+1)n) < alpha < 1/(kn)
    if m is None or m >= k * n + n:
        return "even-split-remainders", k, F(1, n)
    return "tight-remainders", k, k * alpha + (1 - k * n * alpha) / (m - k * n)


def hill_share(n: int, alpha, m: Optional[int] = None) -> Fraction:
    """Tight upper bound on MMS_n over normalised vectors with max entry alpha.

    m=None gives the unrestricted-m value (the maximum over all feasible m).
    """
    alpha = as_fraction(alpha)
    _validate(n, alpha, m)
    return _upper_piece(n, alpha, m)[2]


def mms_lower_bound(n: int, alpha, m: Optional[int] = None) -> Fraction:
    """Minimum MMS_n over normalised vectors with max entry alpha (exact)."""
    alpha = as_fraction(alpha)
    _validate(n, alpha, m)
    return _lower_piece(n, alpha, m)[2]


def guarantee(n: int, alpha) -> Fraction:
    """Monotone cover of the unrestricted tight share: the best per-agent cap.

    Defined for integer n >= 1 and alpha in [0, 1]; guarantee(n, 0) = 1/n is
    the common limit of both branch formulas (needed when recursion
    renormalises an agent to an all-zero row), and guarantee(n, 1) = 1.
    """
    alpha = as_fraction(alpha)
    if not isinstance(n, int) or n < 1:
        raise DomainError("need an integer agent count n >= 1")
    if not 0 <= alpha <= 1:
        raise DomainError(f"alpha={alpha} outside [0, 1]")
    if n == 1:
        return F(1)
    if alpha == 0:
        return F(1, n)
    reg = classify_guarantee(n, alpha)
    if reg.tag == "NI":
        return F(reg.k + 2, (reg.k + 1) * n + 1)
    return (reg.k + 1) * alpha


def _witness(values: list[Fraction], alpha: Fraction, m: Optional[int],
             claimed: Fraction, tag: str) -> WitnessInstance:
    if m is not None:
        pad = m - len(values)
        assert pad >= 0, "construction larger than requested m"
        values = values + [F(0)] * pad
    assert max(values) == alpha
    vec = DisutilityVector(tuple(values), normalized=True)
    inst = Instance((vec,))
    return WitnessInstance(inst, claimed, tag)


def _alpha_block(alpha: Fraction) -> list[Fraction]:
    # ceil(1/alpha)-1 objects at alpha plus one remainder in (0, alpha]
    c = ceil_inv(alpha)
    return [alpha] * (c - 1) + [1 - (c - 1) * alpha]


def witness_upper(n: int, alpha, m: Optional[int] = None) -> WitnessInstance:
    """Worst-case vector whose exact MinMaxShare equals hill_share(n, alpha, m)."""
    alpha = as_fraction(alpha)
    _validate(n, alpha, m)
    tag, k, claimed = _upper_piece(n, alpha, m)
    if tag in ("two-agent-m3", "two-agent-m4", "alpha-block"):
        vals = _alpha_block(alpha)
    elif tag == "two-agent-low":
        vals = [alpha] + [(1 - alpha) / 4] * 4
    elif tag == "two-agent-mid":
        vals = [alpha] + [(1 - alpha) / 5] * 5
    elif tag == "two-agent-high":
        vals = [alpha] * 3 + [1 - 3 * alpha]
    elif tag == "one-heavy-balanced":
        q = n * (k + 1)
        vals = [alpha] + [(1 - alpha) / q] * q
    else:  # alpha-heavy
        vals = [alpha] * (k * n + 1) + [(1 - (k * n + 1) * alpha) / (n - 1)] * (n - 1)
    return _witness(vals, alpha, m, claimed, tag)


def witness_lower(n: int, alpha, m: Optional[int] = None) -> WitnessInstance:
    """Best-case vector whose exact MinMaxShare equals mms_lower_bound(n, alpha, m)."""
    alpha = as_fraction(alpha)
    _validate(n, alpha, m)
    tag, k, claimed = _lower_piece(n, alpha, m)
    if tag in ("singleton-cover", "even-split"):
        vals = _alpha_block(alpha)
    elif tag == "even-split-remainders":
        vals = [alpha] * (k * n) + [F(1, n) - k * alpha] * n
    else:  # tight-remainders
        vals = [alpha] * (k * n) + [(1 - k * n * alpha) / (m - k * n)] * (m - k * n)
    return _witness(vals, alpha, m, claimed, tag)


def theoretical_ratio(n: int, alpha, m: Optional[int] = None) -> Fraction:
    """Worst-case over best-case MinMaxShare ratio; bounded by 2n/(n+1)."""
    return hill_share(n, alpha, m) / mms_lower_bound(n, alpha, m)


def ratio_ceiling(n: int) -> Fraction:
    """Upper bound 2n/(n+1) on theoretical_ratio for every alpha and m."""
    return F(2 * n, n + 1)


def high_ratio_ranges(n: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Open alpha-intervals outside of which theoretical_ratio <= 4/3."""
    if n < 3:
        return ()
    if n == 3:
        return ((F(2, 9), F(1, 3)),)
    if n == 4:
        return ((F(1, 6), F(3, 11)),)
    if n == 5:
        return ((F(4, 45), F(1, 9)), (F(2, 15), F(3, 13)))
    return ((F(4, 9 * n), F(3, 2 * n + 3)),)


def natural_object_count(alpha) -> int:
    """Object count past which the worst-case share is constant: ceil(2/alpha)-1."""
    alpha = as_fraction(alpha)
    return -(-2 * alpha.denominator // alpha.numerator) - 1
