"""Closed-form worst-case and best-case MinMaxShare bounds, the monotone
guarantee, and the witness instances certifying that the bounds are tight.

``m=None`` everywhere means "number of objects unrestricted".  All values are
exact Fractions; a finite-m query must satisfy m >= ceil(1/alpha), otherwise
the class of normalised vectors with max entry alpha is empty and the query
is rejected.  Each piece of a bound gives its witness as two integers (a, b):
a objects at alpha, the remainder 1 - a*alpha split evenly over b objects,
and zeros up to m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    DisutilityVector,
    DomainError,
    Instance,
    _bracket_k,
    _in_d,
    _in_ni,
    _unit_alpha,
    as_fraction,
)

F = Fraction
MAX_WITNESS_OBJECTS = 10 ** 6  # longest witness vector built, zero padding included


@dataclass(frozen=True)
class WitnessInstance:
    """A unanimous single-agent profile whose exact MinMaxShare attains a bound."""

    instance: Instance
    claimed_mms: Fraction
    construction_tag: str

    @property
    def vector(self) -> DisutilityVector:
        return self.instance.profile[0]


def _validate(n: int, alpha, m: Optional[int]) -> tuple[int, int]:
    """(p, q) with alpha = p/q: the one conversion and every check of a share query."""
    alpha = as_fraction(alpha)
    if not isinstance(n, int) or n < 2:
        raise DomainError("need an integer agent count n >= 2")
    p, q = alpha.numerator, alpha.denominator
    if not 0 < p < q:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    if m is not None:
        if not isinstance(m, int):
            raise DomainError("m must be an integer or None (unrestricted)")
        c = -(-q // p)  # ceil(1/alpha)
        if m < c:
            raise DomainError(
                f"m={m} < ceil(1/alpha)={c}: no normalised "
                f"vector with max entry {alpha} exists on {m} objects"
            )
    return p, q


# Each piece below returns (construction tag, num, den, a, b) for alpha = p/q:
# the bound's value is num/den, and (q - 1) // p, the most objects at alpha
# that leave a positive remainder, is ceil(1/alpha) - 1.

def _upper_piece(n: int, p: int, q: int, m: Optional[int]) -> tuple[str, int, int, int, int]:
    """The tight upper bound's piece at alpha = p/q.

    The single branch tree of the bound: hill_share reads the value and
    witness_upper builds the vector from a and b (see _witness).
    """
    k = _bracket_k(n, p, q)
    if n == 2 and k == 1:
        # three-step piece on (1/5, 1/3]; m < 6 cuts it short
        if m == 3:  # feasibility forces alpha = 1/3
            return "two-agent-m3", 2, 3, (q - 1) // p, 1
        if m == 4:
            return "two-agent-m4", 2 * p, q, (q - 1) // p, 1
        low_num, low_den = (3, 11) if m == 5 else (7, 27)
        if p * low_den <= q * low_num:  # alpha <= 3/11 (m = 5) or 7/27
            return "two-agent-low", 3 * (q - p), 4 * q, 1, 4
        if m == 5 or 7 * p > 2 * q:  # alpha > 2/7
            return "two-agent-high", 2 * p, q, 3, 1
        return "two-agent-mid", 3 * p + 2 * q, 5 * q, 1, 5
    in_d = _in_d(n, k, p, q)
    if in_d and (m is None or m >= k * n + n + 1):
        return "one-heavy-balanced", (k + 2) * (q - p), (k + 1) * n * q, 1, n * (k + 1)
    # restricted-m D branch and every I branch
    if not in_d and m is None:
        return "alpha-heavy", (k + 1) * p, q, k * n + 1, n - 1
    return "alpha-block", (k + 1) * p, q, (q - 1) // p, 1


def _lower_piece(n: int, p: int, q: int, m: Optional[int]) -> tuple[str, int, int, int, int]:
    """The best-case bound's piece at alpha = p/q; k = floor(1/(n alpha))."""
    if n * p > q:
        return "singleton-cover", p, q, (q - 1) // p, 1
    k = q // (n * p)
    if k * n * p == q:
        return "even-split", 1, n, k * n - 1, 1
    # 1/((k+1)n) < alpha < 1/(kn)
    if m is None or m >= k * n + n:
        return "even-split-remainders", 1, n, k * n, n
    r = m - k * n  # objects sharing the remainder 1 - kn*alpha
    return "tight-remainders", k * p * r + q - k * n * p, q * r, k * n, r


def hill_share(n: int, alpha, m: Optional[int] = None) -> Fraction:
    """Tight upper bound on MMS_n over normalised vectors with max entry alpha.

    m=None gives the unrestricted-m value (the maximum over all feasible m).
    """
    p, q = _validate(n, alpha, m)
    _, num, den, _, _ = _upper_piece(n, p, q, m)
    return F(num, den)


def mms_lower_bound(n: int, alpha, m: Optional[int] = None) -> Fraction:
    """Minimum MMS_n over normalised vectors with max entry alpha (exact)."""
    p, q = _validate(n, alpha, m)
    _, num, den, _, _ = _lower_piece(n, p, q, m)
    return F(num, den)


def guarantee(n: int, alpha) -> Fraction:
    """Monotone cover of the unrestricted tight share (Hill's share).

    `allocate` gives every agent a cost of at most this cap.  The paper
    claims the cover is "the best guarantee that can be achieved in Hill's
    model for all allocation instances"; no code here checks that.  At
    n = 2, `allocate_two_agents_tight` meets Hill's share itself, which is
    often below the cover (tested on every profile of two small lattices).

    Defined for integer n >= 1 and alpha in [0, 1]; guarantee(n, 0) = 1/n is
    the common limit of both branch formulas (an all-zero row's cap), and
    guarantee(1, alpha) = guarantee(n, 1) = 1.
    """
    alpha = as_fraction(alpha)
    if not isinstance(n, int) or n < 1:
        raise DomainError("need an integer agent count n >= 1")
    p, q = alpha.numerator, alpha.denominator
    if not 0 <= p <= q:
        raise DomainError(f"alpha={alpha} outside [0, 1]")
    return F(*_guarantee_piece(n, p, q))


def _guarantee_piece(n: int, p: int, q: int) -> tuple[int, int]:
    """guarantee(n, p/q) as (num, den), for n >= 1 and 0 <= p <= q, p/q in
    any terms: the pieces are homogeneous in (p, q), so (c*p, c*q) gives a
    pair of the same ratio.  p = 0 gives (1, n) whatever q is, 0 included."""
    if n == 1:
        return 1, 1
    if p == 0:
        return 1, n
    k = _bracket_k(n, p, q)
    if _in_ni(n, k, p, q):
        return k + 2, (k + 1) * n + 1
    return (k + 1) * p, q


def _witness(n: int, alpha, m: Optional[int], piece) -> WitnessInstance:
    p, q = _validate(n, alpha, m)
    tag, num, den, a, b = piece(n, p, q, m)
    length = a + b if m is None else m
    if length > MAX_WITNESS_OBJECTS:
        raise DomainError(f"witness needs {length} objects, more than {MAX_WITNESS_OBJECTS}")
    # over q*b: a entries alpha = p*b/(q*b), b entries (1 - a*alpha)/b
    ints = [p * b] * a + [q - a * p] * b
    if m is not None:
        pad = m - len(ints)
        assert pad >= 0, "construction larger than requested m"
        ints += [0] * pad
    vec = DisutilityVector._of_view(ints, q * b, normalized=True)
    assert max(vec.ints) * q == p * vec.denom  # vec.alpha() == p/q
    return WitnessInstance(Instance((vec,)), F(num, den), tag)


def witness_upper(n: int, alpha, m: Optional[int] = None) -> WitnessInstance:
    """Worst-case vector whose exact MinMaxShare equals hill_share(n, alpha, m)."""
    return _witness(n, alpha, m, _upper_piece)


def witness_lower(n: int, alpha, m: Optional[int] = None) -> WitnessInstance:
    """Best-case vector whose exact MinMaxShare equals mms_lower_bound(n, alpha, m)."""
    return _witness(n, alpha, m, _lower_piece)


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
    p, q = _unit_alpha(alpha)
    return -(-2 * q // p) - 1
