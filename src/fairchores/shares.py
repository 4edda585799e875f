"""Closed-form worst-case and best-case MinMaxShare bounds, the monotone
guarantee, and the witness instances certifying that the bounds are tight.

``m=None`` everywhere means "number of objects unrestricted".  All values are
exact Fractions; a finite-m query must satisfy m >= ceil(1/alpha), otherwise
the class of normalised vectors with max entry alpha is empty and the query
is rejected.

Each bound's pieces are data: for every bracket k (see core._bracket_k) a
record lists the bound's pieces in the bracket, each with its start, its
value as an integer form in alpha = p/q, and its witness as two integers
(a, b): a objects at alpha, the remainder 1 - a*alpha split evenly over b
objects, and zeros up to m.  `_witness` builds that row already in lowest
terms, its gcd taken in closed form from the two values, with no pass over
the row's entries.  A share function finds alpha's bracket with
one integer division and takes from the bracket's record the piece that
holds alpha; `experiments.curve_samples` sweeps a grid over the same
records, building each bracket's once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    DisutilityVector,
    DomainError,
    Instance,
    _bracket_k,
    _guarantee_pieces,
    _i_start,
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


# The upper and lower bounds' records for bracket k (see core._bracket_k)
# list the bound's pieces in the bracket, the highest first.  A piece is the
# tuple (start_num, start_den, strict, tag, x, y, z, a, b): it begins at the
# start triple (start_num, start_den, strict) (see core._at_or_past) and
# ends where the piece above begins, or at the top 1/(kn+1), which it holds;
# the last piece begins at the bottom 1/((k+1)n+1), open.  Its value at
# alpha = p/q is (x*p + y*q)/(z*q), or the constant x/y when z is 0.  Its
# witness is a objects at alpha, a = None meaning (q - 1) // p, the most
# that leave a positive remainder, and b objects sharing that remainder.
# The guarantee's record is core._guarantee_pieces.

def _upper_pieces(n: int, k: int, m: Optional[int]) -> tuple[tuple, ...]:
    """The tight upper bound's record for bracket k: the single branch tree
    of the bound, which hill_share, witness_upper and curve_samples read."""
    if n == 2 and k == 1:
        # three-step piece on (1/5, 1/3]; m < 6 cuts it short
        if m == 3:  # feasibility forces alpha = 1/3
            return ((1, 5, 1, "two-agent-m3", 2, 3, 0, None, 1),)
        if m == 4:
            return ((1, 5, 1, "two-agent-m4", 2, 0, 1, None, 1),)
        low = (1, 5, 1, "two-agent-low", -3, 3, 4, 1, 4)
        if m == 5:
            return ((3, 11, 1, "two-agent-high", 2, 0, 1, 3, 1), low)
        return ((2, 7, 1, "two-agent-high", 2, 0, 1, 3, 1),
                (7, 27, 1, "two-agent-mid", 3, 2, 5, 1, 5), low)
    # I(n,k) above D(n,k); restricted m gives alpha-block on the I piece
    # and on a D piece too short for the balanced witness
    i_num, i_den, i_strict = _i_start(n, k)
    if m is None:
        i = (i_num, i_den, i_strict, "alpha-heavy", k + 1, 0, 1, k * n + 1, n - 1)
    else:
        i = (i_num, i_den, i_strict, "alpha-block", k + 1, 0, 1, None, 1)
    b = (k + 1) * n  # the balanced witness's objects besides alpha
    if m is None or m > b:
        d = (1, b + 1, 1, "one-heavy-balanced", -(k + 2), k + 2, b, 1, b)
    else:
        d = (1, b + 1, 1, "alpha-block", k + 1, 0, 1, None, 1)
    return i, d


def _lower_pieces(n: int, k: int, m: Optional[int]) -> tuple[tuple, ...]:
    """The best-case bound's record for bracket k.  Its own index
    j = floor(1/(n alpha)) is k above 1/((k+1)n) and k+1 at and below it.
    Strictly between 1/((j+1)n) and 1/(jn), jn objects sit at alpha and
    the remainder 1 - jn*alpha is spread over n objects, or over the
    r = m - jn that a shorter m leaves."""
    split = (k + 1) * n
    if k == 0:
        top = (1, split, 1, "singleton-cover", 1, 0, 1, None, 1)
    elif m is None or m >= split:
        top = (1, split, 1, "even-split-remainders", 1, n, 0, split - n, n)
    else:
        r = m - split + n
        top = (1, split, 1, "tight-remainders", k * (r - n), 1, r, split - n, r)
    if m is None or m >= split + n:
        bottom = (1, split + 1, 1, "even-split-remainders", 1, n, 0, split, n)
    else:
        r = m - split
        bottom = (1, split + 1, 1, "tight-remainders", (k + 1) * (r - n), 1, r, split, r)
    return top, (1, split, 0, "even-split", 1, n, 0, split - 1, 1), bottom


def _piece_at(pieces: tuple[tuple, ...], p: int, q: int) -> tuple[str, int, int, int, int]:
    """(construction tag, num, den, a, b) of the piece of a record that
    holds alpha = p/q: the bound's value is num/den, and the witness is a
    objects at alpha and b sharing the remainder (see _witness)."""
    for sn, sd, strict, tag, x, y, z, a, b in pieces:
        if p * sd - q * sn >= strict:
            if z:
                x, y = x * p + y * q, z * q
            return tag, x, y, (q - 1) // p if a is None else a, b
    raise AssertionError(f"{p}/{q} below the record's bracket")


def _upper_piece(n: int, p: int, q: int, m: Optional[int]) -> tuple[str, int, int, int, int]:
    """The tight upper bound's piece at alpha = p/q."""
    return _piece_at(_upper_pieces(n, _bracket_k(n, p, q), m), p, q)


def _lower_piece(n: int, p: int, q: int, m: Optional[int]) -> tuple[str, int, int, int, int]:
    """The best-case bound's piece at alpha = p/q."""
    return _piece_at(_lower_pieces(n, _bracket_k(n, p, q), m), p, q)


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
    model for all allocation instances".  The tests check it with alpha
    read as an upper bound on every bad: where the cover lies above Hill's
    share, the upper witness at a piece start beta* <= alpha of alpha's
    bracket has every entry at most alpha and exact MinMaxShare equal to
    the cover, so n agents who all hold that row cannot all pay less.  Read
    with alpha as the worst bad's exact size, the claim fails at n = 2:
    `allocate_two_agents_tight` meets Hill's share itself, which is often
    below the cover (tested on every profile of two small lattices).

    Defined for integer n >= 1 and alpha in [0, 1]; guarantee(n, 0) = 1/n is
    the common limit of both branch formulas (an all-zero row's cap), and
    guarantee(n, 1) = 1.  guarantee(1, alpha) = 1 as well, not as a case of
    its own: at n = 1 both pieces equal 1 (see _guarantee_piece).
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
    pair of the same ratio.  p = 0 gives (1, n) whatever q is, 0 included.

    n = 1 needs no case of its own: k = (q - p) // p gives (k+1)p <= q, so
    the NI piece is (k+2, k+2), and the IV piece is reached only when
    (k+1)p == q and is ((k+1)p, q); both are 1.
    """
    if p == 0:
        return 1, n
    sn, sd, strict, cn, cd, c = _guarantee_pieces(n, _bracket_k(n, p, q))
    return (c * p, q) if p * sd - q * sn >= strict else (cn, cd)


def _witness(n: int, alpha, m: Optional[int], piece) -> WitnessInstance:
    p, q = _validate(n, alpha, m)
    tag, num, den, a, b = piece(n, p, q, m)
    length = a + b if m is None else m
    if length > MAX_WITNESS_OBJECTS:
        raise DomainError(f"witness needs {length} objects, more than {MAX_WITNESS_OBJECTS}")
    assert a + b <= length, "construction larger than requested m"
    # over q*b the entries are p*b (a copies: alpha), r = q - a*p (b copies:
    # (1 - a*alpha)/b) and zeros; with a, b >= 1 that makes gcd(q*b, p*b, r)
    # the row's gcd, so the row is built reduced, with no pass over it
    r = q - a * p
    g = math.gcd(q * b, p * b, r)
    vec = DisutilityVector._of([p * b // g] * a + [r // g] * b + [0] * (length - a - b),
                               q * b // g, True)
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
