"""Exact numeric foundation: instances, allocations, ordering and
interval-region classification.

All quantities are `fractions.Fraction`; no share or region boundary is ever
decided in floating point.  A region is decided on integers: `_bracket` reads
alpha's numerator p and denominator q, and every bracket and split test is a
cross-multiplication of p and q, so no `Fraction` is built to classify.
Disutility profiles are normalised so that each agent's total is exactly 1
(rows whose original total is 0 are kept as flagged all-zero rows).  Values
stay `Fraction`s; every sum, sort and check of a row runs on its integer view
over one denominator, `DisutilityVector.scaled`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class ValidationError(ValueError):
    """Malformed input data (negative entries, ragged matrix, bad allocation)."""


class DomainError(ValueError):
    """A query outside the mathematical domain of a formula."""


def as_fraction(x) -> Fraction:
    """Convert ints, Fractions, floats and strings ('7/20', '0.35') exactly.

    A zero denominator ('1/0') is a ValueError, like any other malformed input.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        # floats are converted through their shortest repr so that "0.35"
        # round-trips to 7/20 rather than the binary expansion
        return Fraction(repr(x))
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


@dataclass(frozen=True)
class DisutilityVector:
    """One agent's additive disutilities over m objects.

    ``normalized`` is True when the entries sum to exactly 1; an all-zero
    row produced by normalising a zero-total agent carries False.
    """

    values: tuple[Fraction, ...]
    normalized: bool = False

    def __post_init__(self):
        ints, denom = self.scaled()
        if any(x < 0 for x in ints):
            raise ValidationError("negative disutility entry")
        if self.normalized and sum(ints) != denom:
            raise ValidationError("normalized vector must sum to exactly 1")

    def scaled(self) -> tuple[list[int], int]:
        """(ints, d) with d the least common denominator and values[j] == ints[j]/d."""
        denom = 1
        for d in {x.denominator for x in self.values}:
            denom = math.lcm(denom, d)
        return [x.numerator * (denom // x.denominator) for x in self.values], denom

    @property
    def m(self) -> int:
        return len(self.values)

    def alpha(self) -> Fraction:
        """Largest single-object disutility (0 for an empty/all-zero row)."""
        return max(self.values, default=Fraction(0))

    def total(self) -> Fraction:
        return self.value_of(range(self.m))

    def value_of(self, bundle: Iterable[int]) -> Fraction:
        ints, denom = self.scaled()
        return Fraction(sum(ints[e] for e in bundle), denom)


@dataclass(frozen=True)
class Instance:
    """n agents x m objects, rows normalised (or flagged all-zero)."""

    profile: tuple[DisutilityVector, ...]

    def __post_init__(self):
        if not self.profile:
            raise ValidationError("instance needs at least one agent")
        m = self.profile[0].m
        if any(v.m != m for v in self.profile):
            raise ValidationError("ragged disutility matrix")

    @property
    def n(self) -> int:
        return len(self.profile)

    @property
    def m(self) -> int:
        return self.profile[0].m


@dataclass(frozen=True)
class Allocation:
    """A partition of object indices [0, m) into n (possibly empty) bundles."""

    bundles: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return len(self.bundles)

    def validate(self, m: int) -> None:
        seen: set[int] = set()
        for b in self.bundles:
            if b & seen:
                raise ValidationError("bundles are not disjoint")
            seen |= b
        if seen != set(range(m)):
            raise ValidationError("bundles do not cover all objects exactly once")


@dataclass(frozen=True)
class RegionIndex:
    """Locates alpha in the D/I (tight-share) or NI/IV (guarantee) families."""

    k: int
    tag: str  # "D" | "I" | "NI" | "IV"


def normalize(raw: Sequence[Sequence]) -> Instance:
    """Build a normalised Instance from a matrix of nonnegative rationals.

    Each row is divided by its total; a zero-total row is kept all-zero and
    flagged via ``normalized=False``.
    """
    rows = [tuple(as_fraction(x) for x in r) for r in raw]
    if not rows:
        raise ValidationError("empty matrix")
    m = len(rows[0])
    if any(len(r) != m for r in rows):
        raise ValidationError("ragged matrix")
    profile = []
    for r in rows:
        row = DisutilityVector(r)
        ints, _ = row.scaled()
        total = sum(ints)
        if total:
            row = DisutilityVector(tuple(Fraction(x, total) for x in ints), normalized=True)
        profile.append(row)
    return Instance(tuple(profile))


def order_vector(v: DisutilityVector) -> tuple[DisutilityVector, tuple[int, ...]]:
    """Sort a vector non-increasingly; returns (sorted vector, permutation).

    ``perm[p]`` is the original index of the value at sorted position p.
    Ties keep original index order (stable).
    """
    perm = tuple(sorted(range(v.m), key=v.scaled()[0].__getitem__, reverse=True))
    ordered = DisutilityVector(tuple(v.values[j] for j in perm), v.normalized)
    return ordered, perm


def _bracket(n: int, alpha) -> tuple[int, int, int]:
    """(k, p, q) with alpha = p/q in the bracket (1/((k+1)n+1), 1/(kn+1)] that
    both interval families tile; rejects n < 2 and alpha outside (0, 1]."""
    alpha = as_fraction(alpha)
    if not isinstance(n, int) or n < 2:
        raise DomainError("need at least 2 agents")
    p, q = alpha.numerator, alpha.denominator
    if not 0 < p <= q:
        raise DomainError(f"alpha={alpha} outside (0, 1]")
    return (q - p) // (n * p), p, q


def classify_theorem1(n: int, alpha) -> RegionIndex:
    """Unique (k, D|I) region of the tight-share interval family.

    D(n,k) = (1/(kn+n+1), (k+2)/(n(k+1)^2+k+2)],
    I(n,k) = ((k+2)/(n(k+1)^2+k+2), 1/(kn+1)].
    """
    k, p, q = _bracket(n, alpha)
    return RegionIndex(k, "D" if p * (n * (k + 1) ** 2 + k + 2) <= q * (k + 2) else "I")


def classify_guarantee(n: int, alpha) -> RegionIndex:
    """Unique (k, NI|IV) region of the monotone-guarantee interval family.

    NI(n,k) = (1/((k+1)n+1), (k+2)/((k+1)((k+1)n+1))),
    IV(n,k) = [(k+2)/((k+1)((k+1)n+1)), 1/(kn+1)]  (closed on the left).
    """
    k, p, q = _bracket(n, alpha)
    return RegionIndex(k, "NI" if p * (k + 1) * ((k + 1) * n + 1) < q * (k + 2) else "IV")


def ceil_inv(alpha: Fraction) -> int:
    """Smallest feasible object count for a normalised vector with max alpha."""
    alpha = as_fraction(alpha)
    return -(-alpha.denominator // alpha.numerator)


# ---------------------------------------------------------------------------
# CSV interface: header `object_1,...,object_m`, one agent row per line,
# entries as decimal strings or p/q fractions.  Lines starting with '#' and
# blank lines are ignored.

def _check_cell_size(tok: str) -> None:
    """Reject an entry too long to print back under sys.get_int_max_str_digits().

    Its numerator and denominator have no more digits than the token has
    characters before the exponent, plus the exponent, so the check runs on
    the text, before a Fraction like 10**200000 is built.
    """
    limit = sys.get_int_max_str_digits()
    mantissa, _, exponent = tok.lower().partition("e")
    exponent = exponent.lstrip("+-").replace("_", "")
    digits = len(mantissa)
    if exponent.isdigit():
        digits += int(exponent) if len(exponent) <= len(str(limit)) else limit + 1
    if limit and digits > limit:
        raise ValueError(f"entry has more than {limit} digits")


def _row_printable(row: DisutilityVector) -> bool:
    """Whether every number printed for a normalised row fits the int-to-str limit.

    Its entries and bundle costs are at most 1 and have denominators dividing
    the row's common denominator, so bounding that bounds them all.
    """
    limit = sys.get_int_max_str_digits()
    _, denom = row.scaled()
    # below 8**limit it is short enough, so 10**limit is rarely built
    return not limit or denom.bit_length() <= 3 * limit or denom < 10 ** limit


def parse_instance_csv(text: str) -> Instance:
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), start=1)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValidationError("empty instance file")
    header = [h.strip() for h in lines[0][1].split(",")]
    m = len(header)
    if header != [f"object_{j}" for j in range(1, m + 1)]:
        raise ValidationError("bad header, expected object_1,...,object_m")
    rows = []
    for lineno, ln in lines[1:]:
        toks = [t.strip() for t in ln.split(",")]
        if len(toks) != m:
            raise ValidationError(f"line {lineno}: expected {m} entries, got {len(toks)}")
        try:
            for t in toks:
                _check_cell_size(t)
            row = [as_fraction(t) for t in toks]
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
        if any(x < 0 for x in row):
            raise ValidationError(f"line {lineno}: negative entry")
        rows.append(row)
    if not rows:
        raise ValidationError("instance file has a header but no agent rows")
    inst = normalize(rows)
    for (lineno, _), row in zip(lines[1:], inst.profile):
        if not _row_printable(row):
            raise ValidationError(f"line {lineno}: normalised row too long to print")
    return inst


def read_instance_csv(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance_csv(fh.read())


def format_decimal(x: Fraction, places: int = 12) -> str:
    """Exact fraction rendered to `places` decimals (round half up)."""
    q = Fraction(x)
    s = f"{math.floor(abs(q) * 10 ** places + Fraction(1, 2)):0{places + 1}d}"
    body = f"{s[:-places]}.{s[-places:]}".rstrip("0").rstrip(".")
    return ("-" if q < 0 else "") + body


def format_instance_csv(inst: Instance, comments: Sequence[str] = ()) -> str:
    out = [",".join(f"object_{j}" for j in range(1, inst.m + 1))]
    for row in inst.profile:
        out.append(",".join(str(x) for x in row.values))
    out.extend(f"# {c}" for c in comments)
    return "\n".join(out) + "\n"
