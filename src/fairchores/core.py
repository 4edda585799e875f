"""Exact numeric foundation: instances, allocations, ordering and
interval-region classification.

All quantities are `fractions.Fraction`; no share or region boundary is ever
decided in floating point.  A region is decided on integers: `_bracket` reads
alpha's numerator p and denominator q, and every bracket and split test is a
cross-multiplication of p and q, so no `Fraction` is built to classify.  The
D/I split (`_i_start`) and the guarantee's per-bracket record
(`_guarantee_pieces`, which holds the NI/IV split) are defined here once;
the classifiers and the share functions both read them.
Disutility profiles are normalised so that each agent's total is exactly 1
(rows whose original total is 0 are kept as flagged all-zero rows).  A row
is stored as integers over its least common denominator
(`DisutilityVector.ints`, `.denom`); every sum, max, sort and check of a row
runs on them, and its `Fraction` entries are built only when read.  Numbers
are read by one rule, `_ratio`: ASCII text `digits`, `digits/digits`,
`digits.digits` or `.digits` (the forms instance files use) is read with
int() and one gcd, and every other form through `Fraction`, so a row is
built from its cells with no `Fraction` per cell.  An instance file reads
each distinct cell text once (`parse_instance_csv`), and a row is built
from its integer pairs and normalised in one step (`_fill_pairs`).
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


def _check_cell_size(tok: str) -> None:
    """Reject an entry too long to print back under sys.get_int_max_str_digits().

    Its numerator and denominator have no more digits than the token has
    characters before the exponent, plus the exponent, so the check runs on
    the text, before a Fraction like 10**200000 is built.  Fraction ignores
    surrounding whitespace, so the check does too.
    """
    limit = sys.get_int_max_str_digits()
    mantissa, _, exponent = tok.strip().lower().partition("e")
    exponent = exponent.lstrip("+-").replace("_", "")
    digits = len(mantissa)
    if exponent.isdigit():
        digits += int(exponent) if len(exponent) <= len(str(limit)) else limit + 1
    if limit and digits > limit:
        raise ValueError(f"entry has more than {limit} digits")


def _ratio(x) -> tuple[int, int]:
    """x in lowest terms as (numerator, denominator), exactly as `as_fraction`
    reads it.

    Fractions and ints give their own fields.  ASCII text of the forms
    `digits`, `digits/digits`, `digits.digits` and `.digits` no longer than
    sys.get_int_max_str_digits() is read with int() and one gcd, with no
    Fraction built; the length test is `_check_cell_size`'s rule for such
    text.  Any other input (floats, signs, whitespace, exponents,
    underscores, other digits, a zero denominator, longer text) goes through
    `Fraction`, with its errors.
    """
    # text first: isinstance(x, Fraction) on a str is a slow ABC check
    if type(x) is str and x.isascii():
        limit = sys.get_int_max_str_digits()
        if len(x) <= limit or not limit:
            num, slash, den = x.partition("/")
            if not slash:
                # digits, digits. or [digits].digits: all digits over 10**len(frac)
                num, _, frac = x.partition(".")
                num, den = num + frac, "1" + "0" * len(frac)
            if num.isdigit() and den.isdigit() and (b := int(den)):
                a = int(num)
                g = math.gcd(a, b)
                return (a, b) if g == 1 else (a // g, b // g)
    elif isinstance(x, Fraction):
        return x.numerator, x.denominator
    elif type(x) is int:
        return x, 1
    # any other input, and text off the integer path, as Fraction reads it
    if isinstance(x, float):
        # floats are converted through their shortest repr so that "0.35"
        # round-trips to 7/20 rather than the binary expansion
        q = Fraction(repr(x))
    else:
        if isinstance(x, str):
            _check_cell_size(x)
        try:
            q = Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    return q.numerator, q.denominator


def as_fraction(x) -> Fraction:
    """Convert ints, Fractions, floats and strings ('7/20', '0.35') exactly.

    Text too long to print back (`_check_cell_size`) and a zero denominator
    ('1/0') are ValueErrors, like any other malformed input.  A Fraction is
    returned as it is; anything else is read by `_ratio`.
    """
    if isinstance(x, Fraction):
        return x
    return Fraction(*_ratio(x))


@dataclass(frozen=True, init=False)
class DisutilityVector:
    """One agent's additive disutilities over m objects, stored as integers.

    Entry j is ``ints[j] / denom``, with ``denom`` the least common
    denominator of the entries, so equal rows have equal fields.  Every
    constructor leaves a row in lowest terms: this one, `_of_view`,
    `order_vector` and `shares._witness`, which reduces its two-valued row
    in closed form.  The constructor reads each entry as `as_fraction`
    does, through `_ratio`: Fractions, ints and plain ASCII text (`7`,
    `7/20`, `0.35`, `.35`) as integer pairs, with no Fraction built.  The
    constructor, `normalize` and `parse_instance_csv` all build a row from
    such pairs with `_fill_pairs`, which also normalises it, so a row is
    filled and validated once.
    ``normalized`` is True when the entries sum to exactly 1; an all-zero
    row produced by normalising a zero-total agent carries False.
    """

    ints: tuple[int, ...]
    denom: int
    normalized: bool

    def __init__(self, values: Iterable, normalized: bool = False):
        self._fill_pairs([_ratio(x) for x in values], normalized)

    # tuple([...]), not tuple(generator): a tuple built from an iterator of
    # unknown length is resized, which fills CPython's per-size free lists
    def _fill_pairs(self, pairs: list[tuple[int, int]], normalized: bool,
                    normalize: bool = False) -> None:
        """Fill the row from (numerator, denominator) pairs over their least
        common denominator.  With ``normalize`` the row is divided by its
        total in the same step (one gcd pass) and flagged normalized; a
        zero-total row is kept as it is.  One `_fill`, so one validation."""
        denom = math.lcm(*{d for _, d in pairs})
        ints = [a * (denom // d) for a, d in pairs]
        if normalize and (total := sum(ints)):
            g = math.gcd(total, *ints)
            if g != 1:
                ints = [x // g for x in ints]
            denom, normalized = total // g, True
        self._fill(tuple(ints), denom, normalized)

    @classmethod
    def _of_view(cls, ints: Sequence[int], denom: int, normalized: bool) -> DisutilityVector:
        """The row ``ints[j] / denom``, reduced by one gcd pass."""
        g = math.gcd(denom, *ints)
        row = cls.__new__(cls)
        row._fill(tuple([x // g for x in ints]), denom // g, normalized)
        return row

    def _fill(self, ints: tuple[int, ...], denom: int, normalized: bool) -> None:
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "normalized", normalized)
        self.__post_init__()

    def __post_init__(self):
        if min(self.ints, default=0) < 0:
            raise ValidationError("negative disutility entry")
        if self.normalized and sum(self.ints) != self.denom:
            raise ValidationError("normalized vector must sum to exactly 1")

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The entries as Fractions, one built per distinct entry."""
        fracs = {x: Fraction(x, self.denom) for x in set(self.ints)}
        return tuple([fracs[x] for x in self.ints])

    def scaled(self) -> tuple[list[int], int]:
        """(ints, d) with d the least common denominator and values[j] == ints[j]/d."""
        return list(self.ints), self.denom

    @property
    def m(self) -> int:
        return len(self.ints)

    def alpha(self) -> Fraction:
        """Largest single-object disutility (0 if all zero)."""
        return Fraction(max(self.ints, default=0), self.denom)

    def total(self) -> Fraction:
        return Fraction(sum(self.ints), self.denom)

    def value_of(self, bundle: Iterable[int]) -> Fraction:
        return Fraction(sum(self.ints[e] for e in bundle), self.denom)


@dataclass(frozen=True)
class Instance:
    """n agents x m objects, rows normalised (or flagged all-zero)."""

    profile: tuple[DisutilityVector, ...]

    def __post_init__(self):
        if not self.profile:
            raise ValidationError("instance needs at least one agent")
        m = len(self.profile[0].ints)
        for v in self.profile:
            if len(v.ints) != m:
                raise ValidationError("ragged disutility matrix")

    @property
    def n(self) -> int:
        return len(self.profile)

    @property
    def m(self) -> int:
        return self.profile[0].m


class _Lazy:
    """Base of a dataclass whose costly fields are built on first read.

    An instance made by `_lazy(given, build, *args)` holds the fields in the
    dict ``given`` and ``(build, args)``.  The first read of any other field
    calls ``build(*args)``, which returns the dict of the fields left, and
    keeps them; no build state survives it.  Before and after that read,
    ``==``, ``hash``, ``repr``, `dataclasses.asdict`/`replace`, copying and
    pickling are those of the instance built with every field given, and
    any name that is not a field raises the standard AttributeError.
    """

    @classmethod
    def _lazy(cls, given: dict, build, *args):
        obj = cls.__new__(cls)
        held = obj.__dict__
        held.update(given)
        held["_build"] = build, args
        return obj

    def __getattr__(self, name):
        # reached only for a name the instance does not hold: a lazy field
        # before the first read, or a missing name
        held = self.__dict__
        if "_build" not in held or name not in self.__dataclass_fields__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        build, args = held["_build"]
        held.update(build(*args))
        del held["_build"]
        return held[name]


@dataclass(frozen=True)
class Allocation(_Lazy):
    """A partition of object indices [0, m) into n (possibly empty) bundles.

    `minmax_partition` makes its allocation lazy (`_Lazy`): the bundles are
    built on their first read, so a caller that reads only the value builds
    none.
    """

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
    return Instance(tuple([_normalized([_ratio(x) for x in r]) for r in raw]))


def _normalized(pairs: list[tuple[int, int]]) -> DisutilityVector:
    """The row of (numerator, denominator) pairs divided by its total; a
    zero-total row is kept as it is, flagged ``normalized=False``."""
    row = DisutilityVector.__new__(DisutilityVector)
    row._fill_pairs(pairs, False, normalize=True)
    return row


def order_vector(v: DisutilityVector) -> tuple[DisutilityVector, tuple[int, ...]]:
    """Sort a vector non-increasingly; returns (sorted vector, permutation).

    ``perm[p]`` is the original index of the value at sorted position p.
    Ties keep original index order (stable).  Every constructor leaves a row
    in lowest terms, and a permutation keeps them, so the sorted row takes
    ``v.denom`` as it is, with no gcd pass; `_fill` still validates it.
    """
    ints = v.ints
    perm = tuple(sorted(range(v.m), key=ints.__getitem__, reverse=True))
    ordered = DisutilityVector.__new__(DisutilityVector)
    ordered._fill(tuple([ints[j] for j in perm]), v.denom, v.normalized)
    return ordered, perm


def _unit_alpha(alpha) -> tuple[int, int]:
    """(p, q) with alpha = p/q; rejects alpha outside (0, 1]."""
    alpha = as_fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    if not 0 < p <= q:
        raise DomainError(f"alpha={alpha} outside (0, 1]")
    return p, q


def _bracket_k(n: int, p: int, q: int) -> int:
    """k with p/q in the bracket (1/((k+1)n+1), 1/(kn+1)] that both interval
    families tile; needs n >= 1 and 0 < p <= q."""
    return (q - p) // (n * p)


def _bracket(n: int, alpha) -> tuple[int, int, int]:
    """(k, p, q) with alpha = p/q in bracket k (see _bracket_k); rejects n < 2
    and alpha outside (0, 1]."""
    if not isinstance(n, int) or n < 2:
        raise DomainError("need at least 2 agents")
    p, q = _unit_alpha(alpha)
    return _bracket_k(n, p, q), p, q


def _i_start(n: int, k: int) -> tuple[int, int, int]:
    """Where I(n,k) starts, as a start triple (see _at_or_past): just above
    (k+2)/(n(k+1)^2+k+2), the right end of D(n,k), which D holds."""
    return k + 2, n * (k + 1) ** 2 + k + 2, 1


def _guarantee_pieces(n: int, k: int) -> tuple[int, int, int, int, int, int]:
    """The guarantee's record for bracket k, (num, den, strict, c_num,
    c_den, c): IV(n,k) begins at the start triple (num, den, strict), at
    (k+2)/((k+1)((k+1)n+1)), which it holds, and its value is c*alpha;
    NI(n,k) lies below it, with the constant value c_num/c_den.  A flat
    record, since the moving knife reads it once per agent per level."""
    b = (k + 1) * n + 1
    return k + 2, (k + 1) * b, 0, k + 2, b, k + 1


def _at_or_past(p: int, q: int, start: tuple[int, int, int]) -> bool:
    """Whether p/q lies in the piece that begins at the start triple
    (num, den, strict): past num/den, or at it too when strict is 0."""
    num, den, strict = start
    return p * den - q * num >= strict


def classify_theorem1(n: int, alpha) -> RegionIndex:
    """Unique (k, D|I) region of the tight-share interval family.

    D(n,k) = (1/(kn+n+1), (k+2)/(n(k+1)^2+k+2)],
    I(n,k) = ((k+2)/(n(k+1)^2+k+2), 1/(kn+1)].
    """
    k, p, q = _bracket(n, alpha)
    return RegionIndex(k, "I" if _at_or_past(p, q, _i_start(n, k)) else "D")


def classify_guarantee(n: int, alpha) -> RegionIndex:
    """Unique (k, NI|IV) region of the monotone-guarantee interval family.

    NI(n,k) = (1/((k+1)n+1), (k+2)/((k+1)((k+1)n+1))),
    IV(n,k) = [(k+2)/((k+1)((k+1)n+1)), 1/(kn+1)]  (closed on the left).
    """
    k, p, q = _bracket(n, alpha)
    return RegionIndex(k, "IV" if _at_or_past(p, q, _guarantee_pieces(n, k)[:3]) else "NI")


def ceil_inv(alpha: Fraction) -> int:
    """Smallest feasible object count for a normalised vector with max alpha."""
    p, q = _unit_alpha(alpha)
    return -(-q // p)


# ---------------------------------------------------------------------------
# CSV interface: header `object_1,...,object_m`, one agent row per line,
# entries as decimal strings or p/q fractions.  Lines starting with '#' and
# blank lines are ignored.

def _printable(bound: int) -> bool:
    """Whether an integer of at most `bound` fits the int-to-str limit.

    A normalised row's entries and bundle costs are at most 1 and have
    denominators dividing its common denominator ``denom``, so
    ``_printable(row.denom)`` bounds every number printed for the row.
    """
    limit = sys.get_int_max_str_digits()
    # below 8**limit it is short enough, so 10**limit is rarely built
    return not limit or bound.bit_length() <= 3 * limit or bound < 10 ** limit


def parse_instance_csv(text: str) -> Instance:
    """Read an instance file (format above) into a normalised Instance.

    Each distinct cell text is read once per call: a table that lives for
    this call only maps the text as written to the integer pair `_ratio`
    reads from it stripped, so a repeated cell costs one dict lookup, with
    no strip, and a file of few distinct entries one `_ratio` per entry, not
    one per cell.  Each row is built from its pairs, normalised and
    validated in one step (`_fill_pairs`).  Lines are read in order, a
    line's cells from left to right, and every error names the line it is
    found on: a bad cell raises where it first occurs and is never stored,
    so that is the first line that holds it.
    """
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), start=1)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValidationError("empty instance file")
    header = [h.strip() for h in lines[0][1].split(",")]
    m = len(header)
    if header != [f"object_{j}" for j in range(1, m + 1)]:
        raise ValidationError("bad header, expected object_1,...,object_m")
    cells: dict[str, tuple[int, int]] = {}
    profile = []
    for lineno, ln in lines[1:]:
        toks = ln.split(",")
        if len(toks) != m:
            raise ValidationError(f"line {lineno}: expected {m} entries, got {len(toks)}")
        try:
            for t in toks:
                if t not in cells:
                    cells[t] = _ratio(t.strip())
            row = _normalized([cells[t] for t in toks])
            if not _printable(row.denom):
                raise ValueError("normalised row too long to print")
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
        profile.append(row)
    if not profile:
        raise ValidationError("instance file has a header but no agent rows")
    return Instance(tuple(profile))


def read_instance_csv(path) -> Instance:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_instance_csv(fh.read())


def format_decimal(x: Fraction, places: int = 12) -> str:
    """Exact fraction rendered to `places` >= 0 decimals, rounded half away
    from zero (`-5/2` at `places = 0` gives `-3`); trailing zeros and a bare
    point are dropped, and a value that rounds to zero has no sign."""
    if places < 0:
        raise ValueError(f"places must be >= 0, got {places}")
    q = as_fraction(x)
    num, den = q.numerator, q.denominator
    # floor(|q| * 10**places + 1/2) in integers
    digits = (2 * abs(num) * 10 ** places + den) // (2 * den)
    s = f"{digits:0{places + 1}d}"
    if places:
        s = f"{s[:-places]}.{s[-places:]}".rstrip("0").rstrip(".")
    return ("-" if num < 0 and digits else "") + s


def format_instance_csv(inst: Instance, comments: Sequence[str] = ()) -> str:
    out = [",".join(f"object_{j}" for j in range(1, inst.m + 1))]
    for row in inst.profile:
        out.append(",".join(str(x) for x in row.values))
    out.extend(f"# {c}" for c in comments)
    return "\n".join(out) + "\n"
