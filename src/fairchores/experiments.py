"""Numerical studies: synthetic instances, share-to-MMS ratio histograms,
and theoretical-curve data.

All ratio arithmetic is exact: synthetic draws live on a common denominator
of 10**9, so segment lengths sum to exactly 1 and the integer MMS solver
applies directly.  The share curves sweep their grid over the bounds' piece
records (see shares): `curve_samples` answers a point on the top range,
where every bound is alpha itself, with one cross-multiplication and before
its bracket; it builds each other bracket's three records once per call and
reads them as they are stored, each point taking its three pieces from
them and each constant's Fraction from a table that lives for the call.
`curve_csv` writes alpha's text once per row.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DisutilityVector,
    DomainError,
    ValidationError,
    _guarantee_pieces,
    as_fraction,
    format_decimal,
)
from .mms import exact_mms
from .shares import _lower_pieces, _upper_pieces, _validate, hill_share

F = Fraction
GRID = 10 ** 9  # common denominator for synthetic draws


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    m_values: tuple[int, ...]
    instances_per_setting: int
    seed: int

    def __post_init__(self):
        if self.instances_per_setting < 0:
            raise ValidationError("instances_per_setting must be nonnegative")
        if self.n < 2:
            raise ValidationError("need at least 2 agents")
        if any(m < self.n for m in self.m_values):
            raise ValidationError("m must be at least n for ratio experiments")
        if len(set(self.m_values)) != len(self.m_values):
            raise ValidationError("each object count m may appear only once")

    def summary(self) -> str:
        """The settings as written on an emitted CSV's '# config:' line."""
        return (f"n={self.n} m={','.join(map(str, self.m_values))} "
                f"count={self.instances_per_setting} seed={self.seed} arithmetic=exact")


@dataclass(frozen=True)
class RatioRecord:
    n: int
    m: int
    alpha: Fraction
    hill: Fraction
    mms: Fraction
    ratio: Fraction


@dataclass(frozen=True)
class RatioHistogram:
    """0.1-wide half-open buckets [1.0,1.1), [1.1,1.2), ... per (n, m)."""

    records: tuple[RatioRecord, ...]

    @property
    def counts(self) -> dict[tuple[int, int], dict[int, int]]:
        """How many records fall in each bucket, per (n, m)."""
        counts: dict[tuple[int, int], dict[int, int]] = {}
        for r in self.records:
            buckets = counts.setdefault((r.n, r.m), {})
            b = self.bucket_of(r.ratio)
            buckets[b] = buckets.get(b, 0) + 1
        return counts

    @staticmethod
    def bucket_of(ratio: Fraction) -> int:
        return int((ratio - 1) * 10 // 1)

    @staticmethod
    def bucket_bounds(b: int) -> tuple[Fraction, Fraction]:
        return F(10 + b, 10), F(11 + b, 10)


def gen_synthetic(m: int, rng: random.Random) -> DisutilityVector:
    """Sample m segment lengths of [0,1] from m-1 uniform cuts.

    Cuts are lattice points p/10**9, so the lengths sum to exactly 1.
    """
    if m < 1:
        raise ValidationError("need at least one object")
    cuts = sorted(rng.randrange(GRID + 1) for _ in range(m - 1))
    points = [0] + cuts + [GRID]
    lengths = [points[i + 1] - points[i] for i in range(m)]
    return DisutilityVector._of_view(lengths, GRID, normalized=True)


def instance_ratio(v: DisutilityVector, n: int) -> RatioRecord:
    """Hill share vs exact MMS for one normalized vector."""
    alpha = v.alpha()
    hill = hill_share(n, alpha, v.m)
    mms = exact_mms(v, n)
    return RatioRecord(n, v.m, alpha, hill, mms, hill / mms)


def run_histogram(cfg: ExperimentConfig) -> RatioHistogram:
    """Deterministic ratio histogram; one RNG stream per (n, m) setting."""
    records = []
    for m in cfg.m_values:
        rng = random.Random(f"{cfg.seed}:{cfg.n}:{m}")
        for _ in range(cfg.instances_per_setting):
            records.append(instance_ratio(gen_synthetic(m, rng), cfg.n))
    return RatioHistogram(tuple(records))


def curve_samples(n: int, grid, m=None) -> list[tuple]:
    """Rows (alpha, delta_upper, delta_lower, guarantee, ratio) for plotting.

    n and m are checked once per call: n < 2 and m < 2 are rejected
    outright, and a grid point outside a formula's domain (e.g.
    m < ceil(1/alpha)) is skipped with a warning that carries the text
    hill_share would raise for it.  A Fraction point is used as given and
    any other is read by as_fraction; its p and q are read once.  A point on
    the top range, from 2/(n+1) (and from 1/m, where that is higher) up to
    1, is answered first, with one cross-multiplication: there every bound
    is alpha itself, and the row is (alpha, alpha, alpha, alpha, 1).  The
    top range lies in bracket 0, the only bracket where the guarantee's
    coefficient is 1, and starts at its IV piece, past the upper and lower
    bounds' top pieces.  Any other point's bracket k is one integer
    division of its p and q.  The first point in a bracket builds the
    bracket's three piece records (shares._upper_pieces and _lower_pieces,
    core._guarantee_pieces) and its NI constant's Fraction, kept for this
    call only; every point reads each record as it is stored, takes the
    piece that holds it and evaluates the piece's integer form.  Every field
    is a Fraction, and one is built only for a value not already held: the
    upper and lower values reuse alpha where they equal it, a constant
    upper or lower piece (such as 1/n) takes its Fraction from a table kept
    for this call, keyed by the piece's two integers, the guarantee reuses
    the upper value or the bracket's NI Fraction, and the ratio one shared
    1 where the two bounds meet.
    """
    if n < 2:
        raise DomainError("need an integer agent count n >= 2")
    if m is not None and m < 2:
        raise DomainError("need an object count m >= 2")
    # when n or m is no integer, _validate rejects every point, with its text
    checked = isinstance(n, int) and (m is None or isinstance(m, int))
    # the top range starts at tn/td, closed: at IV(n, 0), where the guarantee
    # is alpha, or at 1/m, below which no point is valid; 1/0 holds no point
    tn, td = _guarantee_pieces(n, 0)[:2] if checked else (1, 0)
    if m is not None and m * tn < td:
        tn, td = 1, m
    one = F(1)
    constants: dict[tuple[int, int], Fraction] = {}
    brackets = {}
    rows = []
    for a in grid:
        alpha = a if a.__class__ is F else as_fraction(a)
        p, q = alpha.as_integer_ratio()
        if p * td >= q * tn and p < q:
            rows.append((alpha, alpha, alpha, alpha, one))
            continue
        if not (checked and 0 < p < q and (m is None or m * p >= q)):
            try:
                _validate(n, alpha, m)
            except ValueError as exc:
                warnings.warn(f"skipping alpha={alpha}: {exc}")
                continue
        k = (q - p) // (n * p)  # core._bracket_k
        record = brackets.get(k)
        if record is None:
            gs = _guarantee_pieces(n, k)
            record = brackets[k] = (_upper_pieces(n, k, m), _lower_pieces(n, k, m),
                                    gs, F(gs[3], gs[4]))
        ups, los, (gsn, gsd, gstrict, _, _, gc), g = record
        for sn, sd, strict, _, un, ud, uz, _, _ in ups:
            if p * sd - q * sn >= strict:
                break
        if uz:
            un, ud = un * p + ud * q, uz * q
            up = alpha if un * q == ud * p else F(un, ud)
        else:  # a constant: one Fraction per value and call
            up = constants.get((un, ud))
            if up is None:
                up = constants[un, ud] = F(un, ud)
        for sn, sd, strict, _, ln, ld, lz, _, _ in los:
            if p * sd - q * sn >= strict:
                break
        if lz:
            ln, ld = ln * p + ld * q, lz * q
            lo = alpha if ln * q == ld * p else F(ln, ld)
        else:
            lo = constants.get((ln, ld))
            if lo is None:
                lo = constants[ln, ld] = F(ln, ld)
        if p * gsd - q * gsn >= gstrict:  # IV: c * alpha; else NI's constant
            gn = gc * p
            g = up if gn * ud == un * q else F(gn, q)
        r = one if un * ld == ud * ln else F(un * ld, ud * ln)
        rows.append((alpha, up, lo, g, r))
    return rows


# ---------------------------------------------------------------------------
# CSV emission.  Every emitter starts with a '#' comment carrying the config.

def histogram_csv(hist: RatioHistogram, cfg: ExperimentConfig) -> str:
    out = [f"# config: {cfg.summary()}", "n,m,bucket_lo,bucket_hi,count"]
    for (n, m), buckets in sorted(hist.counts.items()):
        for b in sorted(buckets):
            lo, hi = RatioHistogram.bucket_bounds(b)
            out.append(f"{n},{m},{float(lo):.1f},{float(hi):.1f},{buckets[b]}")
    return "\n".join(out) + "\n"


def records_csv(records, config: str) -> str:
    """Ratio records, one row each, under a '# config: <config>' line."""
    out = [f"# config: {config}", "n,m,alpha,hill_share,mms,ratio"]
    for r in records:
        out.append(f"{r.n},{r.m},{r.alpha},{r.hill},{r.mms},{r.ratio}")
    return "\n".join(out) + "\n"


def curve_csv(rows, n: int, m=None) -> str:
    """curve_samples rows, one line each, every field as str() writes it.
    A row writes alpha's text once and reuses it for each field that is
    alpha itself, as every field of a top-range row is."""
    out = [f"# config: n={n} m={'unrestricted' if m is None else m}",
           "alpha_fraction,alpha_decimal,delta_upper,delta_lower,guarantee,ratio"]
    for alpha, up, lo, g, r in rows:
        a = str(alpha)
        out.append(f"{a},{format_decimal(alpha)},{a if up is alpha else up},"
                   f"{a if lo is alpha else lo},{a if g is alpha else g},{r}")
    return "\n".join(out) + "\n"
