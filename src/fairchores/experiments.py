"""Numerical studies: synthetic instances, share-to-MMS ratio histograms,
and theoretical-curve data.

All ratio arithmetic is exact: synthetic draws live on a common denominator
of 10**9, so segment lengths sum to exactly 1 and the integer MMS solver
applies directly.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .core import DisutilityVector, DomainError, ValidationError, as_fraction, format_decimal
from .mms import exact_mms
from .shares import _guarantee_piece, _lower_piece, _upper_piece, _validate, hill_share

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

    Each grid point is checked once, as hill_share checks it, and the three
    bounds are read from their integer pieces; every field is a Fraction.
    A Fraction is built only for a value not already held: the upper and
    lower values reuse alpha where they equal it (on the top interval
    (2/(n+2), 1] both do), the lower value 1/n, the guarantee the upper
    value, and the ratio one shared 1 where the two bounds meet.
    n < 2 and m < 2 are rejected outright; grid points outside a formula's
    domain (e.g. m < ceil(1/alpha)) are skipped with a warning.
    """
    if n < 2:
        raise DomainError("need an integer agent count n >= 2")
    if m is not None and m < 2:
        raise DomainError("need an object count m >= 2")
    even = F(1, n) if isinstance(n, int) else None  # else every point is skipped
    one = F(1)
    rows = []
    for a in grid:
        alpha = as_fraction(a)
        try:
            p, q = _validate(n, alpha, m)
        except ValueError as exc:
            warnings.warn(f"skipping alpha={alpha}: {exc}")
            continue
        _, un, ud, _, _ = _upper_piece(n, p, q, m)
        _, ln, ld, _, _ = _lower_piece(n, p, q, m)
        gn, gd = _guarantee_piece(n, p, q)
        up = alpha if un * q == ud * p else F(un, ud)
        if ln * q == ld * p:
            lo = alpha
        elif ln * n == ld:
            lo = even
        else:
            lo = F(ln, ld)
        g = up if gn * ud == un * gd else F(gn, gd)
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
    out = [f"# config: n={n} m={'unrestricted' if m is None else m}",
           "alpha_fraction,alpha_decimal,delta_upper,delta_lower,guarantee,ratio"]
    for alpha, up, lo, g, r in rows:
        out.append(f"{alpha},{format_decimal(alpha)},{up},{lo},{g},{r}")
    return "\n".join(out) + "\n"
