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

from .core import DisutilityVector, ValidationError, as_fraction, format_decimal
from .mms import exact_mms
from .shares import guarantee, hill_share, mms_lower_bound

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

    counts: dict[tuple[int, int], dict[int, int]]
    records: tuple[RatioRecord, ...]

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
    vals = tuple(F(points[i + 1] - points[i], GRID) for i in range(m))
    return DisutilityVector(vals, normalized=True)


def instance_ratio(v: DisutilityVector, n: int, **limits) -> RatioRecord:
    """Hill share vs exact MMS for one normalized vector."""
    alpha = v.alpha()
    hill = hill_share(n, alpha, v.m)
    mms = exact_mms(v, n, **limits)
    return RatioRecord(n, v.m, alpha, hill, mms, hill / mms)


def run_histogram(cfg: ExperimentConfig, **limits) -> RatioHistogram:
    """Deterministic ratio histogram; one RNG stream per (n, m) setting."""
    counts: dict[tuple[int, int], dict[int, int]] = {}
    records: list[RatioRecord] = []
    for m in cfg.m_values:
        rng = random.Random(f"{cfg.seed}:{cfg.n}:{m}")
        buckets: dict[int, int] = {}
        for _ in range(cfg.instances_per_setting):
            v = gen_synthetic(m, rng)
            rec = instance_ratio(v, cfg.n, **limits)
            records.append(rec)
            b = RatioHistogram.bucket_of(rec.ratio)
            buckets[b] = buckets.get(b, 0) + 1
        if cfg.instances_per_setting:
            counts[(cfg.n, m)] = buckets
    return RatioHistogram(counts, tuple(records))


def curve_samples(n: int, grid, m=None) -> list[tuple]:
    """Rows (alpha, delta_upper, delta_lower, guarantee, ratio) for plotting.

    Grid points outside a formula's domain (e.g. m < ceil(1/alpha)) are
    skipped with a warning.
    """
    rows = []
    for a in grid:
        alpha = as_fraction(a)
        try:
            up = hill_share(n, alpha, m)
            lo = mms_lower_bound(n, alpha, m)
            g = guarantee(n, alpha)
        except (ValueError, ZeroDivisionError) as exc:
            warnings.warn(f"skipping alpha={alpha}: {exc}")
            continue
        rows.append((alpha, up, lo, g, up / lo))
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
