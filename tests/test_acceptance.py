"""Acceptance suite: ten end-to-end criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; each criterion is also a regular assertion so the suite fails
loudly on any violation.
"""

import random
from fractions import Fraction
from itertools import combinations

from fairchores.allocator import allocate
from fairchores.core import DisutilityVector, ceil_inv, classify_guarantee, normalize
from fairchores.experiments import ExperimentConfig, gen_synthetic, run_histogram
from fairchores.mms import exact_mms, lex_minmax
from fairchores.shares import (
    guarantee,
    high_ratio_ranges,
    hill_share,
    mms_lower_bound,
    natural_object_count,
    ratio_ceiling,
    theoretical_ratio,
    witness_lower,
    witness_upper,
)

from oracles import naive_mms

F = Fraction


def report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} [{name}]: {status}")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def share_grid(n_max: int = 8, k_max: int = 6):
    """(n, alpha, m) queries covering every D/I sub-branch for n <= n_max,
    k <= k_max (criteria 1-2 read the default range)."""
    queries = []
    for n in range(2, n_max + 1):
        for k in range(k_max + 1):
            left = F(1, (k + 1) * n + 1)
            right = F(1, k * n + 1)
            split = F(k + 2, n * (k + 1) ** 2 + k + 2)
            for lo, hi in ((left, split), (split, right)):
                alphas = [lo + (hi - lo) * F(t, 4) for t in (1, 2, 3)] + [hi]
                for a in alphas:
                    if a >= 1:  # k=0 bracket is right-closed at alpha=1
                        continue
                    ms = {ceil_inv(a), k * n + n, k * n + n + 1,
                          natural_object_count(a)}
                    for m in sorted(ms):
                        if m >= ceil_inv(a):
                            queries.append((n, a, m))
                    queries.append((n, a, None))
    # the n=2, k=1 special pieces and their endpoints
    for a, m in [(F(1, 3), 3), (F(3, 11), 5), (F(1, 4), 5), (F(3, 10), 5),
                 (F(7, 27), None), (F(2, 7), None), (F(7, 27), 6), (F(2, 7), 7),
                 (F(1, 4), 4), (F(3, 10), 4), (F(1, 3), None)]:
        queries.append((2, a, m))
    return queries


def test_criterion_1_upper_tightness():
    failures = []
    for n, a, m in share_grid():
        w = witness_upper(n, a, m)
        got = exact_mms(w.vector, n)
        want = hill_share(n, a, m)
        if got != want or w.claimed_mms != want:
            failures.append((n, a, m, got, want))
    report(1, "upper-bound tightness: exact_mms(witness_upper) = hill_share",
           failures)


def test_criterion_2_lower_tightness():
    failures = []
    for n, a, m in share_grid():
        w = witness_lower(n, a, m)
        got = exact_mms(w.vector, n)
        want = mms_lower_bound(n, a, m)
        if got != want or w.claimed_mms != want:
            failures.append((n, a, m, got, want))
    report(2, "lower-bound tightness: exact_mms(witness_lower) = mms_lower_bound",
           failures)


def test_criterion_3_sandwich():
    failures = []
    rng = random.Random(2024)
    for n in (2, 3):
        for m in range(6, 13):
            for _ in range(500):
                cuts = sorted(rng.randrange(1, 10 ** 4) for _ in range(m - 1))
                pts = [0] + cuts + [10 ** 4]
                v = DisutilityVector(
                    tuple(F(pts[i + 1] - pts[i], 10 ** 4) for i in range(m)))
                a = v.alpha()
                mms = exact_mms(v, n)
                if not mms_lower_bound(n, a, m) <= mms <= hill_share(n, a, m):
                    failures.append((n, m, v.values))
    report(3, "sandwich: lower bound <= exact MMS <= Hill share", failures)


def _uniform_rows(rng, n, m):
    return [gen_synthetic(m, rng).values for _ in range(n)]


def _powerlaw_rows(rng, n, m):
    return [[F(1, rng.randrange(1, 1000)) for _ in range(m)] for _ in range(n)]


def _many_zeros_rows(rng, n, m):
    return [[0 if rng.random() < 0.6 else rng.randrange(1, 10)
             for _ in range(m)] for _ in range(n)]


def test_criterion_4_allocation_guarantee():
    failures = []
    rng = random.Random(777)
    makers = (_uniform_rows, _powerlaw_rows, _many_zeros_rows)
    for trial in range(1000):
        n = rng.randint(2, 6)
        m = rng.randint(n, 40)
        inst = normalize(makers[trial % 3](rng, n, m))
        alloc, rep = allocate(inst)
        alloc.validate(m)
        for r in rep.agents:
            if not r.satisfied:
                failures.append(("guarantee", trial, r))
        for lvl in rep.trace.levels:
            if lvl.early_exhaustion:
                continue
            n_ = lvl.level_n
            for i, c in lvl.bundle_costs.items():
                a_i = lvl.alphas[i]
                if a_i == 0:
                    continue
                cap = guarantee(n_, a_i)
                if c < (1 - cap) / (n_ - 1):
                    failures.append(("trace cost bound", trial, i, c))
                if n_ >= 3 and a_i < 1:
                    img = a_i / (1 - (1 - cap) / (n_ - 1))
                    src = classify_guarantee(n_, a_i)
                    dst = classify_guarantee(n_ - 1, img)
                    if (src.k, src.tag) != (dst.k, dst.tag):
                        failures.append(("region mapping", trial, i, a_i, img))
    report(4, "allocation within guarantee; knife-trace invariants hold",
           failures)


def test_criterion_5_ratio_ceiling():
    failures = []
    grid = [F(j, 10001) for j in range(1, 10001)]
    for n in range(2, 101):
        cap = ratio_ceiling(n)
        for a in grid:
            if hill_share(n, a) > cap * mms_lower_bound(n, a):
                failures.append((n, a))
    if theoretical_ratio(2, F(1, 3)) != F(4, 3):
        failures.append(("equality at n=2, alpha=1/3",))
    report(5, "ratio ceiling 2n/(n+1), equality at (2, 1/3)", failures)


def test_criterion_6_high_ratio_ranges():
    failures = []
    grid = [F(j, 10001) for j in range(1, 10001)]
    for n in range(3, 21):
        ranges = high_ratio_ranges(n)
        exceeded = [False] * len(ranges)
        for a in grid:
            r = theoretical_ratio(n, a)
            if r > F(4, 3):
                hits = [i for i, (lo, hi) in enumerate(ranges) if lo < a < hi]
                if not hits:
                    failures.append(("outside ranges", n, a, r))
                for i in hits:
                    exceeded[i] = True
        for i, hit in enumerate(exceeded):
            if not hit:
                failures.append(("range never exceeded", n, ranges[i]))
    report(6, "high-ratio alphas confined to the closed-form ranges",
           failures)


def test_criterion_7_curve_continuity():
    failures = []
    # n=2 kinks: each junction value from both adjacent closed-form pieces
    checks = [
        (F(7, 27), F(3, 4) * (1 - F(7, 27)), F(7, 27) + F(2, 5) * (1 - F(7, 27)), F(5, 9)),
        (F(2, 7), F(2, 7) + F(2, 5) * (1 - F(2, 7)), 2 * F(2, 7), F(4, 7)),
        (F(1, 3), 2 * F(1, 3), 1 - F(1, 3), F(2, 3)),
    ]
    for a, left_piece, right_piece, expected in checks:
        if not (hill_share(2, a) == left_piece == right_piece == expected):
            failures.append((2, a))
    # n=3 (and general-branch n=2 brackets): D/I junction and bracket ends
    for n in (2, 3):
        for k in range(0, 5):
            if (n, k) == (2, 1):
                continue
            split = F(k + 2, n * (k + 1) ** 2 + k + 2)
            d_val = F(k + 2, k + 1) * (1 - split) / n
            if not (hill_share(n, split) == d_val == (k + 1) * split):
                failures.append((n, k, "D/I junction"))
            right = F(1, k * n + 1)
            if k >= 1:
                from_next = F(k + 1, k) * (1 - right) / n  # k-1 bracket's D piece
                if not (hill_share(n, right) == (k + 1) * right == from_next):
                    failures.append((n, k, "bracket endpoint"))
    report(7, "curve continuity: adjacent pieces agree at closed endpoints",
           failures)


def test_criterion_8_share_monotonicity():
    failures = []
    alphas = [F(j, 101) for j in range(1, 101)] + [F(7, 27), F(2, 7), F(3, 11)]
    for a in alphas:
        prev = None
        for n in range(2, 11):
            h = hill_share(n, a)
            if prev is not None and h > prev:
                failures.append(("decreasing in n", n, a))
            prev = h
    for n in (2, 3, 4):
        for a in alphas:
            m1 = natural_object_count(a)
            prev = None
            for m in range(ceil_inv(a), m1 + 4):
                h = hill_share(n, a, m)
                if prev is not None:
                    if m <= m1 and h < prev:
                        failures.append(("increasing in m", n, a, m))
                    if m > m1 and h != prev:
                        failures.append(("constant after", n, a, m))
                prev = h
            if hill_share(n, a, m1) != hill_share(n, a):
                failures.append(("unrestricted equals m*", n, a))
    report(8, "share monotone in n and m, constant past ceil(2/alpha)-1",
           failures)


def test_criterion_9_histogram_shape():
    failures = []
    for n in (6, 7):
        hist = run_histogram(ExperimentConfig(n, (8, 9, 10), 100, 42))
        total = len(hist.records)
        low = sum(1 for r in hist.records if r.ratio < F(11, 10))
        if low < F(7, 10) * total:
            failures.append((n, "fewer than 70% in [1.0, 1.1)", low, total))
        if any(r.ratio >= F(16, 10) for r in hist.records):
            failures.append((n, "ratio >= 1.6"))
    hist2 = run_histogram(ExperimentConfig(2, (8, 9, 10), 100, 42))
    if any(r.ratio >= F(15, 10) for r in hist2.records):
        failures.append((2, "ratio >= 1.5"))
    report(9, "ratio histogram shape with seed 42", failures)


def test_criterion_10_oracle_cross_validation():
    failures = []
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 3)
        m = rng.randint(1, 8)
        cuts = sorted(rng.randrange(1, 720) for _ in range(m - 1))
        pts = [0] + cuts + [720]
        v = DisutilityVector(tuple(F(pts[i + 1] - pts[i], 720) for i in range(m)))
        if exact_mms(v, n) != naive_mms(v.values, n):
            failures.append(("mms", n, v.values))
    # exchange properties of lexicographic min-max allocations
    rng = random.Random(32)
    for _ in range(100):
        n = rng.randint(2, 3)
        m = rng.randint(2, 10)
        cuts = sorted(rng.randrange(1, 720) for _ in range(m - 1))
        pts = [0] + cuts + [720]
        v = DisutilityVector(tuple(F(pts[i + 1] - pts[i], 720) for i in range(m)))
        alloc = lex_minmax(v, n)
        bs = sorted(alloc.bundles, key=lambda b: (-v.value_of(b), sorted(b)))
        a1, va1 = bs[0], v.value_of(bs[0])
        for j in range(1, len(bs)):
            aj, vaj = bs[j], v.value_of(bs[j])
            subs1 = [s for r in range(len(a1) + 1)
                     for s in combinations(sorted(a1), r)]
            subsj = [s for r in range(len(aj) + 1)
                     for s in combinations(sorted(aj), r)]
            for s1 in subs1:
                vs1 = v.value_of(s1)
                for sj in subsj:
                    vsj = v.value_of(sj)
                    if vs1 > vsj and vs1 - vsj < va1 - vaj:
                        failures.append(("exchange difference", v.values, s1, sj))
                    if vaj - vsj + vs1 < va1 and vsj < vs1:
                        failures.append(("exchange contrapositive", v.values, s1, sj))
    report(10, "oracle cross-validation and exchange properties", failures)
