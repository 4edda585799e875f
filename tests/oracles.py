"""Independent brute-force oracles used to cross-validate the solvers.

Deliberately naive: the MMS oracles enumerate all n**m assignments with no
pruning (`bnb_mms`, a branch and bound, is the reference for sizes beyond
that reach, and `lattice_mms`, a dynamic program over bundle loads, is one
that shares no search with either), the knife renormalises every agent's
remaining values at every level, the lift scans every object for each
position, the share references evaluate each piece in Fraction arithmetic,
locating alpha by comparing it with the interval ends as Fractions, and the
instance reader builds one Fraction per cell.  Nothing from the package is
reused beyond the plain data types and, in the knife, the guarantee cap.
"""

import heapq
import math
import sys
from fractions import Fraction
from itertools import product

from fairchores.core import ValidationError
from fairchores.shares import guarantee

F = Fraction


def naive_mms(values, n: int) -> Fraction:
    """min over all n**m assignments of the max bundle sum; integer values
    are summed as integers."""
    m = len(values)
    best = None
    for assign in product(range(n), repeat=m):
        loads = [0] * n
        for j, b in enumerate(assign):
            loads[b] += values[j]
        worst = max(loads)
        if best is None or worst < best:
            best = worst
    return best if best is not None else F(0)


def bnb_mms(items, n: int) -> int:
    """min over n-partitions of the max bundle sum of positive integers.

    A depth-first branch and bound, independent of the package's
    sequential partitioning: objects in descending order, bundles tried least
    loaded first (so the first leaf is the greedy seed), equal loads tried
    once, equal objects in non-decreasing bundle order, and a stop at
    max(largest object, ceil(total/n)).
    """
    items = sorted(items, reverse=True)
    lower = max(items[:1] + [-(-sum(items) // n)])
    loads = [0] * n
    best = sum(items) + 1

    def recurse(i, cur_max, min_bundle):
        nonlocal best
        if cur_max >= best:
            return False
        if i == len(items):
            best = cur_max
            return best == lower
        w = items[i]
        tried = set()
        start = min_bundle if i > 0 and items[i - 1] == w else 0
        for b in sorted(range(start, n), key=loads.__getitem__):
            if loads[b] in tried:
                continue
            tried.add(loads[b])
            loads[b] += w
            done = recurse(i + 1, max(cur_max, loads[b]), b)
            loads[b] -= w
            if done:
                return True
        return False

    recurse(0, 0, 0)
    return best


def lpt_seed(items, n: int):
    """Longest processing time as the package seeded its search before it
    kept each bundle as one integer: a heap of (load, bundle) tuples, each
    object to the least loaded bundle, lowest index on ties.  Returns
    (largest load, bundle of each object)."""
    heap = [(0, b) for b in range(n)]
    assign = []
    for w in items:
        load, b = heapq.heappop(heap)
        heapq.heappush(heap, (load + w, b))
        assign.append(b)
    return max(heap)[0], assign


def root_certificate(row, n: int):
    """A certificate of row's exact MinMaxShare for n agents that needs no
    search and nothing from `mms.py`: the LPT partition of the row's nonzero
    integers, largest first (`lpt_seed`), and three lower bounds on the
    largest bundle of every n-partition:

    - "largest": the largest object;
    - "average": the total over n, rounded up;
    - "pigeonhole": for k >= 1 with at least kn + 1 objects, some bundle
      holds k + 1 of the kn + 1 largest, so at least their k + 1 smallest.

    Returns (term, value) for the first term, in that order, that meets the
    partition's largest bundle, value being that bundle as a Fraction; None
    when no term meets it.
    """
    items = sorted([x for x in row.ints if x], reverse=True)
    if not items:
        return "largest", F(0)
    top, _ = lpt_seed(items, n)
    prefix = [0]
    for x in items:
        prefix.append(prefix[-1] + x)
    terms = {
        "largest": items[0],
        "average": -(-prefix[-1] // n),
        "pigeonhole": max([prefix[k * n + 1] - prefix[k * n - k]
                           for k in range(1, (len(items) - 1) // n + 1)], default=0),
    }
    for term, bound in terms.items():
        assert bound <= top, (term, bound, top)  # a lower bound, met or not
        if bound == top:
            return term, F(top, row.denom)
    return None


def lattice_mms(parts, n: int) -> int:
    """min over n-partitions of the max bundle sum of non-negative integers,
    by dynamic programming over bundle loads.

    A state is the ascending tuple of the n loads.  The parts are placed
    largest first, each into every bundle of every state; a state whose
    largest load exceeds the `lpt_seed` value is dropped, since a partition
    that good exists.  The answer is the least largest load of a final
    state.  When the `lpt_seed` value already equals max(largest part,
    ceil(total/n)), a bound no partition can beat, it is the answer and no
    state is built.  That bound has no pigeonhole term, so the DP shares no
    bound with the package's search.
    """
    parts = sorted(parts, reverse=True)
    bound = lpt_seed(parts, n)[0]
    if bound == max(parts[:1] + [-(-sum(parts) // n)]):
        return bound
    states = {(0,) * n}
    for w in parts:
        states = {tuple(sorted(loads[:b] + (loads[b] + w,) + loads[b + 1:]))
                  for loads in states for b in range(n) if loads[b] + w <= bound}
    return min(loads[-1] for loads in states)


def dfs_partition(items, n: int):
    """The depth-first search the package ran for n >= 5 before sequential
    partitioning replaced it, written out: (value, bundle of each object) for
    positive integers in descending order.

    The seed is longest processing time (each object to the least loaded
    bundle, lowest index on ties).  The search stops once the incumbent
    meets the larger of ceil(total/n) and every pigeonhole sum
    items[kn-k] + ... + items[kn]; it tries bundles in index order, equal
    loads once and equal objects in non-decreasing bundle order, and keeps
    an incumbent unless a leaf is strictly better.
    """
    m = len(items)
    loads = [0] * n
    seed = []
    for w in items:
        b = min(range(n), key=lambda b: (loads[b], b))
        loads[b] += w
        seed.append(b)
    best, best_assign = max(loads), seed
    lower = max([-(-sum(items) // n)]
                + [sum(items[k * n - k:k * n + 1]) for k in range((m - 1) // n + 1)])
    if best == lower:
        return best, best_assign
    loads = [0] * n
    assign = [0] * m

    def recurse(i, cur_max, min_bundle):
        nonlocal best, best_assign
        if cur_max >= best:
            return False
        if i == m:
            best, best_assign = cur_max, assign.copy()
            return best == lower
        w = items[i]
        tried = set()
        start = min_bundle if i > 0 and items[i - 1] == w else 0
        for b in range(start, n):
            if loads[b] in tried:
                continue
            tried.add(loads[b])
            loads[b] += w
            assign[i] = b
            done = recurse(i + 1, max(cur_max, loads[b]), b)
            loads[b] -= w
            if done:
                return True
        return False

    recurse(0, 0, 0)
    return best, best_assign


def naive_lex_key(values, n: int):
    """Lexicographically minimal sorted (descending) load vector."""
    m = len(values)
    best = None
    for assign in product(range(n), repeat=m):
        loads = [F(0)] * n
        for j, b in enumerate(assign):
            loads[b] += values[j]
        key = tuple(sorted(loads, reverse=True))
        if best is None or key < best:
            best = key
    return best


def naive_knife(rows):
    """Reference moving knife on ordered rows, renormalising at every level.

    Carries out the paper's recursion literally: after an agent is served,
    every other agent's remaining values are divided by 1 - C_i, her value
    of the served bundle, so that they total 1 again.  Takes ordered rows
    (sequences of Fractions, each non-increasing) and returns the bundles
    as frozensets of positions plus one dict per level, keyed like
    ``KnifeLevel`` and also holding ``renorm_factors`` (1 - C_i).
    """
    n, m = len(rows), len(rows[0])
    bundles = [set() for _ in range(n)]
    levels = []
    active = list(range(n))
    remaining = list(range(m))
    vals = {i: dict(enumerate(rows[i])) for i in active}

    while active:
        n_ = len(active)
        if n_ == 1:
            bundles[active[0]].update(remaining)
            break
        alphas = {i: (vals[i][remaining[0]] if remaining else F(0)) for i in active}
        caps = {i: guarantee(n_, alphas[i]) for i in active}
        prefix = {i: F(0) for i in active}
        t = 0
        exhausted = False
        while any(prefix[i] <= caps[i] for i in active):
            if t == len(remaining):
                exhausted = True
                break
            e = remaining[t]
            for i in active:
                prefix[i] += vals[i][e]
            t += 1
        if exhausted:
            served = next(i for i in active if prefix[i] <= caps[i])
            bundles[served].update(remaining)
            levels.append(dict(
                agents=tuple(active), level_n=n_, alphas=alphas, caps=caps,
                prefix_values=dict(prefix), served_agent=served, prefix_len=t,
                removed_position=None, served_value=prefix[served],
                bundle_costs={}, renorm_factors={}, early_exhaustion=True,
            ))
            break
        removed = remaining[t - 1]
        served = next(i for i in active if prefix[i] - vals[i][removed] <= caps[i])
        bundles[served].update(remaining[: t - 1])
        rest = remaining[t - 1:]
        costs = {i: prefix[i] - vals[i][removed] for i in active if i != served}
        factors = {i: 1 - costs[i] for i in costs}
        levels.append(dict(
            agents=tuple(active), level_n=n_, alphas=alphas, caps=caps,
            prefix_values=dict(prefix), served_agent=served, prefix_len=t,
            removed_position=removed, served_value=prefix[served] - vals[served][removed],
            bundle_costs=costs, renorm_factors=factors, early_exhaustion=False,
        ))
        active = [i for i in active if i != served]
        if len(active) == 1:
            bundles[active[0]].update(rest)
            break
        remaining = rest
        vals = {i: {e: (vals[i][e] / factors[i] if factors[i] else F(0)) for e in remaining}
                for i in active}

    return [frozenset(b) for b in bundles], levels


def naive_lift(rows, ordered_bundles):
    """Reference picking-sequence lift, scanning all objects per position.

    Takes the original rows and the bundles of ordered positions.  Positions
    go from last to first; the holder of each takes her cheapest untaken
    object, ties to the lowest index.  Returns the bundles as frozensets of
    object indices.
    """
    m = len(rows[0])
    owner = {pos: i for i, b in enumerate(ordered_bundles) for pos in b}
    taken = set()
    real = [set() for _ in ordered_bundles]
    for pos in range(m - 1, -1, -1):
        row = rows[owner[pos]]
        pick = min((j for j in range(m) if j not in taken), key=lambda j: (row[j], j))
        taken.add(pick)
        real[owner[pos]].add(pick)
    return [frozenset(b) for b in real]


def bracket_k(n: int, alpha: Fraction) -> int:
    """k with alpha in (1/((k+1)n+1), 1/(kn+1)]."""
    return math.floor((1 / alpha - 1) / n)


def reference_upper(n: int, alpha: Fraction, m=None) -> Fraction:
    """Tight upper bound (hill_share), piece by piece in Fraction arithmetic."""
    k = bracket_k(n, alpha)
    if n == 2 and k == 1:
        if m == 3:
            return F(2, 3)
        if m == 4:
            return 2 * alpha
        if alpha <= (F(3, 11) if m == 5 else F(7, 27)):
            return F(3, 4) * (1 - alpha)
        if m == 5 or alpha > F(2, 7):
            return 2 * alpha
        return alpha + F(2, 5) * (1 - alpha)
    in_d = alpha <= F(k + 2, n * (k + 1) ** 2 + k + 2)
    if in_d and (m is None or m >= k * n + n + 1):
        return F(k + 2, k + 1) * (1 - alpha) / n
    return (k + 1) * alpha


def reference_lower(n: int, alpha: Fraction, m=None) -> Fraction:
    """Best-case bound (mms_lower_bound) in Fraction arithmetic."""
    if n * alpha > 1:
        return alpha
    k = math.floor(1 / (n * alpha))
    if k * n * alpha == 1 or m is None or m >= k * n + n:
        return F(1, n)
    return k * alpha + (1 - k * n * alpha) / (m - k * n)


def reference_guarantee(n: int, alpha: Fraction) -> Fraction:
    """The monotone guarantee in Fraction arithmetic, for n >= 2 and 0 < alpha <= 1."""
    k = bracket_k(n, alpha)
    if alpha < F(k + 2, (k + 1) * ((k + 1) * n + 1)):
        return F(k + 2, (k + 1) * n + 1)
    return (k + 1) * alpha


def reference_fraction(x) -> Fraction:
    """A number read as `as_fraction` read it before text had an integer
    path: floats through their shortest repr, and text measured by the digit
    guard and then parsed by Fraction, a zero denominator a ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(repr(x))
    if isinstance(x, str):
        limit = sys.get_int_max_str_digits()
        mantissa, _, exponent = x.strip().lower().partition("e")
        exponent = exponent.lstrip("+-").replace("_", "")
        digits = len(mantissa)
        if exponent.isdigit():
            digits += int(exponent) if len(exponent) <= len(str(limit)) else limit + 1
        if limit and digits > limit:
            raise ValueError(f"entry has more than {limit} digits")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def reference_parse(text: str) -> list:
    """An instance file read with one `reference_fraction` per cell and each
    row divided by its total in Fraction arithmetic: (ints, denom,
    normalized) per row, ints over the least common denominator."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), start=1)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValidationError("empty instance file")
    header = [h.strip() for h in lines[0][1].split(",")]
    m = len(header)
    if header != [f"object_{j}" for j in range(1, m + 1)]:
        raise ValidationError("bad header, expected object_1,...,object_m")
    limit = sys.get_int_max_str_digits()
    rows = []
    for lineno, ln in lines[1:]:
        toks = [t.strip() for t in ln.split(",")]
        if len(toks) != m:
            raise ValidationError(f"line {lineno}: expected {m} entries, got {len(toks)}")
        try:
            values = [reference_fraction(t) for t in toks]
            if any(x < 0 for x in values):
                raise ValueError("negative disutility entry")
            total = sum(values)
            if total:
                values = [x / total for x in values]
            denom = math.lcm(*[x.denominator for x in values])
            if limit and denom >= 10 ** limit:
                raise ValueError("normalised row too long to print")
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
        ints = tuple(x.numerator * (denom // x.denominator) for x in values)
        rows.append((ints, denom, total != 0))
    if not rows:
        raise ValidationError("instance file has a header but no agent rows")
    return rows
