"""Independent brute-force oracles used to cross-validate the solvers.

Deliberately naive: the MMS oracles enumerate all n**m assignments with no
pruning, and the knife renormalises every agent's remaining values at every
level.  Nothing from the package is reused beyond the plain data types and,
in the knife, the guarantee cap.
"""

from fractions import Fraction
from itertools import product

from fairchores.shares import guarantee

F = Fraction


def naive_mms(values, n: int) -> Fraction:
    """min over all n**m assignments of the max bundle sum."""
    m = len(values)
    best = None
    for assign in product(range(n), repeat=m):
        loads = [F(0)] * n
        for j, b in enumerate(assign):
            loads[b] += values[j]
        worst = max(loads)
        if best is None or worst < best:
            best = worst
    return best if best is not None else F(0)


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
