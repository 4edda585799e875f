"""Pinned share digests: one sha256 per agent count n = 2..10 over everything
the closed forms return.

For every alpha = p/q in (0, 1] with q < 40, the digest covers
`guarantee`, both region classifiers, `ceil_inv` and `natural_object_count`,
and, for m in (None, c, c+1, c+n, c+n+1, c+3n+3) with c = ceil_inv(alpha),
both witnesses: vector values, `claimed_mms` and construction tag.  A query
outside a formula's domain is recorded by its error text.  A refactor of
`shares` or of the region classifiers must leave every digest unchanged.
To re-capture them after a deliberate change of values, run

    PYTHONPATH=src python tests/test_share_digest.py

and review the diff of tests/share_digests.json.
"""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from fairchores.core import ceil_inv, classify_guarantee, classify_theorem1
from fairchores.shares import guarantee, natural_object_count, witness_lower, witness_upper

DIGESTS = Path(__file__).resolve().parent / "share_digests.json"
AGENTS = range(2, 11)


def _show(f, *args) -> str:
    try:
        r = f(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    if hasattr(r, "claimed_mms"):
        vals = ",".join(str(x) for x in r.vector.values)
        return f"[{vals}] {r.claimed_mms} {r.construction_tag}"
    if hasattr(r, "tag"):
        return f"{r.k} {r.tag}"
    return str(r)


def share_digest(n: int) -> str:
    h = hashlib.sha256()
    for q in range(1, 40):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            a = Fraction(p, q)
            c = ceil_inv(a)
            rows = [f"{a} {f.__name__} {_show(f, n, a)}"
                    for f in (guarantee, classify_theorem1, classify_guarantee)]
            rows.append(f"{a} {c} {natural_object_count(a)}")
            for m in (None, c, c + 1, c + n, c + n + 1, c + 3 * n + 3):
                rows += [f"{a} {m} {f.__name__} {_show(f, n, a, m)}"
                         for f in (witness_upper, witness_lower)]
            h.update(("\n".join(rows) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("n", AGENTS)
def test_share_digest(n):
    assert share_digest(n) == json.loads(DIGESTS.read_text())[str(n)]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({str(n): share_digest(n) for n in AGENTS}, indent=1) + "\n")
