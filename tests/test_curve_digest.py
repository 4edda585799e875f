"""Pinned curve digests: one sha256 per agent count n = 2..60 over every row
`curve_samples` returns.

The grid is 400 seeded points j/10007, the same for every n.  For each m in
(None, 2, 5, 30) the digest covers str() of every field of every row, in
order, and the text of every skip warning.  A change to how the curve rows
are built must leave every digest unchanged.  To re-capture them after a
deliberate change of values, run

    PYTHONPATH=src python tests/test_curve_digest.py

and review the diff of tests/curve_digests.json.
"""

import hashlib
import json
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from fairchores.experiments import curve_samples

DIGESTS = Path(__file__).resolve().parent / "curve_digests.json"
AGENTS = range(2, 61)
OBJECT_COUNTS = (None, 2, 5, 30)
GRID = [Fraction(j, 10007)
        for j in sorted(random.Random("curve-digest").sample(range(1, 10007), 400))]


def curve_digest(n: int) -> str:
    h = hashlib.sha256()
    for m in OBJECT_COUNTS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = curve_samples(n, GRID, m)
        lines = [f"m={m}"]
        lines += [" ".join(str(x) for x in row) for row in rows]
        lines += [str(w.message) for w in caught]
        h.update(("\n".join(lines) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("n", AGENTS)
def test_curve_digest(n):
    assert curve_digest(n) == json.loads(DIGESTS.read_text())[str(n)]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({str(n): curve_digest(n) for n in AGENTS}, indent=1) + "\n")
