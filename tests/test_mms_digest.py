"""Pinned oracle digests: one sha256 per row set over the value and the
allocation that `minmax_partition` returns for every row of the set.

- `histogram`: the first 1,024 seed-1 rows of the benchmark's histogram
  workload, `gen_synthetic(m, random.Random(f"histogram:1:{i}"))` with
  (n, m) cycling through (2, 18), (3, 16), (4, 16) and (6, 16).
- `witness`: `witness_upper` and `witness_lower` for n = 2..10, alpha = p/q
  with q < 25 and m in (None, c, c+n), c = ceil_inv(alpha), keeping the
  rows of at most 24 objects.  A query outside a witness's domain is no row.

A row the search refuses is recorded by its error text.  A refactor of
`mms` must leave both digests unchanged.  To re-capture them after a
deliberate change of values or allocations, run

    PYTHONPATH=src python tests/test_mms_digest.py

and review the diff of tests/mms_digests.json.
"""

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fairchores.core import ceil_inv
from fairchores.experiments import gen_synthetic
from fairchores.mms import SearchLimitError, minmax_partition
from fairchores.shares import witness_lower, witness_upper

DIGESTS = Path(__file__).resolve().parent / "mms_digests.json"
SHAPES = ((2, 18), (3, 16), (4, 16), (6, 16))


def histogram_rows():
    for i in range(1024):
        n, m = SHAPES[i % len(SHAPES)]
        yield n, gen_synthetic(m, random.Random(f"histogram:1:{i}"))


def witness_rows():
    for n in range(2, 11):
        for q in range(1, 25):
            for p in range(1, q + 1):
                if math.gcd(p, q) != 1:
                    continue
                a = Fraction(p, q)
                c = ceil_inv(a)
                for m in (None, c, c + n):
                    for f in (witness_upper, witness_lower):
                        try:
                            v = f(n, a, m).vector
                        except ValueError:
                            continue
                        if v.m <= 24:
                            yield n, v


def _show(n, v) -> str:
    row = f"{n} " + ",".join(str(x) for x in v.values)
    try:
        value, alloc = minmax_partition(v, n)
    except SearchLimitError as exc:
        return f"{row} {exc}"
    bundles = ";".join(",".join(map(str, sorted(b))) for b in alloc.bundles)
    return f"{row} {value} {bundles}"


def mms_digest(rows) -> str:
    h = hashlib.sha256()
    for n, v in rows:
        h.update((_show(n, v) + "\n").encode())
    return h.hexdigest()


ROWS = {"histogram": histogram_rows, "witness": witness_rows}


@pytest.mark.parametrize("name", ROWS)
def test_mms_digest(name):
    assert mms_digest(ROWS[name]()) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({k: mms_digest(f()) for k, f in ROWS.items()}, indent=1) + "\n")
