"""Pinned outcomes of the exact search's effort budget on rows near it.

Each row records either the value and a sha256 of the sorted bundles that
`minmax_partition` returns, or the exact text of the `SearchLimitError` it
raises.  An answer is recorded only once its allocation is checked: a
partition of the row's objects into n bundles whose largest bundle carries
the value.  A change to the search that moves which rows the budget
refuses, or what a row answers, shows up here.  The rows:

- three draws each of `gen_synthetic(m, random.Random(f"grid:{n}:{m}"))`
  at (n, m) = (2, 30), (3, 30), (5, 30), (2, 40), (3, 36), (4, 36),
  (3, 40), (4, 40), (5, 36) and (6, 36);
- 12 seeded tie-heavy integer rows of 24 to 40 objects, each drawn from 6
  to 12 values in 1..1000, at n = 2..6; all but one open a search.

The file name keeps pytest from collecting it: the run takes some seconds.

    PYTHONPATH=src python tests/budget_outcomes.py --check

compares against tests/budget_outcomes.json and exits 1 on any difference;
without `--check` it re-captures the file.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from fairchores.core import DisutilityVector
from fairchores.experiments import gen_synthetic
from fairchores.mms import SearchLimitError, minmax_partition

OUTCOMES = Path(__file__).resolve().parent / "budget_outcomes.json"
GRID = ((2, 30), (3, 30), (5, 30), (2, 40), (3, 36), (4, 36), (3, 40), (4, 40), (5, 36), (6, 36))


def rows():
    for n, m in GRID:
        rng = random.Random(f"grid:{n}:{m}")
        for i in range(3):
            yield f"grid:{n}:{m}:{i}", n, gen_synthetic(m, rng)
    for i in range(12):
        rng = random.Random(f"budget-ties:{i}")
        n, m = 2 + i % 5, rng.randint(24, 40)
        distinct = [rng.randint(1, 1000) for _ in range(rng.randint(6, 12))]
        yield f"budget-ties:{i}", n, DisutilityVector(tuple(Fraction(rng.choice(distinct))
                                                            for _ in range(m)))


def outcome(n, v) -> dict:
    try:
        value, alloc = minmax_partition(v, n)
    except SearchLimitError as exc:
        return {"error": str(exc)}
    alloc.validate(v.m)
    assert alloc.n == n and max(v.value_of(b) for b in alloc.bundles) == value, n
    bundles = sorted(sorted(b) for b in alloc.bundles)
    return {"value": str(value),
            "bundles": hashlib.sha256(json.dumps(bundles).encode()).hexdigest()}


def outcomes() -> dict:
    return {name: outcome(n, v) for name, n, v in rows()}


def main(argv) -> int:
    found = outcomes()
    if "--check" not in argv:
        OUTCOMES.write_text(json.dumps(found, indent=1) + "\n")
        return 0
    pinned = json.loads(OUTCOMES.read_text())
    differ = sorted(k for k in pinned.keys() | found.keys() if pinned.get(k) != found.get(k))
    for name in differ:
        print(f"{name}: pinned {pinned.get(name)}, found {found.get(name)}")
    refused = sum("error" in o for o in found.values())
    print(f"{len(found)} rows, {refused} refused, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
