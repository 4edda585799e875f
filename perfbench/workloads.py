"""The four benchmark workloads.

Each workload makes its inputs from the seed (item ``i`` depends only on the
seed and ``i``), runs one operation per item through the package's public
API, and checks every output.  Operations are called through module
attributes looked up at call time, so a ``tracing.Tracer`` sees them; the
checks use the references bound below at import time, which the tracer does
not rebind, so checking is never counted as the program's work.
"""

from __future__ import annotations

import random
import resource
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from io import StringIO
from pathlib import Path

import fairchores as fc
import fairchores.cli as fc_cli
from fairchores.core import DomainError, ValidationError, ceil_inv
from fairchores.mms import SearchLimitError
from fairchores.shares import (
    guarantee,
    hill_share,
    mms_lower_bound,
    natural_object_count,
    witness_lower,
    witness_upper,
)

# a raised one of these is a failed operation, not a wrong output
FAILURES = (SearchLimitError, ValidationError, DomainError)

MMS_MAX_OBJECTS = 24  # the oracle's default guard
MMS_MAX_AGENTS = 10


class WrongOutput(Exception):
    """An operation returned a result that the benchmark's check rejects."""


class CliFailed(Exception):
    """The CLI exited with code 2 (usage, domain or search-limit error)."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


# Row generators of the allocation-guarantee acceptance criterion.

def uniform_row(rng: random.Random, m: int) -> list:
    return list(fc.gen_synthetic(m, rng).values)


def powerlaw_row(rng: random.Random, m: int) -> list:
    return [F(1, rng.randrange(1, 1000)) for _ in range(m)]


def zeros_row(rng: random.Random, m: int) -> list:
    return [0 if rng.random() < 0.6 else rng.randrange(1, 10) for _ in range(m)]


ROW_MAKERS = (uniform_row, powerlaw_row, zeros_row)


class Workload:
    name = ""
    pool_size = 1    # distinct inputs the timed loop cycles through
    trace_ops = 1    # operations in a traced pass and in the digest
    probes: tuple = ()

    def __init__(self, tiny: bool = False, workdir: Path | None = None):
        self.tiny = tiny
        self.workdir = workdir
        self.tally: Counter = Counter()  # per-layer counts taken from outputs

    def items(self, seed: int, count: int) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> None:
        raise NotImplementedError

    def record(self, item, out) -> str:
        raise NotImplementedError

    def self_check(self, metrics: dict, items: list) -> list[str]:
        return []

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Allocate(Workload):
    """allocate(inst) on heterogeneous instances; shapes alternate between a
    lift-heavy (small n, large m) and a knife-heavy (larger n) one, and the
    three row generators cycle over the agents of each instance."""

    name = "allocate"

    def __init__(self, tiny=False, workdir=None):
        super().__init__(tiny, workdir)
        self.shapes = ((3, 12), (5, 10)) if tiny else ((4, 175), (12, 90))
        self.pool_size = 4 if tiny else 48
        self.trace_ops = 4 if tiny else 24

    def items(self, seed, count):
        out = []
        for i in range(count):
            rng = random.Random(f"allocate:{seed}:{i}")
            n, m = self.shapes[i % 2]
            rows = [ROW_MAKERS[(i + a) % 3](rng, m) for a in range(n)]
            out.append((rows, fc.normalize(rows)))
        return out

    def run(self, item):
        alloc, report = fc.allocate(item[1])
        levels = report.trace.levels
        self.tally["allocator.knife_levels"] += len(levels)
        self.tally["allocator.early_exhaustions"] += sum(lv.early_exhaustion for lv in levels)
        return alloc, report

    def check(self, item, out):
        rows, _ = item
        alloc, report = out
        n, m = len(rows), len(rows[0])
        _expect(alloc.n == n and len(report.agents) == n, "wrong number of bundles")
        try:
            alloc.validate(m)
        except ValidationError as exc:
            raise WrongOutput(f"allocation is not a partition: {exc}") from exc
        for i, (row, rep) in enumerate(zip(rows, report.agents)):
            # cost and alpha recomputed from the raw row, not the normalised one
            total = sum(F(x) for x in row)
            scale = 1 / total if total else F(0)
            alpha = max(F(x) for x in row) * scale
            cost = sum(F(row[j]) for j in alloc.bundles[i]) * scale
            _expect(rep.agent == i and rep.alpha == alpha, f"agent {i}: wrong alpha")
            _expect(rep.cost == cost, f"agent {i}: reported cost {rep.cost} != {cost}")
            _expect(rep.cap == guarantee(n, alpha), f"agent {i}: wrong guarantee")
            _expect(rep.satisfied and cost <= rep.cap, f"agent {i}: cost above guarantee")

    def record(self, item, out):
        alloc, report = out
        bundles = [sorted(b) for b in alloc.bundles]
        return f"{bundles};{[str(r.cost) for r in report.agents]}"

    def self_check(self, metrics, items):
        ops = len(items)
        bad = []
        for name in ("allocator.allocate.calls", "allocator.moving_knife.calls"):
            if metrics[name] != ops:
                bad.append(f"{name} = {metrics[name]}, expected {ops}")
        return bad


class Histogram(Workload):
    """instance_ratio on gen_synthetic vectors, cycling the (n, m) shapes."""

    name = "histogram"

    def __init__(self, tiny=False, workdir=None):
        super().__init__(tiny, workdir)
        self.shapes = ((2, 8), (3, 9)) if tiny else ((2, 18), (3, 16), (4, 16), (6, 16))
        self.pool_size = 8 if tiny else 4096
        self.trace_ops = 8 if tiny else 400

    def items(self, seed, count):
        out = []
        for i in range(count):
            n, m = self.shapes[i % len(self.shapes)]
            out.append((n, fc.gen_synthetic(m, random.Random(f"histogram:{seed}:{i}"))))
        return out

    def run(self, item):
        n, v = item
        return fc.instance_ratio(v, n)

    def check(self, item, rec):
        n, v = item
        alpha = max(v.values)
        _expect((rec.n, rec.m, rec.alpha) == (n, v.m, alpha), "record does not match input")
        _expect(rec.hill == hill_share(n, alpha, v.m), "wrong hill share")
        _expect(mms_lower_bound(n, alpha, v.m) <= rec.mms <= rec.hill,
                f"sandwich violated: mms {rec.mms}")
        _expect(rec.ratio == rec.hill / rec.mms, "wrong ratio")

    def record(self, item, rec):
        return f"{rec.n},{rec.m},{rec.alpha},{rec.hill},{rec.mms},{rec.ratio}"


def share_queries(n: int) -> list[tuple]:
    """Acceptance share-grid queries (alpha, m) for n agents, k extended while
    a witness has at most kn+n+1 <= 24 objects; only those whose witnesses
    fit the oracle's default guard are kept."""
    out = []
    k = 0
    while k * n + n + 1 <= MMS_MAX_OBJECTS:
        left, right = F(1, (k + 1) * n + 1), F(1, k * n + 1)
        split = F(k + 2, n * (k + 1) ** 2 + k + 2)
        for lo, hi in ((left, split), (split, right)):
            for a in [lo + (hi - lo) * F(t, 4) for t in (1, 2, 3)] + [hi]:
                if a >= 1:
                    continue
                ms = {ceil_inv(a), k * n + n, k * n + n + 1, natural_object_count(a)}
                out.extend((a, m) for m in sorted(ms) if m >= ceil_inv(a))
                out.append((a, None))
        k += 1
    if n == 2:  # the n=2, k=1 special pieces and their endpoints
        out += [(F(1, 3), 3), (F(3, 11), 5), (F(1, 4), 5), (F(3, 10), 5),
                (F(7, 27), None), (F(2, 7), None), (F(7, 27), 6), (F(2, 7), 7),
                (F(1, 4), 4), (F(3, 10), 4), (F(1, 3), None)]

    def fits(w) -> bool:
        return sum(1 for x in w.vector.values if x) <= MMS_MAX_OBJECTS

    return [(a, m) for a, m in out
            if fits(witness_upper(n, a, m)) and fits(witness_lower(n, a, m))]


class Bounds(Workload):
    """One operation per agent count n: the exact share curves on a seeded
    grid, plus, for n <= 10, certification of both witnesses of every share
    query against the exact oracle."""

    name = "bounds"

    def __init__(self, tiny=False, workdir=None):
        super().__init__(tiny, workdir)
        self.grid_points = 20 if tiny else 400
        self.cert_max_n = 3 if tiny else MMS_MAX_AGENTS
        ns = range(2, 5) if tiny else range(2, 61)
        # certifying n are spread evenly through the cycle, so a run that
        # stops part-way through a cycle still has the cycle's mix
        heavy = [n for n in ns if n <= self.cert_max_n]
        light = [n for n in ns if n > self.cert_max_n]
        self.ns = tuple(n for _, n in sorted(
            [((j + 0.5) / len(heavy), n) for j, n in enumerate(heavy)]
            + [((j + 0.5) / len(light), n) for j, n in enumerate(light)]))
        self.pool_size = self.trace_ops = len(self.ns)

    def items(self, seed, count):
        rng = random.Random(f"bounds:{seed}")
        q = 10007
        grid = [F(j, q) for j in sorted(rng.sample(range(1, q), self.grid_points))]
        queries = {n: share_queries(n) for n in self.ns if n <= self.cert_max_n}
        if self.tiny:  # a few queries per n keep the smoke run short
            queries = {n: qs[::25] for n, qs in queries.items()}
        return [(n, grid, queries.get(n, ()))
                for n in (self.ns[i % len(self.ns)] for i in range(count))]

    def run(self, item):
        n, grid, queries = item
        rows = fc.curve_samples(n, grid)
        certs = []
        for a, m in queries:
            up = fc.witness_upper(n, a, m)
            lo = fc.witness_lower(n, a, m)
            certs.append((a, m, up.claimed_mms, fc.exact_mms(up.vector, n),
                          lo.claimed_mms, fc.exact_mms(lo.vector, n)))
        return rows, certs

    def check(self, item, out):
        n, grid, queries = item
        rows, certs = out
        ceiling = F(2 * n, n + 1)
        _expect([r[0] for r in rows] == grid, f"n={n}: curve skipped grid points")
        for alpha, up, lo, g, ratio in rows:
            _expect(0 < lo <= up and ratio == up / lo, f"n={n} alpha={alpha}: bad row")
            _expect(ratio <= ceiling, f"n={n} alpha={alpha}: ratio {ratio} above {ceiling}")
        _expect(len(certs) == len(queries), f"n={n}: missing certificates")
        for a, m, claimed_up, mms_up, claimed_lo, mms_lo in certs:
            _expect(mms_up == claimed_up == hill_share(n, a, m),
                    f"upper witness not tight at n={n} alpha={a} m={m}")
            _expect(mms_lo == claimed_lo == mms_lower_bound(n, a, m),
                    f"lower witness not tight at n={n} alpha={a} m={m}")

    def record(self, item, out):
        rows, certs = out
        return repr(([tuple(map(str, r)) for r in rows], [tuple(map(str, c)) for c in certs]))

    def self_check(self, metrics, items):
        certified = sum(len(item[2]) for item in items)
        calls = metrics["mms.minmax_partition.calls"]
        if calls != 2 * certified:
            return [f"mms.minmax_partition.calls = {calls}, expected 2 x {certified}"]
        return []


class Cli(Workload):
    """``fairchores.cli.main(argv)`` in-process, with stdout captured, over a
    fixed command cycle on seeded instance files.  Interpreter start-up and
    import are timed by setup_s and by cli.startup_ms instead."""

    name = "cli"

    def __init__(self, tiny=False, workdir=None):
        super().__init__(tiny, workdir)
        self.shapes = ((3, 8), (3, 10), (4, 12)) if tiny else ((3, 18), (3, 30), (8, 60))
        self.synthetic_count = 3 if tiny else 20
        self.curve_points = 5 if tiny else 100
        self.pool_size = 9  # odd, so the median falls inside one command's latencies
        self.trace_ops = 45

    def items(self, seed, count):
        rng = random.Random(f"cli:{seed}")
        wd = self.workdir
        wd.mkdir(parents=True, exist_ok=True)
        paths = []
        # 3x18 small integers, 3x30 power-law fractions, 8x60 mostly zeros
        makers = (lambda r, m: [r.randrange(1, 10) for _ in range(m)], powerlaw_row, zeros_row)
        for (n, m), make in zip(self.shapes, makers):
            path = wd / f"inst_{n}x{m}.csv"
            lines = [",".join(f"object_{j}" for j in range(1, m + 1))]
            lines += [",".join(str(x) for x in make(rng, m)) for _ in range(n)]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            paths.append((path, wd / f"alloc_{n}x{m}.txt"))
        (i18, a18), (i30, a30), (i60, a60) = paths
        wn = rng.randrange(2, 5)
        lo, hi = F(1, 2 * wn + 1), F(1, wn + 1)
        walpha = lo + (hi - lo) * F(rng.randrange(1, 100), 100)
        wfile = wd / "witness.csv"
        sn, salpha = rng.randrange(2, 30), F(rng.randrange(1, 1000), 1000)
        kind = rng.choice(("upper", "lower", "guarantee"))
        share = {"upper": hill_share, "lower": mms_lower_bound,
                 "guarantee": guarantee}[kind](sn, salpha)
        cycle = [
            (("allocate", "--instance", i18, "--allocation-out", a18), self.shapes[0][0]),
            (("verify", "--instance", i18, "--allocation", a18), None),
            (("allocate", "--instance", i30, "--allocation-out", a30), self.shapes[1][0]),
            (("allocate", "--instance", i60, "--allocation-out", a60), self.shapes[2][0]),
            (("witness", "--n", wn, "--alpha", walpha, "--out", wfile), None),
            (("mms", "--instance", wfile, "--n", wn), witness_upper(wn, walpha).claimed_mms),
            (("share", "--n", sn, "--alpha", salpha, "--kind", kind), share),
            (("experiment", "synthetic", "--n", 3, "--m", 10,
              "--count", self.synthetic_count, "--seed", seed), self.synthetic_count),
            (("experiment", "curve", "--n", wn + 1, "--points", self.curve_points),
             self.curve_points),
        ]
        # verify on the larger files exits 2: it runs the exact MMS per agent
        # beyond the oracle's guard.  Traced passes count these exits.
        self.probes = tuple((("verify", "--instance", str(i), "--allocation", str(a)), None)
                            for i, a in ((i30, a30), (i60, a60)))
        return [(tuple(str(t) for t in argv), expect) for argv, expect in
                (cycle[i % len(cycle)] for i in range(count))]

    def run(self, item):
        argv, _ = item
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = fc_cli.main(list(argv))
        self.tally[f"cli.exit_{code}"] += 1
        if code == 2:
            raise CliFailed(f"{' '.join(argv)}: exit 2: {err.getvalue()}")
        return code, out.getvalue()

    def check(self, item, out):
        argv, expect = item
        code, text = out
        cmd = " ".join(argv[:2])
        _expect(code == 0, f"{cmd}: exit {code}\n{text}")
        lines = text.splitlines()
        if argv[0] == "allocate":
            _expect(len(lines) == expect and all(ln.endswith("satisfied yes") for ln in lines),
                    f"{cmd}: not every agent satisfied\n{text}")
        elif argv[0] == "verify":
            _expect(lines[-1:] == ["all guarantees satisfied"], f"{cmd}: {text}")
        elif argv[0] == "witness":
            _expect(Path(argv[-1]).is_file(), "witness file not written")
        elif argv[0] in ("mms", "share"):
            _expect(text.split(" ", 1)[0] == str(expect), f"{cmd}: {text!r} != {expect}")
        elif argv[1] == "synthetic":  # histogram rows n,m,lo,hi,count
            counts = [int(ln.rsplit(",", 1)[1]) for ln in lines[2:]]
            _expect(sum(counts) == expect, f"{cmd}: histogram counts {counts}")
        else:  # curve rows alpha,alpha_decimal,upper,lower,guarantee,ratio
            n = int(argv[argv.index("--n") + 1])
            ratios = [F(ln.rsplit(",", 1)[1]) for ln in lines[2:]]
            _expect(len(ratios) == expect and max(ratios) <= F(2 * n, n + 1),
                    f"{cmd}: bad curve rows")

    def record(self, item, out):
        return f"{out[0]}\n{out[1]}"


WORKLOADS = {w.name: w for w in (Allocate, Histogram, Bounds, Cli)}
