"""The per-bracket piece records of the three share bounds and what reads
them: the piece functions, the region classifiers and `curve_samples`.

A record (`shares._upper_pieces`, `_lower_pieces`) lists a bound's pieces
in bracket k, the highest first; a piece begins at its start triple (num,
den, strict) and ends where the piece above begins, or at the bracket's top
1/(kn+1).  The guarantee's flat record (`core._guarantee_pieces`) is read
here as the same two pieces, IV above NI.
"""

import math
import random
import warnings
from fractions import Fraction as F

import pytest

import test_experiments
from fairchores.allocator import allocate
from fairchores.core import (
    Instance,
    RegionIndex,
    _guarantee_pieces,
    classify_guarantee,
    classify_theorem1,
)
from fairchores.experiments import curve_samples
from fairchores.mms import exact_mms
from fairchores.shares import (
    _guarantee_piece,
    _lower_piece,
    _lower_pieces,
    _upper_piece,
    _upper_pieces,
    guarantee,
    hill_share,
    witness_upper,
)

STEP = F(1, 10007)  # one lattice step


def guarantee_pieces(n, k):
    """The guarantee's record for bracket k as two pieces: IV from its
    start, with value c*alpha, then NI down to the bracket's bottom."""
    num, den, strict, c_num, c_den, c = _guarantee_pieces(n, k)
    return (num, den, strict, "IV", c, 0, 1), (1, (k + 1) * n + 1, 1, "NI", c_num, c_den, 0)


def start(piece):
    """A piece's start as the sort key (value, strict): a start just past a
    value sorts after the start at it."""
    return F(piece[0], piece[1]), piece[2]


def holder(pieces, p, q):
    """The piece of a record whose range holds p/q."""
    for piece in pieces:
        if p * piece[1] - q * piece[0] >= piece[2]:
            return piece
    raise AssertionError(f"{p}/{q} below the record's last start")


def value(piece, x):
    """A piece's value at x: (x_p*x + y)/z, or the constant x_p/y when z is 0."""
    xp, y, z = piece[4:7]
    return (xp * x + y) / z if z else F(xp, y)


def expected_tuple(piece, p, q):
    """What a piece function returns at p/q, read from the piece."""
    tag, xp, y, z = piece[3:7]
    num, den = (xp * p + y * q, z * q) if z else (xp, y)
    if len(piece) == 7:  # a guarantee piece
        return num, den
    a, b = piece[7:]
    return tag, num, den, (q - 1) // p if a is None else a, b


def bracket(n, x):
    return classify_theorem1(n, x).k


class TestRecordsTileTheBrackets:
    """Each record covers its bracket with no gap and no overlap, and every
    start agrees with the classifiers, the piece functions and the bounds'
    own definitions at the start and one lattice step either side."""

    NS = (2, 3, 5, 12, 60)
    KS = range(31)

    @staticmethod
    def object_counts(n, k):
        # ceil(1/alpha) runs from kn+1 at the top to (k+1)n+1 at the bottom
        return [None, *range(k * n + 1, (k + 1) * n + 1 + 3 * n + 4)]

    def records(self, n, k):
        """Each family's distinct records in bracket k, with one m each."""
        out = {"upper": {}, "lower": {}}
        for m in self.object_counts(n, k):
            out["upper"].setdefault(_upper_pieces(n, k, m), m)
            out["lower"].setdefault(_lower_pieces(n, k, m), m)
        out["guarantee"] = {guarantee_pieces(n, k): None}
        return out

    @staticmethod
    def piece_function(family, n, p, q, m):
        if family == "upper":
            return _upper_piece(n, p, q, m)
        if family == "lower":
            return _lower_piece(n, p, q, m)
        return _guarantee_piece(n, p, q)

    @staticmethod
    def family_record(family, n, k, m):
        if family == "upper":
            return _upper_pieces(n, k, m)
        if family == "lower":
            return _lower_pieces(n, k, m)
        return guarantee_pieces(n, k)

    @pytest.mark.parametrize("n", NS)
    def test_tiling(self, n):
        for k in self.KS:
            top, bottom = F(1, k * n + 1), F(1, (k + 1) * n + 1)
            # the bracket as the classifiers read it
            assert bracket(n, top) == k and bracket(n, bottom) == k + 1
            assert bracket(n, bottom + STEP) <= k
            if k:
                assert bracket(n, top + STEP) < k
            records = self.records(n, k)
            ends = {top, bottom}
            for family, by_record in records.items():
                for pieces, m in by_record.items():
                    starts = [start(piece) for piece in pieces]
                    assert starts[-1] == (bottom, 1), (family, n, k, m)
                    assert starts[0] < (top, 1), (family, n, k, m)  # top piece not empty
                    assert all(a > b for a, b in zip(starts, starts[1:])), (family, n, k, m)
                    ends |= {s for s, _ in starts}
            # every end, and one lattice step either side, as (p, q, bracket)
            points = [(x.numerator, x.denominator, bracket(n, x))
                      for x in {e + d for e in ends for d in (-STEP, 0, STEP)} if 0 < x <= 1]
            for family, by_record in records.items():
                for pieces, m in by_record.items():
                    for p, q, kx in points:
                        own = pieces if kx == k else self.family_record(family, n, kx, m)
                        assert self.piece_function(family, n, p, q, m) == \
                            expected_tuple(holder(own, p, q), p, q), (family, n, k, m, p, q)

    @pytest.mark.parametrize("n", NS)
    def test_ends_are_the_bounds_own(self, n):
        """Independent of the records: the region classifiers switch at the
        D/I and NI/IV starts, the upper bound and the guarantee are
        continuous where one piece meets the next (and, at m = None, across
        the bracket's top), and the lower bound's even-split point is where
        its own index floor(1/(n alpha)) steps from k+1 to k."""
        for k in self.KS:
            top = F(1, k * n + 1)
            iv_start = _guarantee_pieces(n, k)[:3]
            iv = F(*iv_start[:2])
            assert iv_start[2] == 0  # IV holds its start
            assert classify_guarantee(n, iv) == RegionIndex(k, "IV")
            for x, tag in ((iv - STEP, "NI"), (iv + STEP, "IV")):
                if bracket(n, x) == k:  # a step may leave a narrow bracket
                    assert classify_guarantee(n, x).tag == tag, (n, k, x)
            if (n, k) != (2, 1):
                i_start = _upper_pieces(n, k, None)[0]
                d_end = F(*i_start[:2])
                assert i_start[2] == 1  # D holds its right end
                assert classify_theorem1(n, d_end) == RegionIndex(k, "D")
                for x, tag in ((d_end - STEP, "D"), (d_end + STEP, "I")):
                    if bracket(n, x) == k:
                        assert classify_theorem1(n, x).tag == tag, (n, k, x)
            records = self.records(n, k)
            for family in ("upper", "guarantee"):
                for pieces in records[family]:
                    for above, below in zip(pieces, pieces[1:]):
                        s = F(*above[:2])  # where the piece above begins
                        assert value(above, s) == value(below, s), (family, n, k, s)
                if k:  # across the top, into bracket k-1's last piece
                    here = self.family_record(family, n, k, None)
                    over = self.family_record(family, n, k - 1, None)
                    assert value(here[0], top) == value(over[-1], top), (family, n, k)
            for pieces in records["lower"]:
                point = [piece for piece in pieces if piece[3] == "even-split"]
                assert len(point) == 1
                s = F(*point[0][:2])
                assert point[0][2] == 0 and s == F(*pieces[0][:2]) and pieces[0][2] == 1
                assert math.floor(1 / (n * s)) == k + 1 and (n * s) * (k + 1) == 1
                assert math.floor(1 / (n * (s + STEP))) <= k


class TestCurveIgnoresGridOrder:
    """A bracket's record is built once per call and reused; every order of
    the grid must give the sorted grid's rows and warnings, permuted alike,
    so a record is never read for a point outside its bracket."""

    @staticmethod
    def run(n, grid, m):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = curve_samples(n, grid, m)
        return rows, [str(w.message) for w in caught]

    @pytest.mark.parametrize("m", [None, 2, 5, 30])
    @pytest.mark.parametrize("n", [2, 3, 5, 60])
    def test_orders(self, n, m):
        rng = random.Random(f"curve-order:{n}:{m}")
        points = [F(j, 10007) for j in rng.sample(range(1, 10007), 400)]
        points += test_experiments.TestCurveRowsFromPieces.grid(n, m)
        ordered = sorted(set(points))
        rows, skipped = self.run(n, ordered, m)
        assert skipped  # the grid's invalid points were skipped
        assert len(rows) + len(skipped) == len(ordered)
        valid = {row[0] for row in rows}
        result = dict(zip([x for x in ordered if x in valid], rows))
        result.update(zip([x for x in ordered if x not in valid], skipped))
        shuffled = ordered[:]
        random.Random(f"curve-shuffle:{n}:{m}").shuffle(shuffled)
        for grid in (ordered[::-1], shuffled, [x for x in ordered for _ in (0, 1)]):
            expected_rows = [result[x] for x in grid if not isinstance(result[x], str)]
            expected_skips = [result[x] for x in grid if isinstance(result[x], str)]
            assert self.run(n, grid, m) == (expected_rows, expected_skips)


class TestGuaranteeIsTheWorstCase:
    """ROADMAP item 4, read with alpha as an upper bound on every bad: the
    worst MinMaxShare over normalised rows whose entries are all at most
    alpha is guarantee(n, alpha).  Where the guarantee lies above Hill's
    share, a piece start beta* <= alpha of alpha's bracket has
    hill_share(n, beta*) == guarantee(n, alpha); the witness at beta* has
    every entry at most alpha and exact MinMaxShare equal to the guarantee,
    and allocate on n copies of it leaves some agent exactly at it."""

    @staticmethod
    def points(n):
        rng = random.Random(f"best-guarantee:{n}")
        pts = {F(j, 10007) for j in rng.sample(range(1, 10007), 300)}
        for k in range(5):  # piece ends of the first brackets
            pts |= {F(1, (k + 1) * n + 1), F(k + 2, n * (k + 1) ** 2 + k + 2),
                    F(k + 2, (k + 1) * ((k + 1) * n + 1))}
            if k:
                pts.add(F(1, k * n + 1))
        return sorted(pts)

    def test_witness_at_a_piece_start_attains_the_guarantee(self):
        above, past_k40 = 0, 0
        certified = {}
        for n in range(2, 9):
            for alpha in self.points(n):
                g = guarantee(n, alpha)
                if g == hill_share(n, alpha):
                    continue
                above += 1
                k = bracket(n, alpha)
                past_k40 += k > 40
                ends = [F(*piece[:2]) for piece in _upper_pieces(n, k, None)]
                beta = max(b for b in ends if b <= alpha and hill_share(n, b) == g)
                if (n, beta) not in certified:
                    row = witness_upper(n, beta).vector
                    _, report = allocate(Instance((row,) * n))
                    certified[n, beta] = (row, exact_mms(row, n),
                                          {agent.cost for agent in report.agents})
                row, mms, costs = certified[n, beta]
                assert max(row.ints) * alpha.denominator <= alpha.numerator * row.denom
                assert mms == g, (n, alpha, beta)
                assert g in costs, (n, alpha, beta)
        assert (above, past_k40) == (713, 17)
