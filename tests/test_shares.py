import math
import random
from fractions import Fraction

import pytest

from fairchores.core import DisutilityVector, DomainError, ceil_inv
from fairchores.mms import exact_mms
from fairchores.shares import (
    _guarantee_piece,
    _lower_piece,
    _upper_piece,
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
from oracles import (
    bracket_k,
    reference_guarantee,
    reference_lower,
    reference_upper,
    root_certificate,
)
from test_acceptance import share_grid

F = Fraction


class TestHillShare:
    def test_two_agents_three_objects(self):
        assert hill_share(2, F(1, 3), 3) == F(2, 3)

    def test_two_agents_middle_branch(self):
        assert hill_share(2, F(27, 100)) == F(27, 100) + (2 - F(54, 100)) / 5
        assert hill_share(2, F(27, 100)) == F(281, 500)

    def test_three_agents_d_branch(self):
        assert hill_share(3, F(3, 10), 10) == F(7, 15)

    def test_three_agents_restricted_m(self):
        assert hill_share(3, F(7, 20), 3) == F(7, 20)

    def test_two_agents_m4(self):
        assert hill_share(2, F(3, 10), 4) == F(3, 5)

    def test_two_agents_m5_split(self):
        assert hill_share(2, F(1, 4), 5) == F(9, 16)
        assert hill_share(2, F(3, 11), 5) == F(3, 4) * F(8, 11)
        assert hill_share(2, F(7, 25), 5) == F(14, 25)

    def test_two_agents_unrestricted_pieces(self):
        assert hill_share(2, F(1, 4)) == F(9, 16)
        assert hill_share(2, F(7, 27)) == F(5, 9)
        assert hill_share(2, F(2, 7)) == F(4, 7)
        assert hill_share(2, F(1, 3)) == F(2, 3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hill_share(2, F(1, 3), 2)
        with pytest.raises(DomainError):
            hill_share(1, F(1, 2))
        with pytest.raises(DomainError):
            hill_share(2, F(3, 2))
        with pytest.raises(DomainError):
            hill_share(2, F(1, 2), 3.5)


class TestLowerBound:
    def test_large_alpha(self):
        assert mms_lower_bound(2, F(3, 5)) == F(3, 5)
        assert mms_lower_bound(2, F(3, 5), 2) == F(3, 5)

    def test_restricted_m(self):
        assert mms_lower_bound(2, F(7, 20), 3) == F(13, 20)

    def test_exact_multiple(self):
        assert mms_lower_bound(4, F(1, 8)) == F(1, 4)

    def test_unrestricted_interior(self):
        assert mms_lower_bound(2, F(3, 10)) == F(1, 2)


class TestGuarantee:
    def test_examples(self):
        assert guarantee(2, F(7, 25)) == F(3, 5)
        assert guarantee(2, F(3, 10)) == F(3, 5)
        assert guarantee(3, F(1, 2)) == F(1, 2)

    def test_zero_and_edges(self):
        assert guarantee(3, 0) == F(1, 3)
        assert guarantee(2, 1) == 1
        assert guarantee(1, F(1, 2)) == 1

    def test_domain_errors(self):
        # alpha is checked for every n, n == 1 included; n must be an integer >= 1
        for n, a in [(1, F(3, 2)), (1, F(-1, 2)), (2, F(3, 2)), (-2, 0), (0, 0),
                     (0, F(1, 2)), (F(5, 2), F(1, 3)), (2.0, F(1, 3))]:
            with pytest.raises(DomainError):
                guarantee(n, a)

    def test_monotone_hull_on_grid(self):
        # V_n(alpha) = max over beta <= alpha of the unrestricted share.
        # Each bracket's supremum is attained at a point 1/(jn+1), so adding
        # those to a uniform grid makes the discrete hull exact.
        for n in (2, 3, 4):
            grid = sorted(set(F(j, 400) for j in range(1, 400))
                          | set(F(1, j * n + 1) for j in range(1, 202)))
            best = F(0)
            for b in grid:
                best = max(best, hill_share(n, b))
                assert guarantee(n, b) == best
            prev = F(0)
            for b in grid:
                assert guarantee(n, b) >= prev
                prev = guarantee(n, b)

    def test_dominates_bracket_line(self):
        from fairchores.core import classify_guarantee
        for n in (2, 3, 5):
            for j in range(1, 300):
                a = F(j, 300)
                k = classify_guarantee(n, a).k
                assert guarantee(n, a) >= (k + 1) * a

    def test_piece_is_homogeneous(self):
        # the knife reads the piece on (x, r), an agent's first remaining
        # value and remaining mass, never reduced; the reports read it on
        # (x, denom); both rely on any terms giving the same value
        fracs = {F(p, q) for q in range(1, 41) for p in range(q + 1)}
        for n in range(1, 9):
            for a in fracs:
                for c in (1, 3, 10 ** 30):
                    piece = _guarantee_piece(n, c * a.numerator, c * a.denominator)
                    assert F(*piece) == guarantee(n, a), (n, a, c)
            # a zero rest: the knife reads x = r = 0
            assert _guarantee_piece(n, 0, 0) == ((1, 1) if n == 1 else (1, n))


class TestWitnesses:
    def test_upper_examples(self):
        w = witness_upper(3, F(3, 10), 7)
        assert w.claimed_mms == F(7, 15)
        assert sorted(w.vector.values, reverse=True)[:4] == [F(3, 10)] + [F(7, 30)] * 3
        assert w.vector.m == 7

        w = witness_upper(2, F(3, 10), 4)
        assert sorted(w.vector.values, reverse=True) == [F(3, 10)] * 3 + [F(1, 10)]
        assert w.claimed_mms == F(3, 5)

        w = witness_upper(2, F(1, 4), 5)
        assert sorted(w.vector.values, reverse=True) == [F(1, 4)] + [F(3, 16)] * 4
        assert w.claimed_mms == F(9, 16)

    def test_upper_tightness_spot(self):
        for n, a, m in [(2, F(1, 4), 5), (2, F(3, 10), 4), (3, F(3, 10), 7),
                        (2, F(27, 100), None), (3, F(7, 20), 3), (4, F(1, 5), None)]:
            w = witness_upper(n, a, m)
            assert exact_mms(w.vector, n) == hill_share(n, a, m)

    def test_lower_examples(self):
        w = witness_lower(2, F(3, 5))
        assert sorted(w.vector.values, reverse=True) == [F(3, 5), F(2, 5)]
        assert w.claimed_mms == F(3, 5)

        w = witness_lower(2, F(1, 4), 4)
        assert w.vector.values == (F(1, 4),) * 4
        assert w.claimed_mms == F(1, 2)

        w = witness_lower(2, F(7, 20), 3)
        assert sorted(w.vector.values, reverse=True) == [F(7, 20), F(7, 20), F(3, 10)]
        assert w.claimed_mms == F(13, 20)

    def test_lower_tightness_spot(self):
        for n, a, m in [(2, F(3, 5), None), (2, F(7, 20), 3), (4, F(1, 8), None),
                        (3, F(1, 7), None), (2, F(3, 10), None)]:
            w = witness_lower(n, a, m)
            assert exact_mms(w.vector, n) == mms_lower_bound(n, a, m)

    def test_witness_alpha_and_size(self):
        w = witness_upper(3, F(3, 10), 9)
        assert w.vector.alpha() == F(3, 10) and w.vector.m == 9
        assert w.vector.total() == 1

    def test_witness_too_long_to_build(self):
        # a + b = 1 + 2(k+1) objects with k ~ 10**30: rejected before any list
        with pytest.raises(DomainError, match="objects"):
            witness_upper(2, F(1, 10**30))


class TestWitnessRowParity:
    """`_witness` builds its row reduced, in closed form: the gcd of the
    denominator q*b and the entries p*b and r = q - a*p.  The row must be
    the one a gcd pass over the whole unreduced list gives, in lowest terms.
    Rows of one alpha repeat across n, so each reference is built once."""

    def test_rows_match_the_reduced_list(self):
        rows = 0
        for q in range(2, 30):
            for p in range(1, q):
                if math.gcd(p, q) != 1:
                    continue
                alpha, c, refs = F(p, q), -(-q // p), {}
                for n in range(2, 9):
                    for m in [None, *range(c, c + 3 * n + 4)]:
                        for build, piece in ((witness_upper, _upper_piece),
                                             (witness_lower, _lower_piece)):
                            vec = build(n, alpha, m).vector
                            a, b = piece(n, p, q, m)[3:]
                            ref = refs.get((a, b, m))
                            if ref is None:
                                ints = [p * b] * a + [q - a * p] * b
                                if m is not None:
                                    ints += [0] * (m - a - b)
                                ref = refs[a, b, m] = DisutilityVector._of_view(
                                    ints, q * b, True)
                            assert (vec.ints, vec.denom, vec.normalized) == (
                                ref.ints, ref.denom, ref.normalized), (n, alpha, m)
                            rows += 1
                for ref in refs.values():
                    assert math.gcd(ref.denom, *ref.ints) == 1, (alpha, ref)
        assert rows == 75_320


class TestRootCertificates:
    """Both witness families are tight on criteria 1-2's grid construction
    widened to n <= 20, k <= 10, checked without a search: each witness's
    claim must equal its `root_certificate` (an LPT partition meeting a
    root bound), or `exact_mms` where no bound meets the partition."""

    def test_claims_equal_their_certificates(self):
        terms, searched = {}, []
        for n, a, m in share_grid(n_max=20, k_max=10):
            for build, share in ((witness_upper, hill_share),
                                 (witness_lower, mms_lower_bound)):
                w = build(n, a, m)
                claim = share(n, a, m)
                assert w.claimed_mms == claim, (build.__name__, n, a, m)
                cert = root_certificate(w.vector, n)
                if cert is None:
                    searched.append((build.__name__, n, a, m))
                    assert exact_mms(w.vector, n) == claim, searched[-1]
                    continue
                term, value = cert
                assert value == claim, (build.__name__, n, a, m, term)
                terms[term] = terms.get(term, 0) + 1
        # 15,976 rows; only two need the search
        assert searched == [("witness_upper", 2, F(3, 11), 7),
                            ("witness_upper", 2, F(3, 11), None)]
        assert terms == {"largest": 994, "average": 7229, "pigeonhole": 7751}


class TestRatios:
    def test_examples(self):
        assert theoretical_ratio(2, F(1, 3)) == F(4, 3)
        assert theoretical_ratio(2, F(3, 5)) == 1
        assert theoretical_ratio(10, F(1, 10)) == hill_share(10, F(1, 10)) * 10

    def test_ceiling(self):
        assert ratio_ceiling(2) == F(4, 3)
        assert ratio_ceiling(5) == F(10, 6)

    def test_ceiling_at_exact_breakpoints(self):
        """Every closed-form breakpoint for n <= 12, k <= 7, and its 1e-12
        neighbours, with m unrestricted and from ceil(1/alpha) to 3n+3 past
        it: the ratio stays at or below 2n/(n+1) and reaches it for each n.
        This is in addition to the 10,000-point grid of criterion 5."""
        eps = F(1, 10 ** 12)
        for n in range(2, 13):
            points = {F(7, 27), F(2, 7), F(3, 11)}  # n=2, k=1 special pieces
            for k in range(8):
                points |= {
                    F(1, (k + 1) * n + 1), F(1, k * n + 1),  # bracket ends
                    F(k + 2, n * (k + 1) ** 2 + k + 2),       # D/I split
                    F(k + 2, (k + 1) * ((k + 1) * n + 1)),    # NI/IV split
                }
                if k:
                    points.add(F(1, k * n))  # best-case even split
            cap, best = ratio_ceiling(n), F(0)
            for p in points:
                for a in (p - eps, p, p + eps):
                    if not 0 < a < 1:
                        continue
                    c = ceil_inv(a)
                    for m in (None, *range(c, c + 3 * n + 4)):
                        r = theoretical_ratio(n, a, m)
                        assert r <= cap, (n, a, m, r)
                        best = max(best, r)
            assert best == cap, (n, best)

    def test_high_ratio_ranges_shape(self):
        assert high_ratio_ranges(3) == ((F(2, 9), F(1, 3)),)
        assert high_ratio_ranges(2) == ()
        lo, hi = high_ratio_ranges(12)[0]
        assert hi - lo < F(7, 6 * 12)


class TestShareMonotonicity:
    def test_decreasing_in_n(self):
        for j in range(1, 60):
            a = F(j, 61)
            prev = None
            for n in range(2, 9):
                h = hill_share(n, a)
                if prev is not None:
                    assert h <= prev
                prev = h

    def test_increasing_then_constant_in_m(self):
        for n in (2, 3, 4):
            for a in (F(1, 4), F(3, 10), F(2, 7), F(1, 5), F(7, 20)):
                from fairchores.core import ceil_inv
                m0, m1 = ceil_inv(a), natural_object_count(a)
                prev = None
                for m in range(m0, m1 + 4):
                    h = hill_share(n, a, m)
                    if prev is not None:
                        if m <= m1:
                            assert h >= prev
                        else:
                            assert h == prev
                    prev = h
                assert hill_share(n, a, m1) == hill_share(n, a)


def _reference_alphas(n: int) -> list:
    """400 seeded points j/10007, 40 with denominators up to 10**12, and every
    bracket end and D/I and NI/IV split for k < 8 (the n = 2 steps too), each
    also moved by -+10**-12; all inside (0, 1)."""
    rng = random.Random(f"reference:{n}")
    alphas = [F(j, 10007) for j in rng.sample(range(1, 10007), 400)]
    for _ in range(40):
        q = rng.randrange(2, 10 ** 12)
        alphas.append(F(rng.choice((1, 2, 3, rng.randrange(1, q))), q))
    ends = [e for k in range(8) for e in (
        F(1, k * n + 1),
        F(k + 2, n * (k + 1) ** 2 + k + 2),
        F(k + 2, (k + 1) * ((k + 1) * n + 1)))]
    if n == 2:
        ends += [F(3, 11), F(7, 27), F(2, 7)]
    eps = F(1, 10 ** 12)
    alphas += [e + d for e in ends for d in (-eps, 0, eps)]
    return [a for a in alphas if 0 < a < 1]


@pytest.mark.parametrize("n", range(2, 61))
def test_integer_pieces_match_fraction_reference(n):
    for alpha in _reference_alphas(n):
        assert guarantee(n, alpha) == reference_guarantee(n, alpha), alpha
        c = ceil_inv(alpha)
        k = bracket_k(n, alpha)
        for m in {None, c, k * n + n, k * n + n + 1}:
            if m is not None and m < c:
                continue
            assert hill_share(n, alpha, m) == reference_upper(n, alpha, m), (alpha, m)
            assert mms_lower_bound(n, alpha, m) == reference_lower(n, alpha, m), (alpha, m)
