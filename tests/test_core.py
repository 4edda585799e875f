import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fairchores.core import (
    DisutilityVector,
    DomainError,
    ValidationError,
    as_fraction,
    ceil_inv,
    classify_guarantee,
    classify_theorem1,
    format_instance_csv,
    normalize,
    order_vector,
    parse_instance_csv,
)

F = Fraction


def test_as_fraction_exact_decimal():
    assert as_fraction(0.35) == F(7, 20)
    assert as_fraction("0.35") == F(7, 20)
    assert as_fraction("7/20") == F(7, 20)
    assert as_fraction(3) == F(3)


def test_normalize_rows_sum_to_one():
    inst = normalize([[3, 2, 2, 1], [1, 1, 1, 1]])
    assert inst.n == 2 and inst.m == 4
    assert inst.profile[0].values == (F(3, 8), F(1, 4), F(1, 4), F(1, 8))
    assert all(row.total() == 1 for row in inst.profile)


def test_normalize_zero_row_flagged():
    inst = normalize([[0, 0, 0], [1, 1, 2]])
    assert not inst.profile[0].normalized
    assert inst.profile[0].alpha() == 0
    assert inst.profile[1].normalized


def test_normalize_rejects_negative_and_ragged():
    with pytest.raises(ValidationError):
        normalize([[1, -1]])
    with pytest.raises(ValidationError):
        normalize([[1, 2], [1]])


def test_vector_checks_reject_bad_rows():
    with pytest.raises(ValidationError):
        DisutilityVector((F(1, 2), F(1, 3)), True)
    with pytest.raises(ValidationError):
        DisutilityVector((F(3, 2), F(-1, 2)), True)
    with pytest.raises(ValidationError):
        DisutilityVector((F(1, 2), F(-1, 7), 2))


def test_scaled_is_exact_over_least_common_denominator():
    values = (F(1, 4), F(0), F(1, 6), F(1, 4), F(0), F(1, 3))
    v = DisutilityVector(values, True)
    ints, d = v.scaled()
    assert d == 12 and ints == [3, 0, 2, 3, 0, 4]
    assert all(F(ints[j], d) == values[j] for j in range(len(values)))
    assert DisutilityVector((F(0), F(0))).scaled() == ([0, 0], 1)


def test_order_vector_stable():
    v = DisutilityVector((F(1, 10), F(2, 5), F(1, 2)), True)
    o, perm = order_vector(v)
    assert o.values == (F(1, 2), F(2, 5), F(1, 10))
    assert perm == (2, 1, 0)
    tied = DisutilityVector((F(1, 4), F(1, 2), F(1, 4)), True)
    o2, perm2 = order_vector(tied)
    assert perm2 == (1, 0, 2)


def test_classify_theorem1_examples():
    r = classify_theorem1(2, F(3, 10))
    assert (r.k, r.tag) == (1, "I")
    r = classify_theorem1(2, F(1, 4))
    assert (r.k, r.tag) == (1, "D")
    r = classify_theorem1(3, F(3, 10))
    assert (r.k, r.tag) == (0, "D")
    # boundary: alpha = (k+2)/(n(k+1)^2+k+2) belongs to D
    assert classify_theorem1(3, F(2, 5)).tag == "D"
    assert classify_theorem1(3, F(2, 5) + F(1, 1000)).tag == "I"


def test_classify_guarantee_examples():
    r = classify_guarantee(2, F(7, 25))
    assert (r.k, r.tag) == (1, "NI")
    # boundary (k+2)/((k+1)((k+1)n+1)) is IV (closed-left)
    assert classify_guarantee(2, F(3, 10)).tag == "IV"
    assert classify_guarantee(2, F(3, 10) - F(1, 1000)).tag == "NI"
    assert classify_guarantee(2, F(1, 2)).tag == "NI"
    assert classify_guarantee(2, F(2, 3)).tag == "IV"


def _check_regions(n, alpha):
    r = classify_theorem1(n, alpha)
    k = r.k
    assert F(1, (k + 1) * n + 1) < alpha <= F(1, k * n + 1)
    split = F(k + 2, n * (k + 1) ** 2 + k + 2)
    assert (r.tag == "D") == (alpha <= split)
    g = classify_guarantee(n, alpha)
    assert g.k == k
    gsplit = F(k + 2, (k + 1) * ((k + 1) * n + 1))
    assert (g.tag == "NI") == (alpha < gsplit)


@given(st.integers(2, 8),
       st.fractions(min_value=F(1, 1000), max_value=1))
def test_region_families_tile(n, alpha):
    _check_regions(n, alpha)


def test_region_breakpoints_at_large_k():
    """Every bracket end and split for n <= 60, k <= 30, and its 1e-12
    neighbours: random sampling rarely lands on a breakpoint."""
    eps = F(1, 10 ** 12)
    for n in range(2, 61):
        for k in range(31):
            for b in (F(1, k * n + 1),                          # bracket end
                      F(k + 2, n * (k + 1) ** 2 + k + 2),        # D/I split
                      F(k + 2, (k + 1) * ((k + 1) * n + 1))):    # NI/IV split
                for a in (b - eps, b, b + eps):
                    if a <= 1:
                        _check_regions(n, a)


def test_classifiers_reject_non_integer_n():
    for classify in (classify_theorem1, classify_guarantee):
        with pytest.raises(DomainError):
            classify(F(5, 2), F(1, 3))


def test_ceil_inv():
    assert ceil_inv(F(3, 10)) == 4
    assert ceil_inv(F(1, 3)) == 3
    assert ceil_inv(F(1)) == 1
    assert ceil_inv(0.3) == 4


def test_csv_round_trip():
    inst = normalize([["0.35", "0.35", "0.3"], ["1/3", "1/3", "1/3"]])
    text = format_instance_csv(inst, comments=("hello",))
    back = parse_instance_csv(text)
    assert back.profile == inst.profile


def test_csv_parse_errors():
    with pytest.raises(ValidationError):
        parse_instance_csv("")
    with pytest.raises(ValidationError):
        parse_instance_csv("object_1,object_2\n1\n")
    with pytest.raises(ValidationError):
        parse_instance_csv("bad,header\n1,2\n")
    with pytest.raises(ValidationError):
        parse_instance_csv("object_1,object_2\n-1,2\n")
    with pytest.raises(ValidationError):
        parse_instance_csv("object_1,object_2\n")


def test_csv_rejects_entries_too_long_to_print():
    limit = sys.get_int_max_str_digits()
    text = "# huge\nobject_1,object_2\n1,1\n1e200000,1\n"
    with pytest.raises(ValidationError, match="line 4: .*digits"):
        parse_instance_csv(text)
    with pytest.raises(ValidationError, match="line 2"):
        parse_instance_csv("object_1\n" + "1" * (limit + 1) + "\n")
    with pytest.raises(ValidationError, match="line 2"):
        parse_instance_csv("object_1\n1e" + "9" * 30 + "\n")
    inst = parse_instance_csv(f"object_1,object_2\n1e{limit - 1},1\n")
    assert str(inst.profile[0].values[1])  # at the limit, still printable


def test_csv_comments_and_fractions():
    text = "# a comment\nobject_1,object_2,object_3\n1/3,1/3,1/3\n"
    inst = parse_instance_csv(text)
    assert inst.profile[0].values == (F(1, 3),) * 3


@given(st.lists(st.fractions(min_value=0, max_value=10), min_size=1, max_size=8)
       .filter(lambda r: sum(r) > 0))
def test_normalize_then_format_round_trips(row):
    inst = normalize([row])
    back = parse_instance_csv(format_instance_csv(inst))
    assert back.profile == inst.profile
