import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fairchores import core
from fairchores.allocator import reduce_to_ordered
from fairchores.core import (
    DisutilityVector,
    DomainError,
    ValidationError,
    _ratio,
    as_fraction,
    ceil_inv,
    classify_guarantee,
    classify_theorem1,
    format_instance_csv,
    normalize,
    order_vector,
    parse_instance_csv,
)
from fairchores.experiments import gen_synthetic
from fairchores.shares import natural_object_count, witness_lower, witness_upper

from oracles import reference_fraction, reference_parse
from test_acceptance import _many_zeros_rows, _powerlaw_rows, _uniform_rows

F = Fraction


def test_as_fraction_exact_decimal():
    assert as_fraction(0.35) == F(7, 20)
    assert as_fraction("0.35") == F(7, 20)
    assert as_fraction("7/20") == F(7, 20)
    assert as_fraction(3) == F(3)


def test_as_fraction_measures_text_without_its_whitespace():
    # Fraction ignores surrounding whitespace, so the digit guard must too
    for text in ("1e5000", "1e5000 ", " 1e-5000\n"):
        with pytest.raises(ValueError, match="more than"):
            as_fraction(text)
    assert as_fraction(" 7/20 ") == F(7, 20)


def _outcome(read, x):
    """read(x), or the type and text of the ValueError it raised."""
    try:
        return read(x)
    except ValueError as exc:
        return type(exc), str(exc)


def _check_token(x):
    # _ratio, as_fraction and a one-entry row all read x as the reference does
    expected = _outcome(reference_fraction, x)
    if not isinstance(expected, Fraction):
        assert (_outcome(_ratio, x) == _outcome(as_fraction, x)
                == _outcome(DisutilityVector, [x]) == expected), x
        return
    a, d = expected.numerator, expected.denominator
    assert _ratio(x) == (a, d) and type(a) is type(d) is int, x
    got = as_fraction(x)
    assert type(got) is Fraction and got == expected, x
    row = _outcome(DisutilityVector, [x])
    if a < 0:
        assert row == (ValidationError, "negative disutility entry"), x
    else:
        assert (row.ints, row.denom) == ((a,), d), x


# Tokens on each side of every integer-path test: empty sides of '/' and
# '.', zero denominators, leading zeros, repeated separators, non-ASCII
# digits Fraction accepts (Arabic-Indic) and rejects (superscript, which
# str.isdigit accepts), exponents, underscores, whitespace and signs.
EDGE_TOKENS = ("/5", "5/", "5.", ".5", ".", "", "1/0", "1/00", "0/5", "007", "1.2.3",
               "1/2/3", "1.5/2", "1/2.5", "\u0661\u0662", "\u00b2", "1e3", "1_0", " 7/20 ",
               "+3", "-0", "10/4", "0.000", "3/3", 0, 7, -3, True, F(3, 6), 0.35, -0.5)
TOKEN_ALPHABET = "0123456789/.+-eE_ \u0661\u0662\u00b2"


@pytest.mark.parametrize("tok", EDGE_TOKENS, ids=repr)
def test_token_read_matches_reference(tok):
    _check_token(tok)


@given(st.one_of(
    st.text(TOKEN_ALPHABET, max_size=10),
    st.builds(lambda a, sep, b: a + sep + b, st.text("0123456789", max_size=5),
              st.sampled_from(("/", ".", "")), st.text("0123456789", max_size=5))))
def test_fuzzed_token_read_matches_reference(tok):
    _check_token(tok)


@pytest.mark.parametrize("limit", (None, 640, 0))
def test_token_read_at_the_digit_limit(limit):
    # text of exactly the limit's length is read; one character more is not
    old = sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        n = sys.get_int_max_str_digits() or 5000
        for tok in ("7" * n, "7" * (n + 1), "." + "3" * (n - 1), "." + "3" * n,
                    "2/" + "9" * (n - 2), "2/" + "9" * (n - 1), "1" * (n - 2) + ".5"):
            _check_token(tok)
    finally:
        sys.set_int_max_str_digits(old)


def _csv(rows) -> str:
    head = ",".join(f"object_{j}" for j in range(1, len(rows[0]) + 1))
    return "\n".join([head] + [",".join(map(str, r)) for r in rows]) + "\n"


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValidationError as exc:
        return str(exc)


def _check_parse(text):
    expected = _parse_outcome(reference_parse, text)
    got = _parse_outcome(parse_instance_csv, text)
    if not isinstance(got, str):
        got = [(row.ints, row.denom, row.normalized) for row in got.profile]
    assert got == expected, text


MIXED_CSV = ("# decimals, p/q, exponents, signs and a zero row\n"
             "object_1, object_2,object_3,object_4,object_5,object_6\n"
             "0.35, 7/20 ,1e-2,+3,.5,2.50\n"
             "0,0.0,00,0/7,-0,+0\n"
             "1E2,+1/3,1_0,3/6,5.,\u0661\u0662\n")


def test_parse_matches_fraction_per_cell_reference():
    rng = random.Random(22)
    for trial in range(60):
        make = (_uniform_rows, _powerlaw_rows, _many_zeros_rows)[trial % 3]
        n, m = rng.randint(1, 6), rng.randint(1, 40)
        _check_parse(_csv(make(rng, n, m)))
    _check_parse(MIXED_CSV)
    head = "object_1,object_2\n1,1\n"
    for bad in ("1,x", "-1,2", "1/0,1", "1,2,3", "1e5000,1", "+,1", "1e4299,1e-4299",
                "1.2.3,1", "/5,1", "5/,1", "\u00b2,1"):
        _check_parse(head + bad + "\n3/4,1\n")
        _check_parse(head + "2,2\n" + bad + "\n")


def _repeated_tokens() -> tuple[list, list]:
    """(good, bad) cell texts for files that repeat them: the forms instance
    files use and forms only Fraction reads; non-ASCII digits Fraction
    accepts and rejects, a sign, a zero denominator, junk and a token one
    character past the digit limit; each also padded with whitespace."""
    good = ["0", "7", "7/20", "0.35", ".5", "2.50", "1e-2", "+3", "1_0", "\u0661\u0662"]
    bad = ["\u00b2", "-1", "1/0", "abc", "7" * (sys.get_int_max_str_digits() + 1)]
    def pad(toks):
        return toks + [f" {t} " for t in toks] + [f"\t{t}" for t in toks]
    return pad(good), pad(bad)


def test_parse_of_repeated_tokens_matches_reference():
    # a file reads each distinct cell text once; rows, error texts and
    # error lines must be those of a read of every cell
    good, bad = _repeated_tokens()
    rng = random.Random("repeated-tokens")
    for trial in range(240):
        n, m = rng.randint(1, 6), rng.randint(1, 8)
        alphabet = rng.sample(good, rng.randint(1, 4))
        rows = [[rng.choice(alphabet) for _ in range(m)] for _ in range(n)]
        for _ in range(trial % 3):  # bad tokens from some line on, repeated below
            tok = rng.choice(bad)
            for row in rows[rng.randrange(n):]:
                row[rng.randrange(m)] = tok
        _check_parse(_csv(rows))
    for tok in bad:
        # first on line 4, again on line 6: the error names line 4
        text = f"object_1,object_2\n7,0.35\n7, 7/20\n{tok},7\n7,7\n7,{tok}\n"
        _check_parse(text)
        assert _parse_outcome(parse_instance_csv, text).startswith("line 4: "), tok


def test_parse_reads_each_distinct_cell_text_once(monkeypatch):
    # an 8x60 file of 0 and 1-9, as the cli benchmark writes: one _ratio
    # per distinct text, and a second call reads each text again
    rng = random.Random("distinct-cells")
    rows = [[0 if rng.random() < 0.6 else rng.randrange(1, 10) for _ in range(60)]
            for _ in range(8)]
    text = _csv(rows)
    want = parse_instance_csv(text)
    calls = []
    monkeypatch.setattr(core, "_ratio", lambda x: calls.append(x) or _ratio(x))
    distinct = sorted({str(x) for row in rows for x in row})
    for reads in (1, 2):
        assert parse_instance_csv(text) == want
        assert sorted(calls) == sorted(distinct * reads)
    assert len(distinct) == 10


def test_parse_keeps_nothing_between_calls():
    # a token that raised raises again, and a token read under a raised
    # digit limit is refused once the limit is lowered
    for _ in range(2):
        with pytest.raises(ValidationError, match="^line 3: Invalid literal"):
            parse_instance_csv("object_1,object_2\n1,2\n1,abc\n")
    old = sys.get_int_max_str_digits()
    limit = old or 4300
    text = f"object_1,object_2\n{'7' * (limit + 100)},1\n"
    try:
        sys.set_int_max_str_digits(limit + 200)
        assert parse_instance_csv(text).profile[0].normalized
        sys.set_int_max_str_digits(limit)
        with pytest.raises(ValidationError,
                           match=f"^line 2: entry has more than {limit} digits"):
            parse_instance_csv(text)
    finally:
        sys.set_int_max_str_digits(old)


# Each call's text would build an integer of 10**8 digits.  They run in a
# process of their own, so that a missing guard fails on the timeout instead
# of stalling the suite.
OVER_LONG_CALLS = (
    'DisutilityVector(["1e100000000", "1"])',
    'normalize([["1e100000000", 1]])',
    'hill_share(2, "1e-100000000")',
    'witness_upper(2, "1e-100000000")',
    'guarantee(2, "1e-100000000")',
    'ceil_inv("1e-100000000")',
)


def test_over_long_text_is_rejected_at_once():
    script = (
        "import sys, time\n"
        "from fairchores import *\n"
        "for call in sys.argv[1:]:\n"
        "    start = time.perf_counter()\n"
        "    try:\n"
        "        eval(call)\n"
        "    except ValueError as exc:\n"
        "        print(time.perf_counter() - start < 1, type(exc).__name__, exc)\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *OVER_LONG_CALLS], env=env,
                          capture_output=True, text=True, timeout=60)
    limit = sys.get_int_max_str_digits()
    expected = f"True ValueError entry has more than {limit} digits"
    assert proc.stdout.splitlines() == [expected] * len(OVER_LONG_CALLS), proc.stderr


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
    with pytest.raises(ValidationError):
        normalize([])


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


def test_every_construction_path_gives_the_canonical_row():
    # rows built from integers must carry the same least common denominator
    # as the Fraction constructor, or equal rows would compare unequal
    rng = random.Random(14)
    rows = list(normalize([[2, 4, 0], [0, 0, 0], [3, "1/2", 7], ["1/6", "1/10", 0]]).profile)
    rows += [order_vector(row)[0] for row in rows]
    rows += [gen_synthetic(m, rng) for m in (1, 2, 5, 12)]
    for n in (2, 3, 4):
        for j in range(1, 30):
            for m in (None, 6, 12):
                for make in (witness_upper, witness_lower):
                    try:
                        rows.append(make(n, F(j, 30), m).vector)
                    except DomainError:
                        pass
    rows += [DisutilityVector((F(0), F(0))), DisutilityVector(())]
    for row in rows:
        rebuilt = DisutilityVector(row.values, row.normalized)
        assert row == rebuilt and hash(row) == hash(rebuilt), row
        ints, denom = row.scaled()
        assert [F(x, denom) for x in ints] == list(row.values), row


def test_constructor_converts_its_entries():
    # entries are read as as_fraction reads them, so no caller converts first
    assert DisutilityVector((0.5, 0.5), True) == DisutilityVector((F(1, 2), F(1, 2)), True)
    assert DisutilityVector((0.35, 0.65), True).values == (F(7, 20), F(13, 20))
    assert DisutilityVector(("1/3", "2/3"), True) == DisutilityVector((F(1, 3), F(2, 3)), True)
    row = DisutilityVector((F(1, 4) * k for k in range(3)))
    assert (row.ints, row.denom, row.normalized) == ((0, 1, 2), 4, False)
    with pytest.raises(ValueError):
        DisutilityVector(("abc",))


def test_order_vector_stable():
    v = DisutilityVector((F(1, 10), F(2, 5), F(1, 2)), True)
    o, perm = order_vector(v)
    assert o.values == (F(1, 2), F(2, 5), F(1, 10))
    assert perm == (2, 1, 0)
    tied = DisutilityVector((F(1, 4), F(1, 2), F(1, 4)), True)
    o2, perm2 = order_vector(tied)
    assert perm2 == (1, 0, 2)



def _construction_corpus() -> list:
    """The rows of test_every_construction_path_gives_the_canonical_row: one
    from each constructor, witnesses at several m, zero and empty rows."""
    rng = random.Random(14)
    rows = list(normalize([[2, 4, 0], [0, 0, 0], [3, "1/2", 7], ["1/6", "1/10", 0]]).profile)
    rows += [order_vector(row)[0] for row in rows]
    rows += [gen_synthetic(m, rng) for m in (1, 2, 5, 12)]
    for n in (2, 3, 4):
        for j in range(1, 30):
            for m in (None, 6, 12):
                for make in (witness_upper, witness_lower):
                    try:
                        rows.append(make(n, F(j, 30), m).vector)
                    except DomainError:
                        pass
    return rows + [DisutilityVector((F(0), F(0))), DisutilityVector(())]


def test_order_vector_equals_the_gcd_reduced_row():
    # every row is in lowest terms, so the sorted row keeps its denominator:
    # it equals the row that one gcd pass over the permuted integers gives
    for row in _construction_corpus():
        ordered, perm = order_vector(row)
        reduced = DisutilityVector._of_view([row.ints[j] for j in perm], row.denom,
                                            row.normalized)
        assert ((ordered.ints, ordered.denom, ordered.normalized)
                == (reduced.ints, reduced.denom, reduced.normalized)), row


@pytest.mark.parametrize("n, m", [(4, 175), (12, 90)])
def test_reduction_runs_no_gcd(monkeypatch, n, m):
    # a permutation keeps lowest terms, so sorting a row runs no gcd pass
    rng = random.Random(f"gcd:{n}:{m}")
    makers = (_uniform_rows, _powerlaw_rows, _many_zeros_rows)
    insts = [normalize([makers[(i + a) % 3](rng, 1, m)[0] for a in range(n)])
             for i in range(3)]
    calls = []
    gcd = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or gcd(*args))
    for inst in insts:
        reduce_to_ordered(inst)
        assert calls == []

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


def test_ceil_inv_rejects_alpha_outside_unit_interval():
    for alpha in (0, F(-1, 2), F(3, 2), -0.3):
        for f in (ceil_inv, natural_object_count):
            with pytest.raises(DomainError):
                f(alpha)


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


def test_csv_errors_name_their_line():
    head = "object_1,object_2\n1,1\n"
    for row, why in (("-1,2", "negative disutility entry"), ("1,x", "Invalid literal"),
                     ("1e4299,1e-4299", "normalised row too long to print")):
        with pytest.raises(ValidationError, match=f"^line 3: {why}"):
            parse_instance_csv(head + row + "\n")


def test_csv_first_bad_line_wins():
    # a row too long once normalised on line 2 is reported before a
    # malformed token on line 3: each line is read and checked in turn
    with pytest.raises(ValidationError, match="^line 2: normalised row"):
        parse_instance_csv("object_1,object_2\n1e4299,1e-4299\nabc,1\n")


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
