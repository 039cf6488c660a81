"""Core arithmetic and primitive tests for the computable model."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logcouple.element import (
    GammaElement,
    INF,
    ZERO,
    arch_class,
    compare,
    delta,
    format_element,
    integral,
    is_psi_point,
    parse_element,
    parse_rational,
    pred,
    psi,
    psi_point,
    psi_point_index,
    psi_precedes,
    rv_equiv,
    small_diff_witness,
    staircase_size,
    staircase_sum,
    succ,
    unit,
)
from logcouple.psifun import PsiFunction
from logcouple.terms import GenSFunction


def el(text):
    return parse_element(text)


def brute_integral(a, search_bound=64):
    """Independent oracle: solve beta + psi(beta) = a by scanning the leading
    index of beta and verifying the round trip.  Returns the unique solution."""
    hits = []
    for n in range(search_bound):
        beta = a - psi_point(n + 1)
        if not beta.is_zero and beta.leading_index == n and beta + psi(beta) == a:
            hits.append(beta)
    assert len(hits) == 1, f"integral not unique in window for {a!r}: {hits}"
    return hits[0]


# Strategy for small exact elements.
fractions_st = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
elements_st = st.builds(
    GammaElement.from_list, st.lists(fractions_st, min_size=0, max_size=6)
)
nonzero_elements_st = elements_st.filter(lambda x: not x.is_zero)
# Sparse elements with wider indices, so sums also merge disjoint supports.
sparse_elements_st = st.dictionaries(st.integers(0, 12), fractions_st, max_size=6).map(GammaElement)
scalars_st = st.one_of(fractions_st, st.integers(-5, 5))


def summed(*terms):
    """The coordinate dict of sum q * x over (q, x) pairs, not normalised."""
    acc = {}
    for q, x in terms:
        for n, c in x.items():
            acc[n] = acc.get(n, 0) + q * c
    return acc


def assert_canonical_equal(got, coords):
    """got is canonical and equals GammaElement(coords), built through the
    validating constructor, in value, stored form and hash."""
    want = GammaElement(coords)
    indices = [n for n, _ in got.items()]
    assert indices == sorted(set(indices))
    assert all(type(q) is Fraction and q for _, q in got.items())
    assert got == want and got.items() == want.items() and hash(got) == hash(want)


class TestArithmeticAndOrder:
    def test_add_examples(self):
        assert el("[1, 1/2]") + el("[0, 1/2, 3]") == el("[1, 1, 3]")
        assert el("[5]") + INF is INF
        a = el("[2, -1/3]")
        assert a + (-a) == ZERO

    def test_compare_examples(self):
        assert compare(el("[1, -5]"), el("[0, 100]")) > 0
        assert compare(ZERO, el("[0, 0, -1/3]")) > 0
        assert compare(el("[7]"), INF) < 0

    def test_infinity_ordering(self):
        assert INF > el("[100]")
        assert el("[-3]") < INF
        assert compare(INF, INF) == 0
        assert INF >= INF and INF <= INF

    def test_trailing_zeros_stripped(self):
        assert el("[1, 0, 0]") == el("[1]")
        assert format_element(el("[0, 2, 0]")) == "[0, 2]"

    def test_literal_round_trip(self):
        for text in ["[]", "inf", "[1]", "[0, -1/3, 5]", "[-7/2]"]:
            assert format_element(el(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_element("1, 2")
        with pytest.raises(ValueError):
            parse_element("[1/0]")
        with pytest.raises(ValueError):
            parse_element("[1/-2]")

    def test_literal_equals_its_parsed_rationals(self):
        # parse_element reads each part in parse_rational's grammar, with the
        # same error, and puts the parts over one denominator
        rng = random.Random(29)
        for _ in range(2000):
            parts = []
            for _ in range(rng.randint(1, 8)):
                num = rng.choice([0, 0, 1, -1, 2, -3, 12, rng.randint(-10**9, 10**9)])
                sign = "+" if num >= 0 and rng.random() < 0.2 else ""
                pad = rng.choice(["", " "])
                den = rng.choice(["", "/1", "/2", "/4", "/6", f"/{pad}{rng.randint(1, 60)}"])
                if rng.random() < 0.01:
                    den = rng.choice(["/0", "/-2", "x", "/"])
                parts.append(f"{pad}{sign}{num}{pad}{den}")
            text = "[" + ",".join(parts) + "]"
            try:
                want = GammaElement.from_list(parse_rational(part) for part in text[1:-1].strip().split(","))
            except ValueError as error:
                with pytest.raises(ValueError) as caught:
                    parse_element(text)
                assert str(caught.value) == str(error), text
            else:
                assert parse_element(text) == want, text

    @given(elements_st, elements_st, elements_st)
    def test_group_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + ZERO == a
        assert a + (-a) == ZERO

    @given(elements_st, elements_st)
    def test_order_translation_invariant(self, a, b):
        if a < b:
            assert a + unit(3) < b + unit(3)
            assert -b < -a


# The outcome of + - * == != < <= > >=, in that order, for every
# pair of operands in which a group element or INF takes part: a value in
# the literal syntax, T or F, or the exception raised (TE TypeError, VE
# ValueError).  INF's rules live in _Infinity alone, so a mixed pair is
# answered by its reflected method or by the identity fallback of ==.
_OPERANDS = {
    "0": ZERO,
    "e1": unit(1),
    "-e1": -unit(1),
    "e3/2": unit(3) * Fraction(1, 2),
    "E3": psi_point(3),
    "inf": INF,
    "int0": 0,
    "int2": 2,
    "1/2": Fraction(1, 2),
    "1.5": 1.5,
    "None": None,
    "'x'": "x",
}
_BINARY = [
    operator.add, operator.sub, operator.mul,
    operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge,
]
_OPERATOR_TABLE = """
0    0    [] | [] | TE | T | F | F | T | F | T
0    e1   [0, 1] | [0, -1] | TE | F | T | T | T | F | F
0    -e1  [0, -1] | [0, 1] | TE | F | T | F | F | T | T
0    e3/2 [0, 0, 0, 1/2] | [0, 0, 0, -1/2] | TE | F | T | T | T | F | F
0    E3   [1, 1, 1] | [-1, -1, -1] | TE | F | T | T | T | F | F
0    inf  inf | inf | TE | F | T | T | T | F | F
0    int0 TE | TE | [] | F | T | TE | TE | TE | TE
0    int2 TE | TE | [] | F | T | TE | TE | TE | TE
0    1/2  TE | TE | [] | F | T | TE | TE | TE | TE
0    1.5  TE | TE | TE | F | T | TE | TE | TE | TE
0    None TE | TE | TE | F | T | TE | TE | TE | TE
0    'x'  TE | TE | TE | F | T | TE | TE | TE | TE
e1   0    [0, 1] | [0, 1] | TE | F | T | F | F | T | T
e1   e1   [0, 2] | [] | TE | T | F | F | T | F | T
e1   -e1  [] | [0, 2] | TE | F | T | F | F | T | T
e1   e3/2 [0, 1, 0, 1/2] | [0, 1, 0, -1/2] | TE | F | T | F | F | T | T
e1   E3   [1, 2, 1] | [-1, 0, -1] | TE | F | T | T | T | F | F
e1   inf  inf | inf | TE | F | T | T | T | F | F
e1   int0 TE | TE | [] | F | T | TE | TE | TE | TE
e1   int2 TE | TE | [0, 2] | F | T | TE | TE | TE | TE
e1   1/2  TE | TE | [0, 1/2] | F | T | TE | TE | TE | TE
e1   1.5  TE | TE | TE | F | T | TE | TE | TE | TE
e1   None TE | TE | TE | F | T | TE | TE | TE | TE
e1   'x'  TE | TE | TE | F | T | TE | TE | TE | TE
-e1  0    [0, -1] | [0, -1] | TE | F | T | T | T | F | F
-e1  e1   [] | [0, -2] | TE | F | T | T | T | F | F
-e1  -e1  [0, -2] | [] | TE | T | F | F | T | F | T
-e1  e3/2 [0, -1, 0, 1/2] | [0, -1, 0, -1/2] | TE | F | T | T | T | F | F
-e1  E3   [1, 0, 1] | [-1, -2, -1] | TE | F | T | T | T | F | F
-e1  inf  inf | inf | TE | F | T | T | T | F | F
-e1  int0 TE | TE | [] | F | T | TE | TE | TE | TE
-e1  int2 TE | TE | [0, -2] | F | T | TE | TE | TE | TE
-e1  1/2  TE | TE | [0, -1/2] | F | T | TE | TE | TE | TE
-e1  1.5  TE | TE | TE | F | T | TE | TE | TE | TE
-e1  None TE | TE | TE | F | T | TE | TE | TE | TE
-e1  'x'  TE | TE | TE | F | T | TE | TE | TE | TE
e3/2 0    [0, 0, 0, 1/2] | [0, 0, 0, 1/2] | TE | F | T | F | F | T | T
e3/2 e1   [0, 1, 0, 1/2] | [0, -1, 0, 1/2] | TE | F | T | T | T | F | F
e3/2 -e1  [0, -1, 0, 1/2] | [0, 1, 0, 1/2] | TE | F | T | F | F | T | T
e3/2 e3/2 [0, 0, 0, 1] | [] | TE | T | F | F | T | F | T
e3/2 E3   [1, 1, 1, 1/2] | [-1, -1, -1, 1/2] | TE | F | T | T | T | F | F
e3/2 inf  inf | inf | TE | F | T | T | T | F | F
e3/2 int0 TE | TE | [] | F | T | TE | TE | TE | TE
e3/2 int2 TE | TE | [0, 0, 0, 1] | F | T | TE | TE | TE | TE
e3/2 1/2  TE | TE | [0, 0, 0, 1/4] | F | T | TE | TE | TE | TE
e3/2 1.5  TE | TE | TE | F | T | TE | TE | TE | TE
e3/2 None TE | TE | TE | F | T | TE | TE | TE | TE
e3/2 'x'  TE | TE | TE | F | T | TE | TE | TE | TE
E3   0    [1, 1, 1] | [1, 1, 1] | TE | F | T | F | F | T | T
E3   e1   [1, 2, 1] | [1, 0, 1] | TE | F | T | F | F | T | T
E3   -e1  [1, 0, 1] | [1, 2, 1] | TE | F | T | F | F | T | T
E3   e3/2 [1, 1, 1, 1/2] | [1, 1, 1, -1/2] | TE | F | T | F | F | T | T
E3   E3   [2, 2, 2] | [] | TE | T | F | F | T | F | T
E3   inf  inf | inf | TE | F | T | T | T | F | F
E3   int0 TE | TE | [] | F | T | TE | TE | TE | TE
E3   int2 TE | TE | [2, 2, 2] | F | T | TE | TE | TE | TE
E3   1/2  TE | TE | [1/2, 1/2, 1/2] | F | T | TE | TE | TE | TE
E3   1.5  TE | TE | TE | F | T | TE | TE | TE | TE
E3   None TE | TE | TE | F | T | TE | TE | TE | TE
E3   'x'  TE | TE | TE | F | T | TE | TE | TE | TE
inf  0    inf | inf | TE | F | T | F | F | T | T
inf  e1   inf | inf | TE | F | T | F | F | T | T
inf  -e1  inf | inf | TE | F | T | F | F | T | T
inf  e3/2 inf | inf | TE | F | T | F | F | T | T
inf  E3   inf | inf | TE | F | T | F | F | T | T
inf  inf  inf | inf | TE | T | F | F | T | F | T
inf  int0 TE | TE | VE | F | T | TE | TE | TE | TE
inf  int2 TE | TE | inf | F | T | TE | TE | TE | TE
inf  1/2  TE | TE | inf | F | T | TE | TE | TE | TE
inf  1.5  TE | TE | TE | F | T | TE | TE | TE | TE
inf  None TE | TE | TE | F | T | TE | TE | TE | TE
inf  'x'  TE | TE | TE | F | T | TE | TE | TE | TE
int0 0    TE | TE | [] | F | T | TE | TE | TE | TE
int0 e1   TE | TE | [] | F | T | TE | TE | TE | TE
int0 -e1  TE | TE | [] | F | T | TE | TE | TE | TE
int0 e3/2 TE | TE | [] | F | T | TE | TE | TE | TE
int0 E3   TE | TE | [] | F | T | TE | TE | TE | TE
int0 inf  TE | TE | VE | F | T | TE | TE | TE | TE
int2 0    TE | TE | [] | F | T | TE | TE | TE | TE
int2 e1   TE | TE | [0, 2] | F | T | TE | TE | TE | TE
int2 -e1  TE | TE | [0, -2] | F | T | TE | TE | TE | TE
int2 e3/2 TE | TE | [0, 0, 0, 1] | F | T | TE | TE | TE | TE
int2 E3   TE | TE | [2, 2, 2] | F | T | TE | TE | TE | TE
int2 inf  TE | TE | inf | F | T | TE | TE | TE | TE
1/2  0    TE | TE | [] | F | T | TE | TE | TE | TE
1/2  e1   TE | TE | [0, 1/2] | F | T | TE | TE | TE | TE
1/2  -e1  TE | TE | [0, -1/2] | F | T | TE | TE | TE | TE
1/2  e3/2 TE | TE | [0, 0, 0, 1/4] | F | T | TE | TE | TE | TE
1/2  E3   TE | TE | [1/2, 1/2, 1/2] | F | T | TE | TE | TE | TE
1/2  inf  TE | TE | inf | F | T | TE | TE | TE | TE
1.5  0    TE | TE | TE | F | T | TE | TE | TE | TE
1.5  e1   TE | TE | TE | F | T | TE | TE | TE | TE
1.5  -e1  TE | TE | TE | F | T | TE | TE | TE | TE
1.5  e3/2 TE | TE | TE | F | T | TE | TE | TE | TE
1.5  E3   TE | TE | TE | F | T | TE | TE | TE | TE
1.5  inf  TE | TE | TE | F | T | TE | TE | TE | TE
None 0    TE | TE | TE | F | T | TE | TE | TE | TE
None e1   TE | TE | TE | F | T | TE | TE | TE | TE
None -e1  TE | TE | TE | F | T | TE | TE | TE | TE
None e3/2 TE | TE | TE | F | T | TE | TE | TE | TE
None E3   TE | TE | TE | F | T | TE | TE | TE | TE
None inf  TE | TE | TE | F | T | TE | TE | TE | TE
'x'  0    TE | TE | TE | F | T | TE | TE | TE | TE
'x'  e1   TE | TE | TE | F | T | TE | TE | TE | TE
'x'  -e1  TE | TE | TE | F | T | TE | TE | TE | TE
'x'  e3/2 TE | TE | TE | F | T | TE | TE | TE | TE
'x'  E3   TE | TE | TE | F | T | TE | TE | TE | TE
'x'  inf  TE | TE | TE | F | T | TE | TE | TE | TE
"""


def _outcome(f, *args):
    try:
        v = f(*args)
    except (TypeError, ValueError) as exc:
        return {TypeError: "TE", ValueError: "VE"}[type(exc)]
    if isinstance(v, bool):
        return "T" if v else "F"
    return format_element(v)


class TestOperatorTable:
    @pytest.mark.parametrize(
        "row", _OPERATOR_TABLE.strip().splitlines(), ids=lambda row: " vs ".join(row.split()[:2])
    )
    def test_binary(self, row):
        a, b, rest = row.split(maxsplit=2)
        x, y = _OPERANDS[a], _OPERANDS[b]
        got = [_outcome(op, x, y) for op in _BINARY]
        assert got == rest.split(" | ")

    @pytest.mark.parametrize(
        "name, neg, absolute",
        [
            ("0", "[]", "[]"),
            ("e1", "[0, -1]", "[0, 1]"),
            ("-e1", "[0, 1]", "[0, 1]"),
            ("e3/2", "[0, 0, 0, -1/2]", "[0, 0, 0, 1/2]"),
            ("E3", "[-1, -1, -1]", "[1, 1, 1]"),
            ("inf", "inf", "TE"),
        ],
    )
    def test_unary(self, name, neg, absolute):
        x = _OPERANDS[name]
        assert (_outcome(operator.neg, x), _outcome(abs, x)) == (neg, absolute)
        assert isinstance(hash(x), int)

    def test_containers_holding_inf(self):
        values = [INF, unit(1), ZERO, -unit(1), psi_point(3), INF]
        order = ["[0, -1]", "[]", "[0, 1]", "[1, 1, 1]", "inf", "inf"]
        assert [format_element(v) for v in sorted(values)] == order
        assert [format_element(v) for v in sorted(values, reverse=True)] == order[::-1]
        assert min(values) == -unit(1) and max(values) is INF
        assert INF not in [ZERO, unit(1)] and INF in [ZERO, INF]
        assert unit(1) in [INF, ZERO, unit(1)]


class TestConstructorNumbers:
    # Labels and coordinate indices are integers; coefficients and coordinate
    # values are ints or Fractions.  Text goes through parse_rational, so no
    # constructor reads Fraction's own string grammar or a float's binary value.
    @pytest.mark.parametrize(
        "build, args, message",
        [
            (PsiFunction, ({0: "1_000"},), "coefficient of x0 must be an int or a Fraction: '1_000'"),
            (PsiFunction, ({0: " 1e3 "},), "coefficient of x0 must be an int or a Fraction: ' 1e3 '"),
            (PsiFunction, ({0: 0.1},), "coefficient of x0 must be an int or a Fraction: 0.1"),
            (PsiFunction, ({0: True},), "coefficient of x0 must be an int or a Fraction: True"),
            (PsiFunction, ({0.7: 1},), "label must be an integer: 0.7"),
            (PsiFunction, ({"3": 1},), "label must be an integer: '3'"),
            (GenSFunction, (1, [(0, 0, 0.5)]), "'coeff' of a term must be an int or a Fraction: 0.5"),
            (GenSFunction, (1, [(0, 0, "1/2")]), "'coeff' of a term must be an int or a Fraction: '1/2'"),
            (GammaElement, ([(0.5, 1)],), "coordinate index must be an integer: 0.5"),
            (GammaElement, ({True: 1},), "coordinate index must be an integer: True"),
            (GammaElement, ([(0, "1")],), "coordinate 0 must be an int or a Fraction: '1'"),
            (GammaElement, ([(2, 0.25)],), "coordinate 2 must be an int or a Fraction: 0.25"),
        ],
    )
    def test_refused_with_one_line(self, build, args, message):
        with pytest.raises(ValueError) as info:
            build(*args)
        assert message in str(info.value) and "\n" not in str(info.value)

    def test_ints_and_fractions_accepted(self):
        assert repr(PsiFunction({0: 2, 1: Fraction(-1, 3)})) == "2 x0 - 1/3 x1"
        assert repr(GenSFunction(1, [(0, 0, Fraction(1, 2)), (0, 1, 3)])) == "1/2*s^0(a0) + 3*s^1(a0) + []"
        assert GammaElement([(0, 1), (2, Fraction(1, 2))]) == el("[1, 0, 1/2]")


class TestDerivedArithmetic:
    """Sums, differences, negations and multiples are built from canonical
    operands without revalidation; each must equal the element the
    validating constructor builds from the summed coordinates."""

    @given(sparse_elements_st, sparse_elements_st, st.lists(st.booleans(), max_size=6))
    def test_sum_and_difference(self, a, b, cancel):
        # b with some coordinates replaced by those of -a, so a + b cancels there
        b = GammaElement({**dict(b.items()), **{n: -q for (n, q), c in zip(a.items(), cancel) if c}})
        assert_canonical_equal(a + b, summed((1, a), (1, b)))
        assert_canonical_equal(a - b, summed((1, a), (-1, b)))
        assert_canonical_equal(b - a, summed((1, b), (-1, a)))

    @given(sparse_elements_st, scalars_st)
    def test_negation_and_multiples(self, a, q):
        assert_canonical_equal(-a, summed((-1, a)))
        assert_canonical_equal(a * q, summed((q, a)))
        assert_canonical_equal(q * a, summed((q, a)))

    @given(sparse_elements_st)
    def test_cancellation_is_empty(self, x):
        assert (x + (-x)).items() == ()
        assert (x - x).items() == ()
        assert (x * 0).items() == ()

    def test_psi_point_is_canonical(self):
        for n in range(1, 9):
            assert_canonical_equal(psi_point(n), {i: 1 for i in range(n)})


def model_cmp(a, b):
    """The sign of a - b for coordinate dicts: that of the first nonzero difference."""
    for n in sorted(set(a) | set(b)):
        d = a.get(n, 0) - b.get(n, 0)
        if d:
            return 1 if d > 0 else -1
    return 0


def model_sum(*terms):
    """The coordinate dict of sum q * a over (q, a) pairs of a rational and a dict."""
    acc = {}
    for q, a in terms:
        for n, c in a.items():
            acc[n] = acc.get(n, 0) + q * c
    return {n: Fraction(c) for n, c in acc.items() if c}


class TestAgainstDictModel:
    """Elements against an independent model, plain dicts of Fractions: each
    element shows its model's coordinates in ``items()``, ``coord`` and
    ``truncate``, is equal and hashes equal exactly where the models agree,
    and orders as the first nonzero coordinate of the models' difference."""

    def check(self, pairs):
        for x, d in pairs:
            assert x.items() == tuple(sorted(d.items()))
            assert all(type(q) is Fraction for _, q in x.items())
            assert [x.coord(n) for n in range(12)] == [d.get(n, 0) for n in range(12)]
            assert x.truncate(12) == tuple(d.get(n, 0) for n in range(12))
            den, nums = x.prefix_numerators(6)
            assert den == math.lcm(*(q.denominator for n, q in d.items() if n < 6))
            assert [Fraction(c, den) for c in nums] == [d.get(n, 0) for n in range(6)]
            assert x.is_zero or (x.leading_index, x.last_index) == (min(d), max(d))
            again = GammaElement(d)
            assert x == again and hash(x) == hash(again)
        for x, dx in pairs:
            for y, dy in pairs:
                want = model_cmp(dx, dy)
                assert compare(x, y) == want
                assert (x < y) == (want < 0) and (x == y) == (want == 0)
                if want == 0:
                    assert hash(x) == hash(y)

    def test_reductions_across_denominators(self):
        F = Fraction
        sixth, third = {0: F(1, 6), 3: F(-5, 6)}, {0: F(1, 3), 3: F(1, 3)}
        x = {0: F(1, 2), 1: F(-2, 3), 4: F(5, 4)}
        a, b = {1: F(3, 10), 2: F(7, 15)}, {0: F(4, 9), 2: F(-1, 6)}
        gx, ga, gb = GammaElement(x), GammaElement(a), GammaElement(b)
        pairs = [
            (GammaElement(sixth) + GammaElement(third), {0: F(1, 2), 3: F(-1, 2)}),
            (GammaElement({0: F(1, 6)}) + GammaElement({0: F(1, 3)}), {0: F(1, 2)}),
            (el("[1/2]"), {0: F(1, 2)}),
            (el("[1/3]"), {0: F(1, 3)}),
            (el("[0, 2/5]"), {1: F(2, 5)}),
            (el("[0, 1/2]"), {1: F(1, 2)}),
            ((gx * F(3, 2)) * F(2, 3), x),
            (gx * F(3, 2), model_sum((F(3, 2), x))),
            (gx, x),
            ((ga + gb) - gb, a),
            (ga + gb, model_sum((1, a), (1, b))),
            (ga - gb, model_sum((1, a), (-1, b))),
            (gb - ga - gb + ga, {}),
            (-gx, model_sum((-1, x))),
        ]
        assert (gx * F(3, 2)) * F(2, 3) == gx and (ga + gb) - gb == ga
        self.check(pairs)

    def test_psi_points_at_the_table_edge(self):
        pairs = []
        for n in (63, 64, 65, 200):
            stairs = {i: Fraction(1) for i in range(n)}
            pairs += [(psi_point(n), stairs), (GammaElement(stairs), stairs)]
            assert psi_point_index(psi_point(n)) == psi_point_index(GammaElement(stairs)) == n
            assert succ(psi_point(n)) == psi_point(n + 1) and pred(psi_point(n + 1)) == psi_point(n)
        self.check(pairs)

    def test_seeded_arithmetic(self):
        rng = random.Random(14)
        dens = (1, 2, 3, 4, 6, 9, 10, 12, 35)

        def draw():
            if rng.random() < 0.2:  # a run of ones, so succ meets several staircase points
                d = {i: Fraction(1) for i in range(rng.randint(1, 4))}
            else:
                d = {}
            for n in rng.sample(range(8), rng.randint(0, 4)):
                d[n] = Fraction(rng.randint(-9, 9), rng.choice(dens))
            return {n: q for n, q in d.items() if q}

        for _ in range(20):
            models = [draw() for _ in range(4)]
            pairs = [(GammaElement(d), d) for d in models]
            for (x, dx), (y, dy) in zip(pairs[:4], pairs[1:4] + pairs[:1]):
                q = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice(dens))
                pairs += [
                    (x + y, model_sum((1, dx), (1, dy))),
                    (x - y, model_sum((1, dx), (-1, dy))),
                    (x * q, model_sum((q, dx))),
                    (-x, model_sum((-1, dx))),
                ]
                ones = next(n for n in range(9) if dx.get(n) != 1)
                assert succ(x) == psi_point(ones + 1)
            self.check(pairs)


class TestStaircase:
    """``staircase_sum`` against the model sum of the staircase dicts
    {0: 1, ..., n - 1: 1}, and ``staircase_size`` against its items."""

    def test_against_dict_model(self):
        rng = random.Random(20)
        dens = (1, 2, 3, 4, 6, 9, 10, 12, 35)
        pairs, sizes = [], []
        for _ in range(300):
            drops = []
            for _ in range(rng.randint(0, 6)):
                n = rng.choice((1, 1, 2, rng.randint(1, 9), rng.randint(1, 70)))
                q = Fraction(rng.choice((-7, -3, -1, 1, 2, 5)), rng.choice(dens))
                drops.append((n, q))
                if rng.random() < 0.3:  # a duplicate index
                    drops.append((n, Fraction(rng.randint(-4, 4), rng.choice(dens))))
                if rng.random() < 0.2:  # a zero-sum group at one index
                    drops.append((n, -q))
            rng.shuffle(drops)
            x = staircase_sum(drops)
            pairs.append((x, model_sum(*((q, dict.fromkeys(range(n), 1)) for n, q in drops))))
            sizes.append((staircase_size(drops), len(x.items())))
        assert all(size == items for size, items in sizes)
        assert sum(not x.is_zero for x, _ in pairs) > 200 and sum(x.is_zero for x, _ in pairs) > 10
        TestAgainstDictModel().check(pairs[:60])
        for x, d in pairs[60:]:
            assert x.items() == tuple(sorted(d.items())) and x == GammaElement(d)

    def test_examples(self):
        assert staircase_sum([]) == ZERO and staircase_size([]) == 0
        assert staircase_sum([(3, 1)]) == psi_point(3)
        assert staircase_sum([(1, Fraction(1, 2)), (1, Fraction(1, 2))]) == psi_point(1)
        assert staircase_sum([(4, 2), (2, -2)]) == el("[0, 0, 2, 2]")
        assert staircase_sum([(2, 1), (2, -1), (1, 0)]) == ZERO
        with pytest.raises(ValueError, match="psi indices start at 1"):
            staircase_sum([(2, 1), (0, 1)])

    def test_size_does_not_build_the_sum(self):
        # about 10^9 coordinates each if built
        assert staircase_size([(10**9, 1)]) == 10**9
        assert staircase_size([(10**9, 2), (10**9 - 1, -2)]) == 1
        assert staircase_size([(10**9, 2), (10**9, -2), (3, 1)]) == 3


class TestPsi:
    def test_examples(self):
        assert psi(el("[0, 0, 3]")) == el("[1, 1, 1]")
        assert psi(el("[-1]")) == el("[1]")
        assert psi(ZERO) is INF
        assert psi(INF) is INF

    @given(nonzero_elements_st)
    def test_even_and_scale_invariant(self, a):
        assert psi(a) == psi(-a)
        assert psi(a * Fraction(7, 3)) == psi(a)
        assert psi(a * (-2)) == psi(a)

    @given(elements_st, elements_st)
    def test_valuation_ultrametric(self, a, b):
        pa, pb = psi(a), psi(b)
        lo = pa if compare(pa, pb) <= 0 else pb
        assert compare(psi(a + b), lo) >= 0

    def test_psi_points(self):
        assert psi_point(1) == el("[1]")
        assert psi_point(3) == el("[1, 1, 1]")
        assert psi_point_index(el("[1, 1]")) == 2
        assert psi_point_index(el("[1, 2]")) is None
        assert psi_point_index(ZERO) is None
        assert not is_psi_point(INF)
        with pytest.raises(ValueError):
            psi_point(0)


class TestIntegral:
    def test_examples_against_oracle(self):
        for text, expected in [("[]", "[-1]"), ("[1, 1]", "[0, 0, -1]")]:
            a = el(text)
            assert brute_integral(a) == el(expected)
            assert integral(a) == el(expected)
        assert integral(INF) is INF

    @given(elements_st)
    def test_matches_oracle(self, a):
        assert integral(a) == brute_integral(a)

    @given(elements_st)
    def test_round_trip(self, a):
        b = integral(a)
        assert b + psi(b) == a

    @given(elements_st, elements_st)
    def test_strictly_increasing(self, a, b):
        if a < b:
            assert integral(a) < integral(b)

    @given(elements_st)
    def test_integral_identity(self, a):
        assert integral(a) == a - succ(a)


class TestSuccPred:
    def test_examples(self):
        assert succ(ZERO) == el("[1]")
        assert succ(el("[1, 1]")) == el("[1, 1, 1]")
        assert succ(INF) is INF
        assert pred(el("[1, 1]")) == el("[1]")
        assert pred(el("[1]")) is INF
        assert pred(el("[2]")) is INF
        assert pred(INF) is INF
        assert pred(ZERO) is INF

    def test_succ_pred_on_psi_set(self):
        for n in range(1, 10):
            assert succ(psi_point(n)) == psi_point(n + 1)
            assert pred(succ(psi_point(n))) == psi_point(n)

    @given(elements_st)
    def test_succ_lands_in_psi_set(self, a):
        s = succ(a)
        assert is_psi_point(s)
        assert s >= psi_point(1)

    @given(elements_st)
    def test_fixed_point_identity(self, a):
        b = succ(a)
        assert psi(a - b) == b
        # any other b' with a - b' != 0 fails the fixed point equation
        for bump in [unit(0), unit(2) * Fraction(1, 3), -unit(1)]:
            b2 = b + bump
            if a - b2 != ZERO:
                assert psi(a - b2) != b2

    @given(elements_st, elements_st)
    def test_successor_identity(self, a, b):
        sa, sb = succ(a), succ(b)
        if sa < sb:
            assert psi(b - a) == sa


class TestDelta:
    def test_scaling(self):
        assert delta(2, el("[1, 1]")) == el("[1/2, 1/2]")
        assert delta(3, INF) is INF
        with pytest.raises(ValueError):
            delta(0, ZERO)


class TestWitness:
    def test_examples(self):
        assert small_diff_witness(el("[0, 1]")) == (el("[1, 1, 1]"), el("[1, 1]"))
        assert small_diff_witness(el("[5]")) == (el("[1, 1]"), el("[1]"))
        assert small_diff_witness(el("[0, 0, 0, 2]")) == (
            el("[1, 1, 1, 1, 1]"),
            el("[1, 1, 1, 1]"),
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            small_diff_witness(ZERO)
        with pytest.raises(ValueError):
            small_diff_witness(el("[-1]"))
        with pytest.raises(ValueError):
            small_diff_witness(INF)

    @given(nonzero_elements_st)
    def test_postconditions(self, a):
        eps = abs(a)
        d0, d1 = small_diff_witness(eps)
        assert is_psi_point(d0) and is_psi_point(d1)
        assert compare(d1, psi(eps)) >= 0 and compare(d0, psi(eps)) >= 0
        diff = d0 - d1
        assert diff > ZERO
        assert compare(psi(diff), psi(eps)) > 0


class TestEquivalenceAndClasses:
    def test_rv_equiv_examples(self):
        assert rv_equiv(el("[1]"), el("[1, 5]")) is True
        assert rv_equiv(el("[1]"), el("[2]")) is False
        assert rv_equiv(el("[3]"), el("[3]")) is True

    def test_rv_equiv_rejects_zero(self):
        with pytest.raises(ValueError):
            rv_equiv(ZERO, el("[1]"))
        with pytest.raises(ValueError):
            rv_equiv(el("[1]"), ZERO)

    def test_arch_class_examples(self):
        assert arch_class(el("[0, 3]")) == arch_class(el("[0, -7]")) == 1
        with pytest.raises(ValueError):
            arch_class(ZERO)

    def test_psi_precedes_examples(self):
        assert psi_precedes(el("[0, 0, 1]"), el("[1]")) is True
        assert psi_precedes(el("[2]"), el("[1]")) is False
        with pytest.raises(ValueError):
            psi_precedes(ZERO, el("[1]"))

    @given(nonzero_elements_st, nonzero_elements_st)
    def test_psi_precedes_implies_smaller_arch_class(self, a, b):
        if psi_precedes(a, b):
            assert arch_class(a) > arch_class(b)
