"""Term language tests: parsing, printing, evaluation, generalized s-functions."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logcouple.element import (
    GammaElement,
    INF,
    ZERO,
    format_element,
    integral,
    parse_element,
    pred,
    psi,
    psi_point,
    succ,
)
from logcouple.psifun import (
    Atom,
    ConstrainedImage,
    PsiFunction,
    contains,
    fig2_set,
    parse_linear,
    satisfies,
    solve_min,
)
from logcouple.terms import (
    Add,
    Const,
    Delta,
    GenSFunction,
    Integ,
    Neg,
    Pred,
    Psi,
    Succ,
    TermSyntaxError,
    UnboundVariableError,
    Var,
    _MAX_DEPTH,
    eval_gensfun,
    eval_term,
    free_vars,
    gensfun_image,
    parse_term,
    print_term,
)


def el(text):
    return parse_element(text)


# Literal bodies over digits, the literal punctuation, an underscore, a
# letter and one non-ASCII digit (ARABIC-INDIC DIGIT THREE).
literal_bodies = st.text(alphabet="0123456789+-/ ,_a\u0663", max_size=12)
group_elements = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=12), max_size=6
).map(GammaElement.from_list)


def literal_readings(text):
    """What parse_element, parse_term and the offset of parse_linear make of
    one element literal: each an element, or ValueError."""
    readers = (
        parse_element,
        lambda t: parse_term(t).value,
        lambda t: parse_linear("x0 + " + t).offset,
    )
    readings = []
    for read in readers:
        try:
            readings.append(read(text))
        except ValueError:
            readings.append(ValueError)
    return readings


class TestParse:
    def test_examples(self):
        assert parse_term("psi(int(x))") == Psi(Integ(Var("x")))
        assert parse_term("x - s(x)") == Add(Var("x"), Neg(Succ(Var("x"))))
        assert parse_term("d3([1/2])") == Delta(3, Const(el("[1/2]")))

    def test_precedence(self):
        assert parse_term("-x + y") == Add(Neg(Var("x")), Var("y"))
        assert parse_term("x - y - z") == Add(Add(Var("x"), Neg(Var("y"))), Neg(Var("z")))
        assert parse_term("-psi(x)") == Neg(Psi(Var("x")))
        assert parse_term("(x + y) - z") == Add(Add(Var("x"), Var("y")), Neg(Var("z")))

    def test_literals(self):
        assert parse_term("[]") == Const(ZERO)
        assert parse_term("inf") == Const(INF)
        assert parse_term("[1, -5]") == Const(el("[1, -5]"))
        assert parse_term("[-1/3]") == Const(el("[-1/3]"))

    def test_identifiers_without_call_are_variables(self):
        assert parse_term("s + p") == Add(Var("s"), Var("p"))

    def test_syntax_errors_carry_positions(self):
        with pytest.raises(TermSyntaxError) as e:
            parse_term("x + ")
        assert "position" in str(e.value)
        with pytest.raises(TermSyntaxError):
            parse_term("foo(x)")
        with pytest.raises(TermSyntaxError):
            parse_term("[1, ]")
        with pytest.raises(TermSyntaxError):
            parse_term("x y")
        with pytest.raises(TermSyntaxError):
            parse_term("x @ y")

    @given(literal_bodies)
    def test_one_literal_grammar(self, body):
        readings = literal_readings("[" + body + "]")
        assert readings == [readings[0]] * 3

    def test_literal_edge_cases(self):
        for text, expected in [
            ("[+3]", el("[3]")),
            ("[1, - 2/3]", el("[1, -2/3]")),
            ("[ 1 , 2 ]", el("[1, 2]")),
            ("[\u0663/2]", el("[3/2]")),
            ("[1_000]", ValueError),
            ("[1,]", ValueError),
            ("[1/0]", ValueError),
            ("[1/-2]", ValueError),
        ]:
            assert literal_readings(text) == [expected] * 3, text

    @given(group_elements)
    def test_printed_literals_read_back(self, x):
        assert literal_readings(format_element(x)) == [x] * 3

    def test_depth_bound(self):
        # parentheses, unary chains, function calls and sums each add a level
        deep = [
            "(" * 1200 + "x" + ")" * 1200,
            "+".join(["x"] * 1500),
            "-" * (_MAX_DEPTH + 1) + "x",
            "psi(" * _MAX_DEPTH + "x" + ")" * _MAX_DEPTH,
            "(" * (_MAX_DEPTH - 1) + "+".join(["x"] * 2) + ")" * (_MAX_DEPTH - 1),
        ]
        for text in deep:
            with pytest.raises(TermSyntaxError, match="nested deeper"):
                parse_term(text)
        env = {"x": el("[1]")}
        widest = "+".join(["x"] * _MAX_DEPTH)
        assert eval_term(parse_term(widest), env) == el(f"[{_MAX_DEPTH}]")
        assert print_term(parse_term(widest)) == " + ".join(["x"] * _MAX_DEPTH)
        calls = "psi(" * (_MAX_DEPTH - 1) + "x" + ")" * (_MAX_DEPTH - 1)
        assert print_term(parse_term(calls)) == calls
        assert parse_term("(" * (_MAX_DEPTH - 1) + "x" + ")" * (_MAX_DEPTH - 1)) == Var("x")


terms_st = st.deferred(
    lambda: st.one_of(
        st.sampled_from([Var("x"), Var("y"), Const(ZERO), Const(INF)]),
        st.builds(Const, st.builds(GammaElement.from_list, st.lists(
            st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9),
            max_size=3,
        ))),
        st.builds(Add, terms_st, terms_st),
        st.builds(Neg, terms_st),
        st.builds(Delta, st.integers(min_value=1, max_value=5), terms_st),
        st.builds(Psi, terms_st),
        st.builds(Succ, terms_st),
        st.builds(Pred, terms_st),
        st.builds(Integ, terms_st),
    )
)


class TestPrint:
    @given(terms_st)
    def test_round_trip(self, t):
        assert parse_term(print_term(t)) == t

    def test_examples(self):
        assert print_term(parse_term("x - s(x)")) == "x - s(x)"
        assert print_term(Add(Var("x"), Add(Var("y"), Var("z")))) == "x + (y + z)"
        assert print_term(Neg(Add(Var("x"), Var("y")))) == "-(x + y)"


class TestEval:
    def test_examples(self):
        assert eval_term(parse_term("psi(int(x))"), {"x": ZERO}) == el("[1]")
        assert eval_term(parse_term("x - s(x)"), {"x": el("[1, 1]")}) == el("[0, 0, -1]")
        assert eval_term(parse_term("p(x)"), {"x": el("[2]")}) is INF

    def test_unbound(self):
        with pytest.raises(UnboundVariableError):
            eval_term(parse_term("x + y"), {"x": ZERO})

    def test_free_vars(self):
        assert free_vars(parse_term("x + psi(y) - x")) == {"x", "y"}

    @given(terms_st)
    def test_total_on_closed_terms(self, t):
        env = {"x": el("[1, 1/2]"), "y": INF}
        v = eval_term(t, env)
        assert v is INF or isinstance(v, GammaElement)

    @given(terms_st)
    def test_integral_identity_observed(self, t):
        env = {"x": el("[0, 2]"), "y": el("[1]")}
        lhs = eval_term(Integ(t), env)
        rhs = eval_term(t, env) - eval_term(Succ(t), env)
        assert lhs == rhs

    def test_agrees_with_primitives(self):
        # differential check on single-constructor terms
        samples = [ZERO, el("[1]"), el("[0, -2/3]"), el("[1, 1]"), INF]
        for v in samples:
            env = {"x": v}
            assert eval_term(parse_term("psi(x)"), env) == psi(v)
            assert eval_term(parse_term("s(x)"), env) == succ(v)
            assert eval_term(parse_term("p(x)"), env) == pred(v)
            assert eval_term(parse_term("int(x)"), env) == integral(v)
            assert eval_term(parse_term("-x"), env) == -v
            assert eval_term(parse_term("x + x"), env) == v + v


class TestGenSFunction:
    def test_eval_examples(self):
        F = GenSFunction(1, [(0, 1, 1), (0, -1, -2)])
        assert eval_gensfun(F, [psi_point(2)]) == el("[-1, 1, 1]")
        G = GenSFunction(1, [(0, -1, 1)])
        assert eval_gensfun(G, [psi_point(1)]) is INF
        H = GenSFunction(2, [(0, 1, 0), (1, -3, 0)], el("[7]"))
        assert eval_gensfun(H, [1, 1]) == el("[7]")

    def test_validation(self):
        with pytest.raises(ValueError):
            GenSFunction(1, [(0, 1, 1), (0, 1, 2)])  # duplicate (var, shift)
        with pytest.raises(ValueError):
            GenSFunction(1, [(1, 0, 1)])  # variable out of range
        with pytest.raises(ValueError):
            eval_gensfun(GenSFunction(2), [1])

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"arity": 1.9}, "'arity' of a generalized s-function must be an integer: 1.9"),
            ({"arity": 1, "terms": [{"var": 0, "shift": True, "coeff": "1"}]}, "'shift' of a term must be an integer: True"),
            ({"arity": 1, "terms": [{"var": "0", "shift": 0, "coeff": "1"}]}, "'var' of a term must be an integer: '0'"),
            ({"arity": 1, "terms": 5}, "'terms' of a generalized s-function must be a list of objects: 5"),
            ({"arity": 1, "terms": [5]}, "'terms' of a generalized s-function must be a list of objects: [5]"),
            ({"arity": 1, "offset": 5}, "'offset' of a generalized s-function must be an element string: 5"),
            ({"arity": 1, "terms": [{"var": 0, "shift": 0}]}, "a term of a generalized s-function is missing the key 'coeff'"),
            ({"terms": []}, "'arity' of a generalized s-function must be an integer: None"),
        ],
    )
    def test_from_json_rejects(self, obj, message):
        with pytest.raises(ValueError) as info:
            GenSFunction.from_json(obj)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "arity, terms, message",
        [
            (1, [(0.7, True, 1)], "'var' of a term must be an integer: 0.7"),
            (1, [(0, True, 1)], "'shift' of a term must be an integer: True"),
            (1.5, [], "'arity' of a generalized s-function must be an integer: 1.5"),
            ("2", [], "'arity' of a generalized s-function must be an integer: '2'"),
        ],
    )
    def test_constructor_rejects(self, arity, terms, message):
        with pytest.raises(ValueError) as info:
            GenSFunction(arity, terms)
        assert str(info.value) == message

    @pytest.mark.parametrize("offset", [None, 5, "[1]", Fraction(1, 2)])
    def test_constructor_rejects_offset(self, offset):
        # only an element or inf is an offset, as from_json makes them
        for terms in ([], [(0, 0, 1)]):
            with pytest.raises(ValueError) as info:
                GenSFunction(1, terms, offset)
            assert str(info.value) == f"'offset' of a generalized s-function must be a group element or inf: {offset!r}"
        assert GenSFunction(1, [(0, 0, 1)], INF).offset is INF
        assert eval_gensfun(GenSFunction(1, [(0, 0, 1)], el("[1]")), [1]) == el("[2]")

    def test_eval_rejects_non_integer_index(self):
        F = GenSFunction(1, [(0, 0, 1)])
        with pytest.raises(ValueError, match="arguments must be psi points: 2.7"):
            eval_gensfun(F, [2.7])
        assert eval_gensfun(F, [2]) == psi_point(2)

    def test_eval_matches_the_succ_pred_chain(self):
        def chained(F, args):
            # the definition: s^k(E_n) by k successors, or -k predecessors
            # (inf once one falls off the psi set), then sum term by term
            points = [a if isinstance(a, GammaElement) else psi_point(a) for a in args]
            total = F.offset
            for i, k, q in F.terms:
                if q:
                    x = points[i]
                    for _ in range(k):
                        x = succ(x)
                    for _ in range(-k):
                        x = pred(x)
                    total = total + x * q
            return total

        rng = random.Random(20)
        values = []
        for _ in range(400):
            arity = rng.randint(1, 3)
            cells = rng.sample([(i, k) for i in range(arity) for k in range(-4, 5)], rng.randint(0, 5))
            coeffs = (0, 0, 1, -1, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
            offset = INF if rng.random() < 0.1 else GammaElement([(rng.randint(0, 5), Fraction(rng.randint(-5, 5), 3))])
            F = GenSFunction(arity, [(i, k, rng.choice(coeffs)) for i, k in cells], offset)
            args = [rng.choice((1, 1, 2, 3, 5, 8)) for _ in range(arity)]
            args = [psi_point(n) if rng.random() < 0.5 else n for n in args]
            value = eval_gensfun(F, args)
            assert value == chained(F, args)
            values.append(value)
        assert sum(v is INF for v in values) > 40 and sum(v is not INF for v in values) > 200
        # a zero coefficient whose shift falls off the psi set adds nothing
        Z = GenSFunction(2, [(0, -5, 0), (1, -1, 0), (0, 1, 2)], el("[0, 1]"))
        assert eval_gensfun(Z, [1, 1]) == chained(Z, [1, 1]) == el("[2, 3]")
        assert eval_gensfun(GenSFunction(1, [(0, 0, 1)], INF), [3]) is INF
        assert eval_gensfun(GenSFunction(1, [(0, -3, 1)]), [3]) is INF

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ([el("[1, 2]"), 1], ValueError, "arguments must be psi points"),
            ([0, 1], ValueError, "psi points are E_n with n >= 1"),
            ([1, -2], ValueError, "psi points are E_n with n >= 1"),
            ([1.5, 1], ValueError, "arguments must be psi points: 1.5"),
            ([1], ValueError, "expected 2 arguments, got 1"),
            ([1, 2, 3], ValueError, "expected 2 arguments, got 3"),
            ([True, 1], ValueError, "arguments must be psi points: True"),
            (["2", 1], ValueError, "arguments must be psi points: '2'"),
        ],
    )
    def test_eval_rejects(self, args, error, message):
        F = GenSFunction(2, [(0, -3, 1), (1, 0, 0)], INF)  # no argument reaches a term
        with pytest.raises(error) as info:
            eval_gensfun(F, args)
        assert type(info.value) is error and str(info.value) == message

    def test_json_round_trip_keeps_zero_entries(self):
        F = GenSFunction(2, [(0, 2, Fraction(1, 3)), (1, 0, 0)], el("[0, 1]"))
        again = GenSFunction.from_json(F.to_json())
        assert again == F
        assert len(again.terms) == 2


def _ordered(n, order):
    return all(n[i] < n[j] for i, j in order)


class TestGensfunImage:
    def test_fig2_set_is_the_compiled_worked_example(self):
        # the reference: x0 - x1 + x2 - x3 and its three atoms, typed by hand
        typed = ConstrainedImage(
            PsiFunction({0: 1, 1: -1, 2: 1, 3: -1}),
            (
                Atom("diff_eq", i=0, j=1, c=1),
                Atom("diff_eq", i=2, j=3, c=1),
                Atom("diff_le", i=1, j=3, c=-1),
            ),
        )
        assert fig2_set() == typed and fig2_set().constraints == typed.constraints
        s_x_minus_x = GenSFunction(2, [(0, 1, 1), (0, 0, -1), (1, 1, 1), (1, 0, -1)])
        assert gensfun_image(s_x_minus_x, order=[(0, 1)]) == typed

    def test_image_is_exact_both_ways(self):
        # every finite value over indices 1..6 that keeps the order is in the
        # image (by member search), and every point of the image over labels
        # 1..7 is a value over indices 1..11 that keeps the order
        rng = random.Random(23)
        coeffs = (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))
        values = points = ordered = 0
        for _ in range(300):
            arity = rng.randint(1, 3)
            cells = rng.sample([(i, k) for i in range(arity) for k in range(-2, 3)], rng.randint(1, 4))
            terms = [(i, k, rng.choice(coeffs)) for i, k in cells]
            order = [tuple(rng.sample(range(arity), 2))] if arity > 1 and rng.random() < 0.75 else []
            for i in sum(order, ()):
                # a variable of an order pair needs a nonzero term to bind
                if all(q == 0 for v, _, q in terms if v == i):
                    terms.append((i, rng.choice([k for k in range(-2, 3) if (i, k) not in cells]), 1))
            ordered += bool(order)
            offset = GammaElement([(rng.randint(0, 3), Fraction(rng.randint(-3, 3), 2))])
            F = GenSFunction(arity, terms, offset)
            X = gensfun_image(F, order)
            found = set()
            for n in itertools.product(range(1, 7), repeat=arity):
                value = eval_gensfun(F, n)
                if _ordered(n, order) and value is not INF and value not in found:
                    found.add(value)
                    assert contains(X, value), (F, order, n)
            values += len(found)
            reached = {eval_gensfun(F, n) for n in itertools.product(range(1, 12), repeat=arity) if _ordered(n, order)}
            labels = X.base.labels
            for N in itertools.product(range(1, 8), repeat=len(labels)):
                if satisfies(dict(zip(labels, N)), X.constraints):
                    assert X.base.evaluate(N) in reached, (F, order, N)
                    points += 1
        assert values > 4000 and points > 6000 and ordered > 100

    def test_a_positive_lowest_shift_adds_a_lower_bound(self):
        X = gensfun_image(GenSFunction(1, [(0, 1, 1)]))  # s(a) is E_n for n >= 2 only
        assert X.constraints == (Atom("ge", i=0, c=2),)
        assert not contains(X, psi_point(1)) and contains(X, psi_point(2))

    def test_a_negative_shift_needs_no_atom(self):
        # a - p(a) is inf at n = 1, so the image starts at n = 2: the labels
        # (n, n - 1) are >= 1 by themselves
        F = GenSFunction(1, [(0, 0, 1), (0, -1, -1)])
        X = gensfun_image(F)
        assert X.constraints == (Atom("diff_eq", i=0, j=1, c=1),)
        assert eval_gensfun(F, [1]) is INF
        assert solve_min(X.base.labels, X.constraints) == {0: 2, 1: 1}
        assert X.base.evaluate((2, 1)) == eval_gensfun(F, [2])

    def test_labels_follow_variables_and_descending_shifts(self):
        # the zero term (1, 1) gets no label; the order constant folds in
        # both anchor shifts, -1 and 0
        F = GenSFunction(2, [(0, -1, 2), (0, 2, 1), (1, 1, 0), (1, 3, -1), (1, 0, 5)], el("[1]"))
        X = gensfun_image(F, [(1, 0)])
        assert repr(X) == "{x0 + 2 x1 - x2 + 5 x3 + [1] : n0 - n1 = 3, n2 - n3 = 3, n3 - n1 <= 0}"

    @pytest.mark.parametrize(
        "F, order, message",
        [
            (GenSFunction(1, [(0, 0, 1)], INF), (), "a generalized s-function with offset inf has no finite value"),
            (GenSFunction(2, [(0, 0, 1), (1, 1, 0)]), [(0, 1)], "variable 1 of the order pair (0, 1) has no nonzero term"),
            (GenSFunction(2, [(0, 0, 1), (1, 0, 1)]), [(0, 2)], "an order pair is two variable indices below the arity 2: (0, 2)"),
            (GenSFunction(2, [(0, 0, 1), (1, 0, 1)]), [(-1, 0)], "an order pair is two variable indices below the arity 2: (-1, 0)"),
            (GenSFunction(2, [(0, 0, 1), (1, 0, 1)]), [(0,)], "an order pair is two variable indices below the arity 2: (0,)"),
            (GenSFunction(2, [(0, 0, 1), (1, 0, 1)]), [(0, 1, 1)], "an order pair is two variable indices below the arity 2: (0, 1, 1)"),
            (GenSFunction(2, [(0, 0, 1), (1, 0, 1)]), [(0, 1.0)], "an order pair is two variable indices below the arity 2: (0, 1.0)"),
            (GenSFunction(2, [(0, 0, 1), (1, 0, 1)]), [(True, 0)], "an order pair is two variable indices below the arity 2: (True, 0)"),
            (GenSFunction(2, [(0, 0, 1), (1, 0, 1)]), ["01"], "an order pair is two variable indices below the arity 2: '01'"),
        ],
    )
    def test_refuses(self, F, order, message):
        with pytest.raises(ValueError) as info:
            gensfun_image(F, order)
        assert str(info.value) == message
