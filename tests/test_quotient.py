"""Quotient projections, exact finite images, and counting tests."""

import itertools
import math
import random
import sys
import threading
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

import pytest

from logcouple import psifun
from logcouple.element import ZERO, GammaElement, parse_element, psi, psi_point, compare
from logcouple.psifun import (
    Atom,
    ConstrainedImage,
    PsiFunction,
    fig2_set,
    parse_linear,
    satisfies,
    solve_min,
)
from logcouple.quotient import (
    PHI_INF,
    Phi,
    QuotientImage,
    closed_discrete_certificate,
    count_function,
    fit_count_polynomial,
    format_vector,
    in_delta,
    project,
    project_set,
)
from logcouple.sets import ThickenedSmall
from test_psifun import random_atoms, reference_probe_depth


def el(text):
    return parse_element(text)


def brute_project_set(X, k, window):
    """Independent oracle: truncations of actual members over an index window."""
    from logcouple.psifun import _component_parts

    out = set()
    for F, atoms in _component_parts(X):
        labels = F.labels
        if not labels:
            out.add(F.offset.truncate(k))
            continue
        for combo in itertools.product(range(1, window + 1), repeat=len(labels)):
            assignment = dict(zip(labels, combo))
            if atoms and not satisfies(assignment, atoms):
                continue
            out.add(F.evaluate(assignment).truncate(k))
    return out


def capped_profile_oracle(X, k):
    """Independent oracle with no index window: every capped profile in
    {1..k}^I (k standing for "k or more") whose difference system
    solve_min finds satisfiable, evaluated and truncated to k."""
    from logcouple.psifun import _component_parts

    out = set()
    for F, atoms in _component_parts(X):
        labels = F.labels
        for profile in itertools.product(range(1, k + 1), repeat=len(labels)):
            n = dict(zip(labels, profile))
            pins = {l: v for l, v in n.items() if v < k}
            if atoms and solve_min(labels, atoms, lower=n, upper=pins) is None:
                continue
            out.add(F.evaluate(n).truncate(k))
    return out


class TestPhi:
    def test_parse_and_print(self):
        assert Phi.parse("s^3") == Phi(3)
        assert Phi.parse("s^{3}0") == Phi(3)
        assert Phi.parse("s^{10}0") == Phi(10)
        assert Phi.parse("inf") == PHI_INF
        assert str(Phi(5)) == "s^{5}0"
        assert str(PHI_INF) == "inf"
        for phi in [PHI_INF] + [Phi(k) for k in (1, 3, 10, 11, 100, 110)]:
            assert Phi.parse(str(phi)) == phi
        with pytest.raises(ValueError):
            Phi.parse("t^2")
        with pytest.raises(ValueError):
            Phi(0)

    def test_order(self):
        assert Phi(1) < Phi(2) < PHI_INF
        assert PHI_INF <= PHI_INF
        assert not PHI_INF < PHI_INF

    def test_comparisons_follow_the_scale_index(self):
        # inf lies above every s^k0, and s^k0 <= s^m0 exactly when k <= m
        scales = [PHI_INF] + [Phi(k) for k in range(1, 5)]
        for a in scales:
            for b in scales:
                x, y = (math.inf if phi.k is None else phi.k for phi in (a, b))
                assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)

    def test_as_element(self):
        assert Phi(3).as_element() == psi_point(3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: project_set(fig2_set(), 2.0), "projection depth must be an integer: 2.0"),
        (lambda: project_set(fig2_set(), True), "projection depth must be an integer: True"),
        (lambda: project_set(fig2_set(), 0), "projection depth must be >= 1"),
        (lambda: count_function(fig2_set(), [1.5]), "projection depth must be an integer: 1.5"),
        (lambda: count_function(fig2_set(), [3, 0]), "projection depth must be >= 1"),
        (lambda: project(psi_point(3), 2.5), "projection depth must be an integer: 2.5"),
        (lambda: project(psi_point(3), 0), "projection depth must be >= 1"),
        (lambda: project(0, 2), "project takes a group element: 0"),
        (lambda: in_delta(psi_point(2), 3), "in_delta takes a scale value: 3"),
        (lambda: psifun.limit_point_probe(ZERO, fig2_set(), 1.5), "probe depth must be an integer: 1.5"),
        (lambda: psifun.limit_point_probe(ZERO, fig2_set(), 0), "probe depth must be >= 1"),
        (lambda: Phi(1.5), "a finite scale value s^{k}0 takes an integer k: 1.5"),
        (lambda: Phi("3"), "a finite scale value s^{k}0 takes an integer k: '3'"),
        (lambda: Phi(0), "finite scale values are s^{k}0 with k >= 1"),
        (lambda: psifun.sample_points(fig2_set(), 2.5), "sample size must be an integer: 2.5"),
        (lambda: psifun.sample_points(fig2_set(), -1), "sample size must be >= 0, got -1"),
    ],
)
def test_depths_are_integers(call, message):
    # each entry point reads its depth or size with json_int before its bound,
    # and refuses an argument of the wrong type with one ValueError line
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestInDelta:
    def test_examples(self):
        assert in_delta(el("[0, 0, 5]"), Phi(2)) is True
        assert in_delta(el("[0, 1]"), Phi(2)) is False
        assert in_delta(ZERO, Phi(4)) is True
        assert in_delta(ZERO, PHI_INF) is True
        assert in_delta(el("[0, 0, 0, 1]"), PHI_INF) is False

    def test_matches_psi_comparison(self):
        rng = random.Random(3)
        for _ in range(200):
            coords = [
                Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(4)
            ]
            g = parse_element("[" + ", ".join(str(c) for c in coords) + "]") if any(coords) else ZERO
            for k in range(1, 5):
                via_index = in_delta(g, Phi(k))
                via_psi = g.is_zero or compare(psi(g), psi_point(k)) > 0
                assert via_index == via_psi

    def test_project_zero_iff_in_delta(self):
        for g in [ZERO, el("[0, 0, 1/3]"), el("[1]"), el("[0, 0, 0, -2]")]:
            for k in (1, 2, 3):
                assert (project(g, k) == (Fraction(0),) * k) == in_delta(g, Phi(k))


class TestProject:
    def test_examples(self):
        assert project(el("[1/2, 0, 3]"), 2) == (Fraction(1, 2), Fraction(0))
        assert project(psi_point(5), 3) == (Fraction(1), Fraction(1), Fraction(1))
        assert project(ZERO, 4) == (Fraction(0),) * 4

    def test_homomorphism_and_order(self):
        a, b = el("[1/2, -1, 3]"), el("[0, 2, 0, 7]")
        k = 3
        pa = project(a, k)
        pb = project(b, k)
        assert project(a + b, k) == tuple(x + y for x, y in zip(pa, pb))
        if a < b and pa != pb:
            assert pa < pb

    def test_format(self):
        assert format_vector((Fraction(1, 2), Fraction(0))) == "(1/2,0)"


# disjoint sets of denominators, one per component of a union
DENOMINATORS = ([1, 2, 4], [3, 9], [5, 7])


def mixed_union(rng, size):
    """size <= 3 components, component j with coefficient and offset
    denominators from DENOMINATORS[j], random offsets and, about half of
    the time, atoms; returns the union and the arities of its constrained
    components."""
    X, constrained_arities = [], []
    for j in range(size):
        arity = rng.randint(0, 3)
        coeffs = {
            i: Fraction(rng.choice([n for n in range(-4, 5) if n]), rng.choice(DENOMINATORS[j]))
            for i in range(arity)
        }
        offset = GammaElement(
            (i, Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS[j])))
            for i in rng.sample(range(5), rng.randint(0, 3))
        )
        comp = F = PsiFunction(coeffs, offset)
        if arity and rng.random() < 0.5:
            comp = ConstrainedImage(F, random_atoms(rng, arity))
            constrained_arities.append(arity)
        X.append(comp)
    return X, constrained_arities


class TestProjectSet:
    def test_psi_truncations(self):
        got = project_set([parse_linear("x0")], 3)
        assert got == {
            (1, 0, 0),
            (1, 1, 0),
            (1, 1, 1),
        }

    def test_constant(self):
        assert project_set([PsiFunction({}, el("[0, 1/2]"))], 2) == {(0, Fraction(1, 2))}

    def test_fig2_eleven_vectors(self):
        X = fig2_set()
        vectors = project_set(X, 5)
        assert len(vectors) == 11
        for v in vectors:
            assert v[0] == 0
            assert sum(v) <= 2
            assert all(q in (0, 1) for q in v)

    def test_matches_brute_force_random(self):
        rng = random.Random(17)
        for _ in range(40):
            arity = rng.randint(1, 3)
            coeffs = {
                i: Fraction(rng.choice([n for n in range(-4, 5) if n]), rng.randint(1, 4))
                for i in range(arity)
            }
            F = PsiFunction(coeffs, ZERO)
            comp = F
            if rng.random() < 0.4 and arity >= 2:
                comp = ConstrainedImage(F, (Atom("diff_le", i=0, j=1, c=rng.randint(-1, 1)),))
            for k in range(1, 5):
                got = project_set([comp], k)
                want = brute_project_set([comp], k, k + 3)
                assert got == want, (comp, k)
        # all four atom kinds, nonzero offsets, constants and arity 4; an
        # unconstrained profile is realized in {1..k}^I, and the atoms'
        # constants are small enough that a window of max(k, 3) + arity
        # holds a least witness of every satisfiable constrained profile
        rng = random.Random(29)
        for _ in range(40):
            arity = rng.randint(0, 4)
            coeffs = {
                i: Fraction(rng.choice([n for n in range(-4, 5) if n]), rng.randint(1, 3))
                for i in range(arity)
            }
            offset = el("[" + ", ".join(str(rng.randint(-2, 2)) for _ in range(rng.randint(0, 5))) + "]")
            comp = F = PsiFunction(coeffs, offset)
            constrained = arity and rng.random() < 0.6
            if constrained:
                comp = ConstrainedImage(F, random_atoms(rng, arity))
            for k in range(1, 4 if arity == 4 else 5):
                got = project_set([comp], k)
                want = brute_project_set([comp], k, max(k, 3) + arity if constrained else k)
                assert got == want, (comp, getattr(comp, "constraints", ()), k)

    def test_unions_with_different_denominators(self):
        # each component draws its coefficient and offset denominators from
        # its own set, so the union's common denominator is in general a
        # proper multiple of each component's own
        rng = random.Random(41)
        for case in range(30):
            X, constrained_arities = mixed_union(rng, 2 + case % 2)
            for k in range(1, 5):
                got = project_set(X, k)
                window = max([k] + [max(k, 3) + a for a in constrained_arities])
                assert got == brute_project_set(X, k, window), (X, k)
                assert all(type(q) is Fraction for vec in got for q in vec)
                assert all(len(vec) == k for vec in got)

    def test_matches_capped_profile_oracle(self):
        # the automaton asks solve_min once per signature and sub, with
        # ages capped at W + 2 and the step at C + 1; constants up to 5 and
        # depths up to 12 reach ages past both caps, and the second
        # component has the first one's map, so the two share vectors
        rng, moves = random.Random(61), random.Random(62)
        kept = [0, 0]  # perturbed points outside and inside the thickened set
        for _ in range(120):
            arity = rng.randint(1, 3)
            F = PsiFunction({i: rng.choice([-2, -1, 1, 2]) for i in range(arity)})
            X = [
                ConstrainedImage(F, random_atoms(rng, arity, most=4, diffs=(-5, 5), bounds=(0, 5)))
                for _ in range(rng.randint(1, 2))
            ]
            k = rng.randint(6, 12)
            want = capped_profile_oracle(X, k)
            assert project_set(X, k) == want, (X, k)
            assert count_function(X, range(1, k + 1)) == [
                (j, len({v[:j] for v in want})) for j in range(1, k + 1)
            ], (X, k)
            # the path walk shares the memo: a point is in the thickened
            # set at s^k iff its first k coordinates are a vector of want,
            # whatever follows them
            thick = ThickenedSmall(X, Phi(k))
            assert all(thick.contains(GammaElement(enumerate(v))) for v in want), (X, k)
            tail = GammaElement([(k, Fraction(1, 3)), (k + 2, Fraction(-1))])
            for v in moves.sample(sorted(want), min(len(want), 4)):
                point = GammaElement(enumerate(v)) + tail
                assert thick.contains(point), (X, k, v)
                for step in (Fraction(1), Fraction(-1), Fraction(1, 2)):
                    moved = point + GammaElement([(moves.randrange(k), step)])
                    inside = thick.contains(moved)
                    assert inside == (moved.truncate(k) in want), (X, k, moved)
                    kept[inside] += 1
        assert min(kept) > 40, kept


# no index satisfies n_0 <= 0, so this component adds no vector to a union,
# only the factor 11 to its common denominator
EMPTY_ELEVENTHS = ConstrainedImage(PsiFunction({0: Fraction(1, 11)}, ZERO), (Atom("le", i=0, c=0),))


class TestQuotientImage:
    def test_matches_plain_set(self):
        rng = random.Random(47)
        odd = [5, 0.5, "abc", None, (), frozenset(), ("a",), (None, None)]
        for case in range(30):
            X, constrained_arities = mixed_union(rng, rng.randint(2, 3))
            for k in range(1, 5):
                img = project_set(X, k)
                want = brute_project_set(X, k, max([k] + [max(k, 3) + a for a in constrained_arities]))
                assert isinstance(img, QuotientImage)
                assert len(img) == len(want)
                # as sets of Fraction tuples and of int-valued tuples where possible
                ints = {tuple(int(q) if q.denominator == 1 else q for q in v) for v in want}
                for other in (want, frozenset(want), ints):
                    assert img == other and other == img
                    assert not (img != other) and not (other != img)
                if want:
                    fewer = set(want)
                    fewer.pop()
                    for other in (fewer, fewer | {(Fraction(1, 13),) * k}):
                        assert img != other and other != img
                        assert not (img == other) and not (other == img)
                # membership agrees with the plain set on every kind of query
                plain = set(img)
                queries = list(odd)
                for v in sorted(want)[:8]:
                    moved = (v[0] + Fraction(1, 11),) + v[1:]
                    queries += [v, moved, v + (Fraction(0),), v[:-1], tuple(float(q) for q in v)]
                    queries += [tuple(int(q) if q.denominator == 1 else q for q in v)]
                    queries += [("x",) + v[1:], v[:-1] + (None,), (float("nan"),) + v[1:], (float("inf"),) + v[1:]]
                for v in queries:
                    assert (v in img) == (v in plain), (X, k, v)
                assert all(v in img for v in want)
                # sorted iteration, every coordinate a Fraction
                listed = list(img)
                assert listed == sorted(want)
                assert all(type(q) is Fraction for v in listed for q in v)

    def test_float_and_int_queries(self):
        img = project_set([PsiFunction({}, el("[1/2]")), PsiFunction({}, el("[1/3, 1]"))], 2)
        assert (0.5, 0) in img and (0.5, 0.0) in img and (Fraction(1, 2), False) in img
        assert (1 / 3, 1) not in img and (Fraction(1, 3), True) in img and (Fraction(1, 3), 1.0) in img
        assert (0.5,) not in img and 0.5 not in img and (0.5, 0, 0) not in img
        assert list(img) == [(Fraction(1, 3), Fraction(1)), (Fraction(1, 2), Fraction(0))]
        # queries that equal a member although they are not plain tuples of
        # ints, Fractions and floats
        Point = namedtuple("Point", "a b")
        for v in [Point(Fraction(1, 2), 0), (Decimal("0.5"), 0), (complex(0.5, 0), 0), (Fraction(1, 3), Decimal(1))]:
            assert v in img and v in set(img)
        for v in [Point(Fraction(1, 2), 1), (Decimal("0.3"), 0), (complex(0.5, 1), 0), ("1/2", 0)]:
            assert v not in img and v not in set(img)

    def test_equal_across_denominators(self):
        rng = random.Random(53)
        for _ in range(20):
            X, _ = mixed_union(rng, rng.randint(2, 3))
            for k in range(1, 4):
                img = project_set(X, k)
                wider = project_set(X + [EMPTY_ELEVENTHS], k)
                assert img._D != wider._D and wider._D % 11 == 0
                assert img == wider and wider == img and not (img != wider)
                assert list(img) == list(wider)
                other = project_set(X + [PsiFunction({0: Fraction(1, 11)}, ZERO)], k)
                assert other != img and img != other and not (img == other)
        assert project_set([], 2) == project_set([EMPTY_ELEVENTHS], 3) == set()

    def test_operators_return_plain_sets(self):
        img = project_set([parse_linear("x0 - 1/2 x1")], 3)
        same = project_set([parse_linear("x0 - 1/2 x1")], 3)
        plain = set(img)
        extra = {(Fraction(9),) * 3}
        for result, expected in [
            (img | extra, plain | extra),
            (extra | img, plain | extra),
            (img & plain, plain),
            (plain & img, plain),
            (img - extra, plain),
            (plain - img, set()),
            (img ^ extra, plain | extra),
            (img | same, plain),
            (img & same, plain),
            (img - same, set()),
        ]:
            assert type(result) is set and result == expected
        with pytest.raises(TypeError):
            hash(img)
        with pytest.raises(TypeError):
            {img}
        assert not hasattr(img, "add")


class TestPrefixWalk:
    @staticmethod
    def layers(X, k):
        # one automaton object walked to every depth j = 1..k
        D, ((shifts, auto),) = psifun._automata(X, k)
        return D, [psifun._prefix_walk(auto, shifts[:j]) for j in range(1, k + 1)]

    @pytest.mark.parametrize(
        "X, k, last",
        [
            (parse_linear("x0-x1+x2-x3+x4-x5+x6-x7"), 8, 33111),
            (parse_linear("x0+x1+x2+x3+x4+x5"), 14, 27132),
            (fig2_set(), 20, 191),
        ],
    )
    def test_each_prefix_once(self, X, k, last):
        # a walk that expanded chains instead of prefixes would repeat a
        # prefix in some layer; the counts are those of the chain sweep
        _, layers = self.layers(X, k)
        counts = count_function([X], range(1, k + 1))
        for (_, count), layer in zip(counts, layers):
            prefixes = [prefix for prefix, _ in layer]
            assert len(set(prefixes)) == len(prefixes) == count
        assert counts[-1] == (k, last)

    def test_layers_match_the_capped_profile_oracle(self):
        # every layer, not only the last, is the image at its depth, over
        # maps with offsets, mixed denominators and all four atom kinds
        rng = random.Random(97)
        for _ in range(40):
            arity = rng.randint(1, 4)
            coeffs = {i: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3])) for i in range(arity)}
            offset = GammaElement({rng.randrange(4): Fraction(rng.randint(-2, 2), rng.choice([1, 5]))})
            F = PsiFunction(coeffs, offset)
            X = ConstrainedImage(F, random_atoms(rng, arity, diffs=(-2, 2), bounds=(1, 5))) if rng.random() < 0.7 else F
            k = rng.randint(3, 6)
            want = capped_profile_oracle(X, k)
            D, layers = self.layers(X, k)
            for j, layer in enumerate(layers, 1):
                prefixes = [tuple(Fraction(x, D) for x in prefix) for prefix, _ in layer]
                assert len(set(prefixes)) == len(prefixes), (X, j)
                assert set(prefixes) == {v[:j] for v in want}, (X, j)

    def test_one_denominator_at_every_depth(self):
        # the offset's 1/7 sits at index 10, past every depth below 11, yet
        # D counts it at every depth, so images, membership and counts over
        # one D agree with the oracle at depths on both sides of it
        X = [
            parse_linear("x0 - x1 + [0, 1/3, 0, 0, 0, 0, 0, 0, 0, 0, 1/7]"),
            ConstrainedImage(parse_linear("x0 + 1/2x1"), (Atom("diff_le", i=0, j=1, c=-1),)),
        ]
        counts = count_function(X, range(1, 13))
        for k in range(1, 13):
            D, _ = psifun._automata(X, k)
            assert D == 42, k
            want = capped_profile_oracle(X, k)
            img = project_set(X, k)
            assert set(img) == want and counts[k - 1] == (k, len(want)), k
            for v in sorted(want)[:20]:
                for step in (Fraction(0), Fraction(1, 7), Fraction(1, 5), Fraction(1, 2)):
                    moved = v[:-1] + (v[-1] + step,)
                    assert (moved in img) == (moved in want), (k, moved)


class TestCount:
    def test_fig2_polynomial(self):
        X = fig2_set()
        table = count_function(X, range(1, 13))
        for k, c in table:
            assert c == Fraction(1, 2) * k * k - Fraction(1, 2) * k + 1
        assert dict(table)[5] == 11
        assert dict(table)[1] == 1 and dict(table)[2] == 2

    def test_psi_counts(self):
        table = count_function([parse_linear("x0")], range(1, 7))
        assert table == [(k, k) for k in range(1, 7)]

    def test_equals_size_of_project_set(self):
        rng = random.Random(43)
        for _ in range(30):
            X = []
            for _ in range(rng.randint(1, 3)):
                arity = rng.randint(0, 3)
                coeffs = {
                    i: Fraction(rng.choice([n for n in range(-4, 5) if n]), rng.randint(1, 5)) for i in range(arity)
                }
                offset = GammaElement((i, Fraction(rng.randint(-3, 3), rng.randint(1, 5))) for i in range(rng.randint(0, 4)))
                F = PsiFunction(coeffs, offset)
                X.append(ConstrainedImage(F, random_atoms(rng, arity)) if arity and rng.random() < 0.5 else F)
            for ks in (range(1, 6), [5, 2, 5], [3]):
                assert count_function(X, ks) == [(k, len(project_set(X, k))) for k in ks], (X, ks)

    @pytest.mark.parametrize(
        "X, ks",
        [
            # offset denominators 7 and 3 first appear beyond the smallest k
            ([parse_linear("x0 - x1 + [0, 0, 0, 1/7, 2/3]")], [1, 5, 2, 4]),
            ([parse_linear("x0 - x1 + [0, 0, 0, 1/7, 2/3]")], [6, 6, 3]),
            # three components whose images share vectors
            (
                [
                    parse_linear("x0"),
                    parse_linear("x1 + [0]"),
                    ConstrainedImage(parse_linear("x0 - x1 + x2"), (Atom("diff_eq", 0, 0, 1),)),
                ],
                [4, 1, 3],
            ),
            ([fig2_set(), parse_linear("x0 - x1"), parse_linear("1/2x0 + [0, 1/3]")], [2, 6, 1, 6]),
            ([], [3, 1, 3]),
        ],
    )
    def test_equals_size_of_project_set_in_any_order(self, X, ks):
        assert count_function(X, ks) == [(k, len(project_set(X, k))) for k in ks]

    def test_one_sweep_per_component(self, monkeypatch):
        depths = []
        shifts = psifun._shifts

        def counting(F, k, D):
            depths.append(k)
            return shifts(F, k, D)

        monkeypatch.setattr(psifun, "_shifts", counting)
        X = [fig2_set(), parse_linear("x0 - x1"), parse_linear("x0")]
        assert count_function(X, [4, 2, 7, 7]) == [(k, len(project_set(X, k))) for k in (4, 2, 7, 7)]
        # project_set's own walks come after count_function's three
        assert depths[:3] == [7, 7, 7] and len(depths) == 3 + 4 * len(X)
        depths.clear()
        with pytest.raises(ValueError, match="projection depth must be >= 1"):
            count_function(X, [3, 0, 2])
        assert depths == []
        assert count_function(X, []) == [] and depths == []

    def test_transfer_counts_match_the_walk_and_the_oracle(self):
        # unions with offsets, mixed denominators, all four atom kinds and
        # constants up to 5; a later component may reuse an earlier map under
        # other atoms, or move its offset deep down, so that components
        # share vectors
        rng = random.Random(71)
        for _ in range(25):
            X = []
            for j in range(rng.randint(1, 3)):
                if X and rng.random() < 0.4:
                    F = rng.choice(X)
                    F = F.base if isinstance(F, ConstrainedImage) else F
                    F = PsiFunction(F.coeffs, F.offset + GammaElement({rng.randint(3, 14): Fraction(1, 5)}))
                else:
                    arity = rng.randint(1, 3)
                    coeffs = {i: Fraction(rng.choice([-3, -2, -1, 1, 2]), rng.choice(DENOMINATORS[j])) for i in range(arity)}
                    F = PsiFunction(coeffs, GammaElement({rng.randrange(4): Fraction(rng.randint(-2, 2), rng.choice([1, 3]))}))
                if F.labels and rng.random() < 0.6:
                    F = ConstrainedImage(F, random_atoms(rng, len(F.labels), most=4, diffs=(-5, 5), bounds=(0, 5)))
                X.append(F)
            want = capped_profile_oracle(X, 12)
            counts = count_function(X, range(1, 13))
            assert counts == [(k, len({v[:k] for v in want})) for k in range(1, 13)], X
            assert counts == [(k, len(project_set(X, k))) for k in range(1, 13)], X

    @pytest.mark.parametrize(
        "X, k, last",
        [
            (parse_linear("x0+x1+x2+x3+x4+x5"), 30, 1623160),
            (parse_linear("x0-x1+x2-x3+x4-x5+x6-x7+x8-x9"), 40, 677084928807),
        ],
    )
    def test_deep_counts(self, X, k, last):
        # far past any depth whose vectors could be listed
        assert count_function(X, range(1, k + 1))[-1] == (k, last)

    def test_fit_matches_the_elimination_oracle(self):
        rng = random.Random(83)
        tables = [[(k, 0) for k in range(1, 7)], [(3, 5)], []]
        for _ in range(600):
            degree = rng.randint(0, 5)
            coeffs = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 6])) for _ in range(degree + 1)]
            ks = list(range(rng.randint(1, 4), rng.randint(5, 12)))
            shape = rng.choice(["consecutive", "shuffled", "repeated"])
            if shape == "shuffled":
                rng.shuffle(ks)
            elif shape == "repeated":
                ks = [rng.choice(ks) if rng.random() < 0.3 else k for k in ks]
            table = [(k, sum(c * k**i for i, c in enumerate(coeffs))) for k in ks]
            if rng.random() < 0.15:
                table = [(k, 2**k) for k in ks]
            if rng.random() < 0.4:  # one row off the polynomial, maybe at a repeated k
                i = rng.randrange(len(table))
                table[i] = (table[i][0], table[i][1] + 1)
            tables.append(table)
        fits = 0
        for table in tables:
            fit = fit_count_polynomial(table)
            assert fit == elimination_fit(table), table
            assert fit is None or all(type(c) is Fraction for c in fit)
            fits += fit is not None
        assert 150 < fits < len(tables) - 150

    def test_fit(self):
        table = count_function(fig2_set(), range(1, 9))
        coeffs = fit_count_polynomial(table)
        assert coeffs == (Fraction(1), Fraction(-1, 2), Fraction(1, 2))

    def test_fit_rejects_non_polynomial(self):
        data = [(k, 2**k) for k in range(1, 9)]
        assert fit_count_polynomial(data) is None

    def test_fit_constant(self):
        assert fit_count_polynomial([(1, 4), (2, 4), (3, 4)]) == (Fraction(4),)


def elimination_fit(counts):
    """The fit by Gaussian elimination of Fraction Vandermonde systems, an
    independent oracle for ``fit_count_polynomial``: the least degree d <= 4
    whose interpolant through the last d+1 rows meets every row of the
    last d+2, or None."""
    for d in range(5):
        tail = counts[-(d + 2) :]
        if len(tail) < d + 2:
            break
        n = d + 1
        rows = [[Fraction(k) ** j for j in range(n)] + [Fraction(c)] for k, c in tail[1:]]
        for col in range(n):
            pivot = next((r for r in range(col, n) if rows[r][col]), None)
            if pivot is None:
                break  # a repeated k among the nodes
            rows[col], rows[pivot] = rows[pivot], rows[col]
            rows[col] = [v / rows[col][col] for v in rows[col]]
            for r in range(n):
                if r != col and rows[r][col]:
                    rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
        else:
            coeffs = tuple(row[n] for row in rows)
            if all(sum(c * k**i for i, c in enumerate(coeffs)) == count for k, count in tail):
                return coeffs
    return None


def shared_systems(rng, count):
    """Constraint systems (labels, atoms) in pairs that share their atoms
    under two label tuples, the second with one label more, and two fixed
    pairs: labels (0, 3) and (0, 1, 3) with a difference atom, and with
    bounds alone, on 0 and 3.  Under the two tuples one open mask names
    other labels."""
    systems = []
    for atoms in (Atom("diff_eq", i=0, j=3, c=1),), (Atom("ge", i=0, c=2), Atom("le", i=3, c=2)):
        systems += [((0, 3), atoms), ((0, 1, 3), atoms)]
    for _ in range(count):
        labels = sorted(rng.sample(range(5), rng.randint(1, 2)))
        atoms = tuple(
            Atom(a.kind, i=labels[a.i], c=a.c, j=None if a.j is None else labels[a.j])
            for a in random_atoms(rng, len(labels), most=3, diffs=(-3, 3), bounds=(1, 4))
        )
        extra = rng.choice([l for l in range(5) if l not in labels])
        systems += [(tuple(labels), atoms), (tuple(sorted(labels + [extra])), atoms)]
    return systems


def shared_queries(rng, systems):
    """Queries of project_set, count_function, ThickenedSmall.contains and
    limit_point_probe on components over the systems, two maps with their
    own coefficients and offsets per system, each query with its oracle
    answer: (call, want)."""
    queries = []
    for labels, atoms in systems:
        for _ in range(2):
            coeffs = {l: rng.choice([-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)]) for l in labels}
            if len(labels) > 1 and rng.random() < 0.6:
                coeffs[labels[1]] = -coeffs[labels[0]]  # a zero-sum pair, so limit points exist
            offset = GammaElement({rng.randrange(4): Fraction(rng.randint(-2, 2), rng.choice([1, 3]))})
            X = [ConstrainedImage(PsiFunction(coeffs, offset), atoms)]
            k = rng.randint(3, 6)
            want = capped_profile_oracle(X, k)
            queries.append((lambda X=X, k=k: set(project_set(X, k)), want))
            queries.append((
                lambda X=X, k=k: count_function(X, range(1, k + 1)),
                [(j, len({v[:j] for v in want})) for j in range(1, k + 1)],
            ))
            thick = ThickenedSmall(X, Phi(k))
            points = [GammaElement(enumerate(v)) for v in sorted(want)[:2]] + [offset]
            points += [p + GammaElement({rng.randrange(k): Fraction(1, 2)}) for p in points]
            for point in points:
                queries.append((lambda thick=thick, point=point: thick.contains(point), point.truncate(k) in want))
            for gamma in [ZERO] + psifun.sample_points(X, 2) + points[:1]:
                K = rng.randint(2, 6)
                queries.append((
                    lambda gamma=gamma, X=X, K=K: psifun.limit_point_probe(gamma, X, K),
                    reference_probe_depth(gamma, X, K) is None,
                ))
    rng.shuffle(queries)
    return queries


class TestSharedClockMemo:
    def test_shared_answers_match_a_cold_memo_and_the_oracles(self):
        # one (labels, atoms) serves maps with other coefficients and
        # offsets, at other depths and targets, interleaved with other
        # systems; sharing the memo across them changes no answer
        rng = random.Random(83)
        queries = shared_queries(rng, shared_systems(rng, 10))
        psifun._clock_memo.cache_clear()
        warm = [call() for call, _ in queries]
        cold = []
        for call, _ in queries:
            psifun._clock_memo.cache_clear()
            cold.append(call())
        assert warm == cold
        assert warm == [want for _, want in queries]
        # the oracles confirm members and limit points, not only misses
        bools = [got for got in warm if isinstance(got, bool)]
        assert sum(bools) > 60 and len(bools) - sum(bools) > 60, (sum(bools), len(bools))

    def test_threads_share_one_memo(self):
        # more threads than cores, switching often, released at once on
        # one constraint system at a time from a cleared memo, four rounds
        # per system: each asks its own maps and targets, so the threads
        # build the lists of different signatures of one system side by
        # side and number new signatures at the same time; a lost entry,
        # or two signatures given one number, would change an image or a
        # probe
        rng = random.Random(89)
        fig2 = fig2_set()
        systems = [(fig2.base.labels, fig2.constraints)] + shared_systems(rng, 4)
        groups = []
        for labels, atoms in systems:
            group = []
            for _ in range(4):
                X = [ConstrainedImage(PsiFunction({l: rng.choice([-2, -1, 1, 2]) for l in labels}), atoms)]
                k = rng.randint(5, 7)
                group.append(lambda X=X, k=k: sorted(project_set(X, k)))
                for gamma in [ZERO] + psifun.sample_points(X, 2):
                    group.append(lambda gamma=gamma, X=X, k=k: psifun.limit_point_probe(gamma, X, k))
            groups.append(group)
        psifun._clock_memo.cache_clear()
        serial = [[call() for call in group] for group in groups]
        threads_count = rounds = 4
        results = [[] for _ in range(threads_count)]
        barrier = threading.Barrier(threads_count)

        def work(t):
            try:
                for group in groups * rounds:
                    if t == 0:
                        psifun._clock_memo.cache_clear()
                    barrier.wait()
                    shift = t * len(group) // threads_count
                    answers = {i: group[i]() for i in list(range(shift, len(group))) + list(range(shift))}
                    results[t].append([answers[i] for i in range(len(group))])
                    barrier.wait()
            except BaseException:
                barrier.abort()  # the other threads stop at their next wait
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            assert got == serial * rounds
        bools = [got for answers in serial for got in answers if isinstance(got, bool)]
        assert any(bools) and not all(bools)


class TestCertificate:
    def test_fig2(self):
        cert = closed_discrete_certificate(fig2_set(), Phi(5))
        assert len(cert) == 11
        assert cert == tuple(sorted(cert))

    def test_psi(self):
        cert = closed_discrete_certificate([parse_linear("x0")], Phi(3))
        assert len(cert) == 3

    def test_empty(self):
        assert closed_discrete_certificate([], Phi(2)) == ()

    def test_requires_finite_scale(self):
        with pytest.raises(ValueError):
            closed_discrete_certificate([parse_linear("x0")], PHI_INF)
