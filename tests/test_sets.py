"""Definable-set representations and dimension function tests."""

import random
from fractions import Fraction

import pytest

from logcouple.element import INF, ZERO, GammaElement, parse_element, psi_point
from logcouple.psifun import (
    Atom,
    ConstrainedImage,
    PsiFunction,
    fig2_set,
    parse_linear,
    sample_points,
)
from logcouple.quotient import PHI_INF, Phi, project, project_set
from logcouple.sets import (
    FULL_LINE,
    Interval,
    NEG_DIM,
    NaryRep,
    ThickenedSmall,
    UnaryRep,
    dim,
    dim_product,
    has_wide_box,
    member,
    product_rep,
    rep_from_json,
    rep_to_json,
    sst_crosscheck,
    union,
)
from test_psifun import off_grid, random_atoms, random_psifunction, zero_sum_psifunction


def el(text):
    return parse_element(text)


PSI = parse_linear("x0")


def interval(lo, hi):
    return Interval(None if lo is None else el(lo), None if hi is None else el(hi))


class TestInterval:
    def test_emptiness(self):
        assert interval("[1]", "[]").is_empty
        assert interval("[1]", "[1]").is_empty
        assert not interval("[]", "[1]").is_empty
        assert not Interval(None, ZERO).is_empty

    def test_contains(self):
        i = interval("[]", "[1]")
        assert i.contains(el("[1/2]"))
        assert i.contains(el("[0, 100]"))
        assert not i.contains(ZERO)
        assert not i.contains(el("[1]"))
        assert Interval(None, None).contains(el("[-5]"))


class TestDim:
    def test_interval_examples(self):
        assert dim(UnaryRep([interval("[]", "[1]")]), Phi(2)) == 1
        assert dim(UnaryRep([interval("[]", "[0, 0, 1]")]), Phi(2)) == 0

    def test_thickened_psi_examples(self):
        thick = UnaryRep([ThickenedSmall([PSI], Phi(1))])
        assert dim(thick, Phi(3)) == 1
        assert dim(thick, Phi(1)) == 0

    def test_unthickened_small_is_small_everywhere(self):
        plain = UnaryRep([ThickenedSmall([PSI])])
        for phi in [Phi(1), Phi(4), PHI_INF]:
            assert dim(plain, phi) == 0

    def test_d1_axioms(self):
        assert dim(UnaryRep([]), Phi(2)) == NEG_DIM
        singleton = UnaryRep([ThickenedSmall([PsiFunction({}, el("[3]"))])])
        for phi in [Phi(1), PHI_INF]:
            assert dim(singleton, phi) == 0
        for phi in [Phi(1), Phi(6), PHI_INF]:
            assert dim(UnaryRep([FULL_LINE]), phi) == 1

    def test_d2_union(self):
        a = UnaryRep([interval("[]", "[1]")])
        b = UnaryRep([ThickenedSmall([PSI])])
        assert dim(union(a, b), Phi(3)) == max(dim(a, Phi(3)), dim(b, Phi(3)))

    def test_product_rule(self):
        psi_rep = UnaryRep([ThickenedSmall([PSI])])
        line = UnaryRep([interval("[]", "[1]")])
        assert dim(product_rep(psi_rep, psi_rep), PHI_INF) == 0
        assert dim(product_rep(line, psi_rep), Phi(1)) == 1
        empty = UnaryRep([])
        assert dim(product_rep(empty, psi_rep), Phi(1)) == NEG_DIM
        assert dim_product([line, line], Phi(1)) == 2

    def test_monotone_in_phi(self):
        reps = [
            UnaryRep([interval("[]", "[0, 0, 0, 1]")]),
            UnaryRep([ThickenedSmall([PSI], Phi(2))]),
            UnaryRep([interval("[]", "[1]"), ThickenedSmall([PSI], Phi(4))]),
        ]
        scales = [Phi(k) for k in range(1, 7)] + [PHI_INF]
        for rep in reps:
            dims = [dim(rep, phi) for phi in scales]
            assert dims == sorted(dims)

    def test_empty_constrained_core(self):
        impossible = ConstrainedImage(
            parse_linear("x0 - x1"),
            (Atom("diff_le", i=0, j=1, c=-1), Atom("diff_le", i=1, j=0, c=-1)),
        )
        rep = UnaryRep([ThickenedSmall([impossible], Phi(2))])
        assert rep.is_empty
        assert dim(rep, Phi(1)) == NEG_DIM


class TestWideBox:
    def test_examples(self):
        assert has_wide_box(UnaryRep([interval("[]", "[1]")]), Phi(3)) is True
        narrow = UnaryRep([ThickenedSmall([PSI], Phi(4))])
        assert has_wide_box(narrow, Phi(2)) is False
        assert has_wide_box(UnaryRep([]), Phi(2)) is False

    def test_box_needs_all_factors_wide(self):
        wide = UnaryRep([interval("[]", "[1]")])
        skinny = UnaryRep([ThickenedSmall([PSI])])
        assert has_wide_box(product_rep(wide, wide), Phi(2)) is True
        assert has_wide_box(product_rep(wide, skinny), Phi(2)) is False


class TestMember:
    def test_interval_member(self):
        rep = UnaryRep([interval("[]", "[1]")])
        assert member(el("[1/2]"), rep)
        assert not member(el("[2]"), rep)

    def test_thickened_member(self):
        rep = UnaryRep([ThickenedSmall([PSI], Phi(4))])
        assert member(psi_point(3) + el("[0, 0, 0, 0, 1/7]"), rep)
        assert not member(psi_point(3) + el("[0, 1/7]"), rep)
        assert member(psi_point(6), rep)  # deep staircase points collapse at depth 4

    def test_thickened_contains_inf(self):
        # inf is in no thickened small set: at each thickening, over a
        # nonempty, an empty constrained and an empty core
        impossible = ConstrainedImage(
            parse_linear("x0 - x1"),
            (Atom("diff_le", i=0, j=1, c=-1), Atom("diff_le", i=1, j=0, c=-1)),
        )
        for core in ([parse_linear("x0")], [fig2_set()], [impossible], []):
            for phi in (Phi(1), Phi(3), PHI_INF):
                assert ThickenedSmall(core, phi).contains(INF) is False, (core, phi)

    def test_thickened_member_matches_project_set(self):
        # contains tests membership on integer numerators; the oracle is the
        # projection of x in the Fraction vectors of project_set
        rng = random.Random(61)
        hits = misses = off_grid = 0
        for _ in range(40):
            core = []
            for _ in range(rng.randint(1, 3)):
                F = random_psifunction(rng, max_arity=3, coeff_bound=6)
                core.append(ConstrainedImage(F, random_atoms(rng, len(F.labels))) if F.labels and rng.random() < 0.5 else F)
            for k in range(1, 5):
                comp = ThickenedSmall(core, Phi(k))
                vectors = project_set(core, k)
                points = [GammaElement(enumerate(vec)) + GammaElement({k + 1: rng.randint(-3, 3)}) for vec in vectors]
                points += [GammaElement({c: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for c in range(k)}) for _ in range(5)]
                # move one coordinate of a member by 1/11 or 1/13: outside (1/D)Z
                for vec in list(vectors)[:5]:
                    c = rng.randrange(k + 2)
                    points.append(GammaElement(enumerate(vec)) + GammaElement({c: Fraction(1, rng.choice([11, 13]))}))
                for x in points:
                    want = project(x, k) in vectors
                    assert comp.contains(x) == want, (core, k, x)
                    hits += want
                    misses += not want
                    off_grid += any(q.denominator % 11 == 0 or q.denominator % 13 == 0 for q in project(x, k))
        assert hits > 100 and misses > 100 and off_grid > 100

    def test_thickened_member_constrained_cores(self):
        # the path walk against the whole image: cores that always hold
        # a constrained component, points of the unconstrained maps (some
        # meet the atoms, some do not), and those points moved off the grid
        # by 1/11
        rng = random.Random(1109)
        hits = misses = off_grid_points = 0
        for _ in range(40):
            core = [fig2_set()] if rng.random() < 0.25 else []
            while not any(isinstance(C, ConstrainedImage) for C in core):
                F = zero_sum_psifunction(rng, max_arity=4)
                core.append(ConstrainedImage(F, random_atoms(rng, len(F.labels))) if F.labels else F)
            points = sample_points([C.base if isinstance(C, ConstrainedImage) else C for C in core], 8)
            points += [off_grid(rng, p) for p in points] + [ZERO]
            for k in range(1, 6):
                comp = ThickenedSmall(core, Phi(k))
                image = project_set(core, k)
                for x in points:
                    want = project(x, k) in image
                    assert comp.contains(x) == want, (core, k, x)
                    hits += want
                    misses += not want
                    off_grid_points += any(q.denominator % 11 == 0 for q in project(x, k))
        assert hits > 300 and misses > 300 and off_grid_points > 300

    def test_unthickened_member(self):
        rep = UnaryRep([ThickenedSmall([parse_linear("x0 - x1")])])
        assert member(psi_point(4) - psi_point(2), rep)
        assert not member(el("[1/2]"), rep)

    def test_nary_member(self):
        rep = product_rep(
            UnaryRep([interval("[]", "[1]")]), UnaryRep([ThickenedSmall([PSI])])
        )
        assert member((el("[1/2]"), psi_point(2)), rep)
        assert not member((el("[1/2]"), el("[1/2]")), rep)
        with pytest.raises(ValueError):
            member((el("[1/2]"),), rep)

    def test_union_mismatch(self):
        with pytest.raises(ValueError):
            union(UnaryRep([]), NaryRep(2, []))


class TestCrosscheck:
    def test_fig2(self):
        rep = UnaryRep([ThickenedSmall([fig2_set()])])
        report = sst_crosscheck(rep, Phi(5))
        assert report.consistent
        assert report.dim_route_a == 0 == report.dim_route_b
        assert report.quotient_size == 11

    def test_interval_at_infinity(self):
        report = sst_crosscheck(UnaryRep([interval("[]", "[1]")]), PHI_INF)
        assert report.consistent and report.dim_route_a == 1

    def test_psi_rank(self):
        report = sst_crosscheck(UnaryRep([ThickenedSmall([PSI])]), PHI_INF)
        assert report.consistent and report.dim_route_a == 0
        assert report.rank == 1

    def test_constrained_rank(self):
        report = sst_crosscheck(UnaryRep([ThickenedSmall([fig2_set()])]), PHI_INF)
        assert report.consistent and report.dim_route_a == 0
        assert report.rank == 3

    def test_narrow_interval_certificate(self):
        rep = UnaryRep([interval("[1]", "[1, 0, 1]")])
        report = sst_crosscheck(rep, Phi(2))
        assert report.consistent and report.dim_route_a == 0
        assert report.quotient_size == 1

    def test_certificate_of_several_components(self):
        # two cores over the denominators 2 and 3/5 and two narrow
        # intervals, one of whose points is already in a core's image: the
        # certificate is the sorted union, each vector once
        k = 3
        halves = ThickenedSmall([parse_linear("x0 - 1/2 x1")], Phi(6))
        fifths = ThickenedSmall([PsiFunction({0: Fraction(1, 3)}, el("[-1/5]"))], Phi(5))
        core_vectors = set(project_set(halves.core, k)) | set(project_set(fifths.core, k))
        v = sorted(project_set(halves.core, k))[1]
        inside, outside = GammaElement(enumerate(v)), el("[7, 1/7]")
        width = el("[0, 0, 0, 0, 1]")
        rep = UnaryRep([Interval(inside, inside + width), halves, Interval(outside, outside + width), fifths])
        report = sst_crosscheck(rep, Phi(k))
        assert report.consistent and report.dim_route_a == 0
        expected = tuple(sorted(core_vectors | {v, project(outside, k)}))
        assert report.quotient_image == expected
        assert report.quotient_size == len(core_vectors) + 1
        without_intervals = sst_crosscheck(UnaryRep([fifths, halves]), Phi(k))
        assert without_intervals.quotient_image == tuple(sorted(core_vectors))


class TestJson:
    def test_unary_round_trip(self):
        rep = UnaryRep(
            [
                interval("[]", "[1]"),
                Interval(None, el("[2]")),
                ThickenedSmall([fig2_set()], Phi(4)),
                ThickenedSmall([PSI]),
            ]
        )
        again = rep_from_json(rep_to_json(rep))
        assert again == rep

    def test_nary_round_trip_distributes(self):
        two = UnaryRep([interval("[]", "[1]"), ThickenedSmall([PSI])])
        one = UnaryRep([interval(None, "[5]")])
        rep = product_rep(two, one)
        data = rep_to_json(rep)
        assert data["arity"] == 2
        assert len(data["products"]) == 2  # distributed
        again = rep_from_json(data)
        assert isinstance(again, NaryRep)
        for point in [(el("[1/2]"), el("[3]")), (psi_point(2), el("[-1]"))]:
            assert member(point, again) == member(point, rep)

    def test_bad_component(self):
        with pytest.raises(ValueError):
            rep_from_json({"arity": 1, "products": [[{"kind": "mystery"}]]})
