"""Small-set calculus tests: derived sets, membership, probes, recovery."""

import itertools
import random
import time
from fractions import Fraction
from typing import Dict, List, Tuple

import pytest

from logcouple.element import (
    GammaElement,
    INF,
    ZERO,
    parse_element,
    psi,
    psi_point,
    unit,
)
from logcouple import psifun
from logcouple.gen import random_element
from logcouple.psifun import (
    Atom,
    ConstrainedImage,
    PsiFunction,
    _component_parts,
    _denominator,
    _holds_other_point,
    _last_layer,
    component_from_json,
    component_to_json,
    contains,
    closure,
    d_rank,
    derived_set,
    equilateral_max_clique,
    fig2_set,
    imageunion_from_json,
    imageunion_to_json,
    limit_point_probe,
    member,
    member_constrained,
    parse_linear,
    product_contains,
    product_derived_direct,
    product_derived_step,
    recover,
    recovery_probes,
    sample_points,
    satisfies,
    solve_min,
)
from logcouple.quotient import project_set
from sampled_sets import expand_solutions, sampled_equal


def el(text):
    return parse_element(text)


def fn(text):
    return parse_linear(text)


def brute_member(gamma, F, bound):
    """Independent oracle: all solutions in the window {1..bound}^I."""
    labels = F.labels
    sols = set()
    for combo in itertools.product(range(1, bound + 1), repeat=len(labels)):
        if F.evaluate(dict(zip(labels, combo))) == gamma:
            sols.add(combo)
    return sols


def reference_evaluate(F, assignment):
    """Independent oracle for F.evaluate at label -> index: the offset plus
    q times E_n summed coordinate by coordinate, built through the
    validating GammaElement constructor."""
    coords = dict(F.offset.items())
    for label, q in F.coeffs.items():
        for c in range(assignment[label]):
            coords[c] = coords.get(c, 0) + q
    return GammaElement(coords)


def random_psifunction(rng, min_arity=0, max_arity=3, coeff_bound=9, offset_support=3):
    arity = rng.randint(min_arity, max_arity)
    coeffs = {}
    for label in range(arity):
        num = rng.choice([n for n in range(-coeff_bound, coeff_bound + 1) if n])
        den = rng.randint(1, coeff_bound)
        coeffs[label] = Fraction(num, den)
    offset = GammaElement(
        (i, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for i in rng.sample(range(offset_support + 1), rng.randint(0, offset_support))
    )
    return PsiFunction(coeffs, offset)


def random_atoms(rng, arity, most=3, diffs=(-1, 1), bounds=(1, 3)):
    """One to ``most`` atoms of any kind over labels 0..arity-1, constants
    in the range ``diffs`` for differences and ``bounds`` for bounds."""
    atoms = []
    for _ in range(rng.randint(1, most)):
        kind = rng.choice(["diff_le", "diff_eq", "ge", "le"] if arity > 1 else ["ge", "le"])
        if kind in ("ge", "le"):
            atoms.append(Atom(kind, i=rng.randrange(arity), c=rng.randint(*bounds)))
        else:
            i, j = rng.sample(range(arity), 2)
            atoms.append(Atom(kind, i=i, j=j, c=rng.randint(*diffs)))
    return tuple(atoms)


def zero_sum_psifunction(rng, max_arity=5):
    """A random map of arity 0..max_arity in which each label pair (0, 1),
    (2, 3), ... is zero-sum with probability one half, so that membership
    has parametric families."""
    F = random_psifunction(rng, min_arity=0, max_arity=max_arity, coeff_bound=4)
    coeffs = F.coeffs
    for a in range(0, len(coeffs) - 1, 2):
        if rng.random() < 0.5:
            coeffs[a + 1] = -coeffs[a]
    return PsiFunction(coeffs, F.offset)


def off_grid(rng, gamma):
    """gamma moved by 1/11 at one of its first coordinates."""
    return gamma + GammaElement({rng.randrange(4): Fraction(1, 11)})


def _profile_truncation(F, profile, k):
    total = F.offset
    for (l, q), v in zip(F._coeffs, profile):
        total = total + psi_point(v) * q
    return total.truncate(k)


# The constrained step of the probe before the exact push test, moved here
# verbatim from the library as part of the reference below.
def _has_nongamma_value(
    F: PsiFunction,
    atoms: Tuple[Atom, ...],
    pins: Dict[int, int],
    capped: List[int],
    k: int,
    gamma: GammaElement,
) -> bool:
    """Exactly decide whether the constrained capped profile holds a point
    different from gamma.  Witness-driven: returns True only on an explicit
    instantiation with a different value."""
    labels = F.labels
    lower = {l: k for l in capped}
    lower.update(pins)
    upper = dict(pins)
    least = solve_min(labels, atoms, lower=lower, upper=upper)
    if least is None:
        return False
    if F.evaluate(least) != gamma:
        return True
    # push each variable off the least solution
    for l in labels:
        pushed = dict(lower)
        pushed[l] = least[l] + 1
        alt = solve_min(labels, atoms, lower=pushed, upper=upper)
        if alt is not None and F.evaluate(alt) != gamma:
            return True
    # windowed sweep; beyond this window only engineered ties could differ
    width = k + len(labels) + 3
    ranges = []
    for l in labels:
        if l in pins:
            ranges.append((pins[l],))
        else:
            ranges.append(tuple(range(k, width + 1)))
    for combo in itertools.product(*ranges):
        assignment = dict(zip(labels, combo))
        if satisfies(assignment, atoms) and F.evaluate(assignment) != gamma:
            return True
    return False


def reference_probe_depth(gamma, X, K):
    """The per-profile probe loop that preceded the capped-profile sweep,
    kept as a differential oracle: every profile in {1..k}^I is built and
    truncated on its own, and every depth k = 1..K is asked in turn.
    Returns the first depth at which no point other than gamma matches, or
    None where the probe is True."""
    if K < 1:
        raise ValueError("probe depth must be >= 1")
    parts = _component_parts(X)
    for k in range(1, K + 1):
        target = gamma.truncate(k)
        found = False
        for F, atoms in parts:
            labels = F.labels
            if not labels:
                x = F.offset
                if x != gamma and x.truncate(k) == target:
                    found = True
                    break
                continue
            for profile in itertools.product(range(1, k + 1), repeat=len(labels)):
                if _profile_truncation(F, profile, k) != target:
                    continue
                capped = [l for l, v in zip(labels, profile) if v == k]
                pins = {l: v for l, v in zip(labels, profile) if v < k}
                if not atoms:
                    if capped:
                        # the capped family takes infinitely many distinct
                        # values, so certainly one differs from gamma
                        found = True
                        break
                    if F.evaluate(pins) != gamma:
                        found = True
                        break
                else:
                    if not capped:
                        if satisfies(pins, atoms) and F.evaluate(pins) != gamma:
                            found = True
                            break
                    elif _has_nongamma_value(F, atoms, pins, capped, k, gamma):
                        found = True
                        break
            if found:
                break
        if not found:
            return k
    return None


def answered_early(gamma, X, depth, K):
    """Whether the reference answered at a depth below K whose layer has
    states: some point of X matches gamma there, yet none other than gamma
    does (gamma an isolated point of X, say)."""
    return depth is not None and depth < K and gamma.truncate(depth) in project_set(X, depth)


def random_state(rng):
    """A constrained capped-profile state: F of arity 1..3 with coefficients
    in +-1, +-2, +-1/2; one to four atoms, differences with constants in
    -6..6 (also as implicit equalities from two opposite diff_le atoms),
    bounds in 1..6; depth k in 1..3 and each label pinned below k or capped
    at k."""
    arity = rng.randint(1, 3)
    F = random_psifunction(rng, min_arity=arity, max_arity=arity, coeff_bound=2)
    atoms = []
    for _ in range(rng.randint(1, 4)):
        kinds = ["diff_le", "diff_le_pair", "diff_eq", "ge", "le"] if arity > 1 else ["ge", "le"]
        kind = rng.choice(kinds)
        if kind in ("ge", "le"):
            atoms.append(Atom(kind, i=rng.randrange(arity), c=rng.randint(1, 6)))
            continue
        i, j = rng.sample(range(arity), 2)
        c = rng.randint(-6, 6)
        if kind == "diff_le_pair":
            atoms += [Atom("diff_le", i=i, j=j, c=c), Atom("diff_le", i=j, j=i, c=-c)]
        else:
            atoms.append(Atom(kind, i=i, j=j, c=c))
    k = rng.randint(1, 3)
    pins = tuple((l, rng.randint(1, k - 1)) for l in F.labels if k > 1 and rng.random() < 0.3)
    return F, tuple(atoms), pins, k


def state_least(F, atoms, pins, k):
    """The least solution with pins fixed and the other labels >= k."""
    pinned = dict(pins)
    return solve_min(F.labels, atoms, lower={**pinned, **{l: k for l in F.labels if l not in pinned}}, upper=pinned)


def brute_other_point(F, atoms, pins, k, gamma):
    """Independent oracle: a point with pins fixed, the other labels in
    k..top and a value other than gamma, found by backtracking over labels
    in order.  top is the largest index of the least solution plus twice
    the largest constant plus 6."""
    labels = F.labels
    pinned = dict(pins)
    least = state_least(F, atoms, pins, k)
    top = max(least.values()) + 2 * max(abs(a.c) for a in atoms) + 6

    def extend(assignment):
        if len(assignment) == len(labels):
            return F.evaluate(assignment) != gamma
        l = labels[len(assignment)]
        for v in (pinned[l],) if l in pinned else range(k, top + 1):
            assignment[l] = v
            known = [a for a in atoms if a.i in assignment and a.j in assignment.keys() | {None}]
            if satisfies(assignment, known) and extend(assignment):
                return True
            del assignment[l]
        return False

    return extend({})


def old_window_holds_solution(F, atoms, pins, k):
    """Whether the window {k..k+|I|+3} of the old sweep meets the state."""
    pinned = dict(pins)
    ranges = [(pinned[l],) if l in pinned else range(k, k + len(F.labels) + 4) for l in F.labels]
    return any(satisfies(dict(zip(F.labels, combo)), atoms) for combo in itertools.product(*ranges))


ADVERSARIAL_KINDS = ("diff_eq chain", "cross upper bound", "le on a zero-sum group", "cancelling ties", "unsatisfiable")


def adversarial_image(rng):
    """A constrained map of arity 2..4, mostly with zero-sum pairs (x0, x1)
    and (x2, x3), under the atoms of one or two adversarial kinds; returns
    the image and its kinds."""
    arity = rng.randint(2, 4)
    qs = [rng.choice([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]) for _ in range(arity)]
    for a in range(0, arity - 1, 2):
        if rng.random() < 0.8:
            qs[a + 1] = -qs[a]
    pairs = [(a, a + 1) for a in range(0, arity - 1, 2) if qs[a + 1] == -qs[a]] or [(0, 1)]
    offset = GammaElement((c, Fraction(rng.randint(-3, 3))) for c in range(rng.randint(0, 2)))
    kinds = rng.sample(ADVERSARIAL_KINDS, rng.randint(1, 2))
    atoms = []
    for kind in kinds:
        if kind == "diff_eq chain":
            chain = rng.sample(range(arity), rng.randint(2, min(3, arity)))
            atoms += [Atom("diff_eq", i=a, j=b, c=rng.randint(0, 2)) for a, b in zip(chain, chain[1:])]
        elif kind == "cross upper bound":
            upper, lower = rng.sample(range(arity), 2)  # n_upper - n_lower <= c
            atoms.append(Atom("diff_le", i=upper, j=lower, c=rng.randint(-1, 2)))
        elif kind == "le on a zero-sum group":
            atoms.append(Atom("le", i=rng.choice(rng.choice(pairs)), c=rng.randint(1, 4)))
        elif kind == "cancelling ties":
            # a pair with opposite coefficients tied at n_a = n_b cancels at every position
            atoms += [Atom("diff_eq", i=a, j=b, c=0) for n, (a, b) in enumerate(pairs) if n == 0 or rng.random() < 0.5]
        else:
            l, m = rng.sample(range(arity), 2)
            if rng.random() < 0.5:
                c = rng.randint(1, 3)
                atoms += [Atom("ge", i=l, c=c + 1), Atom("le", i=l, c=c)]
            else:
                atoms += [Atom("diff_le", i=l, j=m, c=-1), Atom("diff_le", i=m, j=l, c=0)]
    return ConstrainedImage(PsiFunction(dict(enumerate(qs)), offset), atoms), kinds


def least_points(X, rng, count):
    """Up to count points of each component of X, each at the least
    solution of its atoms above random lower bounds in 1..4."""
    points = []
    for F, atoms in _component_parts(X):
        for _ in range(count):
            x = solve_min(F.labels, atoms, lower={l: rng.randint(1, 4) for l in F.labels})
            if x is not None:
                points.append(F.evaluate(x))
    return points


class TestBasics:
    def test_norm_examples(self):
        assert fn("x0 - x1 + x2 - x3").norm() == 0
        assert fn("x0").norm() == 1
        assert PsiFunction({}, el("[3]")).norm() == 0

    def test_restrict_examples(self):
        F = parse_linear("x0 - x1 + [2]")
        assert F.restrict({0}) == parse_linear("x0 + [2]")
        assert F.restrict(F.labels) == F
        G = F.restrict(set())
        assert G.is_constant and G.offset == el("[2]")
        with pytest.raises(ValueError):
            F.restrict({5})

    def test_coefficients_must_be_nonzero(self):
        with pytest.raises(ValueError):
            PsiFunction({0: 0})
        with pytest.raises(ValueError):
            PsiFunction({0: 1}, INF)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PsiFunction({-1: 1, 0: -1}),
            lambda: PsiFunction([(0, 1), (-3, Fraction(1, 2))]),
            lambda: Atom("ge", -1, 2),
            lambda: Atom("le", i=-2, c=1),
            lambda: Atom("diff_le", i=0, j=-1, c=0),
            lambda: Atom("diff_eq", i=-1, j=0, c=0),
        ],
        ids=["psifunction", "psifunction-pairs", "ge", "le", "diff_le-j", "diff_eq-i"],
    )
    def test_negative_labels_are_refused(self, build):
        # x-1 would print, and be written to JSON, as text no reader accepts
        with pytest.raises(ValueError, match="-[0-9]+ is negative"):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Atom("le", i=0, c=2.9), "the key 'c' of a constraint atom must be an integer: 2.9"),
            (lambda: Atom("diff_le", i=0, j=True, c=1), "the key 'j' of a constraint atom must be an integer: True"),
            (lambda: Atom("ge", i=1.5, c=1), "the key 'i' of a constraint atom must be an integer: 1.5"),
            (lambda: Atom("le", i=0, c=[2]), "the key 'c' of a constraint atom must be an integer: [2]"),
            (lambda: Atom("ge", i=None, c=1), "the key 'i' of a constraint atom must be an integer: None"),
            (
                lambda: Atom.from_json({"kind": "ge", "i": 0, "j": None, "c": 1}),
                "the key 'j' of a constraint atom must be an integer: None",
            ),
        ],
        ids=["c-float", "j-bool", "i-float", "c-unhashable", "i-none", "json-j-null"],
    )
    def test_atom_fields_are_integers(self, build, message):
        # a float c would print as n0 <= 2.9 and be written to JSON that no
        # reader accepts; an unhashable c would fail in the clock memo's key
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_evaluate(self):
        F = fn("2x0 - x1 + [1]")
        assert F.evaluate({0: 1, 1: 2}) == psi_point(1) * 2 - psi_point(2) + el("[1]")
        assert F.evaluate((1, 2)) == F.evaluate({0: 1, 1: 2})
        assert F.evaluate({0: psi_point(3), 1: 1}) == F.evaluate({0: 3, 1: 1})

    def test_evaluate_matches_reference(self):
        rng = random.Random(53)
        repeated = cancelled = 0
        for _ in range(400):
            F = random_psifunction(rng, max_arity=5)
            labels = F.labels
            if len(labels) >= 2 and rng.random() < 0.3:
                # a zero-sum pair of labels with different denominators elsewhere
                coeffs = F.coeffs
                coeffs[labels[1]] = -coeffs[labels[0]]
                F = PsiFunction(coeffs, F.offset)
            spread = rng.choice([3, 12, 60])
            args = {l: rng.randint(1, spread) for l in labels}
            if len(labels) >= 2 and rng.random() < 0.4:
                args[labels[-1]] = args[labels[0]]
            repeated += len(set(args.values())) < len(args)
            if rng.random() < 0.4:
                # an offset that cancels the staircase sum on some coordinates
                stairs = reference_evaluate(PsiFunction(F.coeffs), args)
                offset = dict(F.offset.items())
                offset.update((c, -q) for c, q in stairs.items() if rng.random() < 0.5)
                F = PsiFunction(F.coeffs, GammaElement(offset))
                cancelled += any(c not in dict(reference_evaluate(F, args).items()) for c, _ in stairs.items())
            want = reference_evaluate(F, args)
            for got in (
                F.evaluate(args),
                F.evaluate(tuple(args[l] for l in labels)),
                F.evaluate({l: psi_point(n) for l, n in args.items()}),
            ):
                assert got.items() == want.items() and hash(got) == hash(want), (F, args)
                assert all(type(q) is Fraction for _, q in got.items())
        assert repeated > 100 and cancelled > 60

    def test_evaluate_argument_errors(self):
        F = fn("x0 - x1")
        with pytest.raises(ValueError, match="psi indices start at 1"):
            F.evaluate((2, 0))
        with pytest.raises(ValueError, match="arguments must be psi points"):
            F.evaluate((el("[1, 2]"), 1))
        for bad, shown in [(1.5, "1.5"), (True, "True"), ("2", "'2'")]:
            with pytest.raises(ValueError) as info:
                F.evaluate((bad, 1))
            assert str(info.value) == f"arguments must be psi points: {shown}"
        with pytest.raises(ValueError, match="assignment length"):
            F.evaluate((1,))
        with pytest.raises(ValueError) as info:
            F.evaluate({0: 1})
        assert str(info.value) == "the assignment gives no index for x1"

    def test_repr_parses_back(self):
        for text in ["x0 - x1", "2 x0 + 1/3 x2 + [0, -1]", "[5]", "x1"]:
            F = fn(text)
            assert fn(repr(F)) == F


class TestDerivedSets:
    def test_psi_itself_is_discrete(self):
        assert derived_set([fn("x0")]) == []

    def test_difference_accumulates_at_zero(self):
        D = derived_set([fn("x0 - x1")])
        assert len(D) == 1 and D[0].is_constant and D[0].offset == ZERO

    def test_four_variable_example(self):
        X = [fn("x0 - x1 + x2 - x3")]
        D = derived_set(X)
        expected = {
            fn("x2 - x3"),
            fn("-x1 + x2"),
            fn("x0 - x3"),
            fn("x0 - x1"),
            PsiFunction({}, ZERO),
        }
        assert set(D) == expected

    def test_d_rank_examples(self):
        assert d_rank([fn("x0 - x1 + x2 - x3")]) == 3
        assert d_rank([PsiFunction({}, el("[1, 7]"))]) == 1
        assert d_rank([fn("x0")]) == 1
        assert d_rank([]) == 0

    def test_d_rank_bound(self):
        rng = random.Random(7)
        for _ in range(40):
            F = random_psifunction(rng, min_arity=1)
            assert 1 <= d_rank([F]) <= len(F.labels)

    def test_union_distributes(self):
        A, B = fn("x0 - x1"), fn("x0 + x1 - 2x2")
        lhs = {(G._coeffs, G.offset) for G in derived_set([A, B])}
        rhs = {
            (G._coeffs, G.offset)
            for G in derived_set([A]) + derived_set([B])
        }
        assert lhs == rhs

    def test_constrained_worked_example(self):
        # {x0 - x1 : x0 = x1 + 1} = {e_m : m >= 1}, then {0}, then nothing
        first = derived_set([fig2_set()])
        assert first == [ConstrainedImage(fn("x0 - x1"), (Atom("diff_eq", i=0, j=1, c=1),)), PsiFunction({}, ZERO)]
        assert derived_set(first) == [PsiFunction({}, ZERO)]
        assert d_rank(fig2_set()) == 3
        assert sampled_equal(derived_set(first), [PsiFunction({}, ZERO)])

    def test_constrained_rule_cases(self):
        one = (Atom("diff_eq", i=0, j=1, c=1),)
        # an upper bound on a zero-sum group keeps it from leaving: no limit
        assert derived_set(ConstrainedImage(fn("x0 - x1"), (Atom("le", i=1, c=5),))) == []
        assert derived_set(ConstrainedImage(fn("x0 - x1 + 2x2"), (Atom("diff_le", i=1, j=2, c=0),))) == []
        # a lower bound from outside holds eventually and drops out
        assert derived_set(ConstrainedImage(fn("x0 - x1 + 2x2"), (Atom("diff_le", i=2, j=1, c=0),))) == [fn("2x2")]
        # a tie that cancels at every position makes the group constant
        assert derived_set(ConstrainedImage(fn("x0 - x1 + 2x2"), (Atom("diff_eq", i=0, j=1, c=0),))) == []
        assert derived_set(ConstrainedImage(fn("x0 - x1 + 2x2"), one)) == [fn("2x2")]
        # atoms within the rest stay; an unsatisfiable system has no points
        with_rest = ConstrainedImage(fn("x0 - x1 + x2 - x3"), one + (Atom("ge", i=2, c=3),))
        assert ConstrainedImage(fn("x2 - x3"), (Atom("ge", i=2, c=3),)) in derived_set(with_rest)
        empty = ConstrainedImage(fn("x0 - x1"), (Atom("ge", i=0, c=3), Atom("le", i=0, c=2)))
        assert derived_set(empty) == [] and d_rank(empty) == 0 and d_rank([empty, fn("x0")]) == 1


class TestMember:
    def test_unique_solution(self):
        sols = member(el("[0, 1, 1]"), fn("x0 - x1"))
        assert len(sols) == 1 and not sols[0].parametric
        assert sols[0].as_dict() == {0: 3, 1: 1}
        assert brute_member(el("[0, 1, 1]"), fn("x0 - x1"), 6) == {(3, 1)}

    def test_no_solution(self):
        assert member(el("[1/2]"), fn("x0 - x1")) == []

    def test_parametric_family(self):
        sols = member(ZERO, fn("x0 - x1"))
        assert len(sols) == 1 and sols[0].parametric
        assert sols[0].as_dict() == {0: 1, 1: 1}
        assert sols[0].floating == (frozenset({0, 1}),)

    def test_constant_function(self):
        F = PsiFunction({}, el("[2]"))
        assert member(el("[2]"), F) == [type(member(el("[2]"), F)[0])(())]
        assert member(el("[3]"), F) == []

    def test_offset_shifts_solutions(self):
        F = parse_linear("x0 - x1 + [0, 0, 5]")
        sols = member(el("[0, 1, 6]"), F)
        assert expand_solutions(sols, F.labels, 6) == brute_member(el("[0, 1, 6]"), F, 6)

    def test_window_completeness_random(self):
        rng = random.Random(20240)
        for _ in range(60):
            F = random_psifunction(rng, min_arity=1, max_arity=3)
            labels = F.labels
            window = {}
            for combo in itertools.product(range(1, 5), repeat=len(labels)):
                window.setdefault(F.evaluate(dict(zip(labels, combo))), set()).add(combo)
            for gamma, expected in list(window.items())[:10]:
                got = expand_solutions(member(gamma, F), labels, 4)
                assert got == expected, (F, gamma)
            # and a certified non-member
            outside = max(window) + unit(0)
            assert expand_solutions(member(outside, F), labels, 4) == set()

    def test_infinity_is_never_a_member(self):
        assert member(INF, fn("x0")) == []

    def test_contains_agrees_with_member(self):
        # contains stops at the first family; member lists them all
        rng = random.Random(1107)
        hits = misses = parametric = 0
        for _ in range(300):
            F = zero_sum_psifunction(rng)
            points = sample_points(F, 4)
            gammas = points + [off_grid(rng, p) for p in points]
            gammas += [random_element(rng, max_support=5, bound=6) for _ in range(3)] + [INF]
            for gamma in gammas:
                families = member(gamma, F)
                assert contains(F, gamma) == bool(families), (F, gamma)
                hits += bool(families)
                misses += not families
                parametric += any(sol.parametric for sol in families)
        assert hits > 500 and misses > 500 and parametric > 100

    def test_alternating_sixteen_labels_contain_zero(self):
        # member lists on the order of 10^7 families here; contains needs one
        alt16 = PsiFunction({l: (-1) ** l for l in range(16)})
        assert contains(alt16, ZERO)
        assert contains([alt16], ZERO)


class TestConstrained:
    def test_fig2_membership(self):
        X = fig2_set()
        w = member_constrained(el("[0, 1, 1]"), X)
        assert w is not None
        assert w[0] - w[1] == 1 and w[2] - w[3] == 1 and w[1] < w[3]
        assert X.base.evaluate(w) == el("[0, 1, 1]")
        assert member_constrained(el("[0, 2]"), X) is None
        assert member_constrained(el("[1]"), X) is None

    def test_fig2_explicit_description(self):
        # members are exactly e_m + e_n for 1 <= m < n
        X = fig2_set()
        for m in range(1, 4):
            for n in range(1, 5):
                point = unit(m) + unit(n)
                expected = m != n  # the two-ones pattern, any order; 2e_m is excluded
                assert (member_constrained(point, X) is not None) == expected

    def test_parametric_meets_constraints(self):
        # x0 - x1 restricted to x0 = x1 contains exactly 0
        C = ConstrainedImage(fn("x0 - x1"), (Atom("diff_eq", i=0, j=1, c=0),))
        assert member_constrained(ZERO, C) == {0: 1, 1: 1}
        assert member_constrained(unit(1), C) is None

    def test_unsatisfiable_constraints_empty(self):
        C = ConstrainedImage(
            fn("x0 - x1"),
            (Atom("diff_le", i=0, j=1, c=-1), Atom("diff_le", i=1, j=0, c=-1)),
        )
        assert C.is_empty()
        assert member_constrained(ZERO, C) is None

    def test_sample_of_empty_component_is_immediate(self):
        # the component is skipped, not tried over every round of indices
        C = ConstrainedImage(
            fn("x0 - x1 + x2 - x3"),
            (Atom("diff_le", i=0, j=1, c=-1), Atom("diff_le", i=1, j=0, c=-1)),
        )
        start = time.perf_counter()
        assert sample_points([C], 5) == []
        assert time.perf_counter() - start < 0.1
        # a sample of no point is empty, and a negative size is refused
        assert sample_points([fn("x0 - x1")], 0) == [] and sample_points([C], 0) == []
        with pytest.raises(ValueError, match="sample size must be >= 0"):
            sample_points([fn("x0 - x1")], -3)

    def test_repr_prints_atoms(self):
        C = ConstrainedImage(
            fn("x0 - x1 + x2"),
            (Atom("diff_le", i=0, j=1, c=-1), Atom("ge", i=2, c=3), Atom("le", i=1, c=5)),
        )
        assert repr(C) == "{x0 - x1 + x2 : n0 - n1 <= -1, n2 >= 3, n1 <= 5}"
        assert repr(fig2_set()) == "{x0 - x1 + x2 - x3 : n0 - n1 = 1, n2 - n3 = 1, n1 - n3 <= -1}"
        assert repr(ConstrainedImage(fn("x0"))) == "{x0}"

    def test_witness_exactly_when_some_family_solves(self):
        # the oracle instantiates every family of member in a window and
        # reads the atoms kind by kind with satisfies
        rng = random.Random(1108)
        found = refused = 0
        for _ in range(150):
            F = zero_sum_psifunction(rng, max_arity=4)
            labels = F.labels
            if not labels:
                continue
            C = ConstrainedImage(F, random_atoms(rng, len(labels)))
            points = sample_points(F, 4)
            least = solve_min(labels, C.constraints)
            if least is not None:
                points.append(F.evaluate(least))
            for gamma in points + [off_grid(rng, points[0])]:
                families = member(gamma, F)
                witness = member_constrained(gamma, C)
                if witness is not None:
                    assert F.evaluate(witness) == gamma
                    assert satisfies(witness, C.constraints)
                    bound = max(witness.values())
                    assert tuple(witness[l] for l in labels) in expand_solutions(families, labels, bound)
                    found += 1
                else:
                    window = expand_solutions(families, labels, 8)
                    assert not any(satisfies(dict(zip(labels, t)), C.constraints) for t in window), (C, gamma)
                    refused += 1
        assert found > 200 and refused > 200

    def test_constraints_must_use_known_labels(self):
        with pytest.raises(ValueError):
            ConstrainedImage(fn("x0"), (Atom("diff_le", i=0, j=5, c=0),))

    @pytest.mark.parametrize("kind", ["ge", "le"])
    def test_one_variable_atoms_take_no_j(self, kind):
        # derived_set read a stray j on these kinds while solve_min ignored it
        with pytest.raises(ValueError, match="takes no 'j'"):
            Atom(kind, i=0, j=1, c=3)
        with pytest.raises(ValueError, match="takes no 'j'"):
            component_from_json({"coeffs": {"x0": "1", "x1": "-1"}, "constraints": [{"kind": kind, "i": 0, "j": 1, "c": 3}]})


class TestSolveMin:
    def test_least_solution(self):
        atoms = (Atom("diff_eq", i=0, j=1, c=1), Atom("ge", i=1, c=4))
        assert solve_min([0, 1], atoms) == {0: 5, 1: 4}

    def test_cycle_detection(self):
        atoms = (Atom("diff_le", i=0, j=1, c=-1), Atom("diff_le", i=1, j=0, c=-1))
        assert solve_min([0, 1], atoms) is None

    def test_upper_bounds(self):
        atoms = (Atom("ge", i=0, c=3), Atom("le", i=0, c=2))
        assert solve_min([0], atoms) is None
        assert solve_min([0], (Atom("le", i=0, c=9),)) == {0: 1}

    def test_reverse_chain_needs_every_pass(self):
        # n_{i+1} >= n_i + 1, listed last link first: each pass raises one more label
        atoms = tuple(Atom("diff_le", i=i, j=i + 1, c=-1) for i in reversed(range(9)))
        assert solve_min(range(10), atoms) == {i: i + 1 for i in range(10)}

    def test_gain_cycle_without_upper_bound(self):
        atoms = (
            Atom("diff_eq", i=0, j=1, c=1),
            Atom("diff_eq", i=1, j=2, c=1),
            Atom("diff_le", i=2, j=0, c=-3),
            Atom("ge", i=2, c=3),
        )
        assert solve_min([0, 1, 2], atoms) is None

    def test_satisfies(self):
        atoms = fig2_set().constraints
        assert satisfies({0: 2, 1: 1, 2: 4, 3: 3}, atoms)
        assert not satisfies({0: 2, 1: 1, 2: 4, 3: 2}, atoms)

    def test_least_solution_matches_brute_force(self):
        # With at most 3 labels, starts of at most 6 and difference constants of
        # at most 3, a least solution is reached along at most 2 difference edges
        # from a start, so every coordinate is <= 6 + 2*3 = 12: searching
        # {1..13}^n finds it, and finding nothing proves the system unsatisfiable.
        rng = random.Random(20261018)
        kinds = set()
        found = 0
        for _ in range(200):
            labels = list(range(rng.randint(1, 3)))
            atoms = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice(["diff_le", "diff_eq", "ge", "le"] if len(labels) > 1 else ["ge", "le"])
                kinds.add(kind)
                if kind in ("ge", "le"):
                    atoms.append(Atom(kind, i=rng.choice(labels), c=rng.randint(1, 6)))
                else:
                    i, j = rng.sample(labels, 2)
                    atoms.append(Atom(kind, i=i, j=j, c=rng.randint(-3, 3)))
            lower = {l: rng.randint(1, 6) for l in labels if rng.random() < 0.3}
            upper = {l: rng.randint(1, 9) for l in labels if rng.random() < 0.3}
            solutions = [
                dict(zip(labels, n))
                for n in itertools.product(range(1, 14), repeat=len(labels))
                if satisfies(dict(zip(labels, n)), atoms)
                and all(n[l] >= b for l, b in lower.items())
                and all(n[l] <= b for l, b in upper.items())
            ]
            got = solve_min(labels, atoms, lower=lower, upper=upper)
            if not solutions:
                assert got is None, (atoms, lower, upper)
                continue
            found += 1
            least = {l: min(s[l] for s in solutions) for l in labels}
            assert got == least, (atoms, lower, upper)
            assert max(least.values()) <= 12
        assert kinds == {"diff_le", "diff_eq", "ge", "le"}
        assert 40 < found < 160


class TestProbe:
    def test_zero_is_a_limit_of_differences(self):
        assert limit_point_probe(ZERO, [fn("x0 - x1")], 8) is True

    def test_e0_is_not(self):
        assert limit_point_probe(el("[1]"), [fn("x0 - x1")], 8) is False

    def test_fig2_first_derived(self):
        X = fig2_set()
        assert limit_point_probe(el("[0, 1]"), X, 8) is True
        assert limit_point_probe(ZERO, X, 8) is True
        # points of X are isolated, not limit points
        assert limit_point_probe(unit(1) + unit(2), X, 8) is False

    def test_derived_members_pass(self):
        rng = random.Random(5)
        for _ in range(25):
            F = random_psifunction(rng, min_arity=1, max_arity=3)
            X = [F]
            for G in derived_set(X):
                pts = sample_points([G], 3)
                for p in pts:
                    assert limit_point_probe(p, X, 8) is True, (F, G, p)

    def test_probe_on_union(self):
        X = [fn("x0 - x1"), fn("x0")]
        assert limit_point_probe(ZERO, X, 8) is True

    def test_probe_takes_a_group_element(self):
        for X in (fig2_set(), []):
            with pytest.raises(ValueError, match="takes a group element"):
                limit_point_probe(INF, X, 3)

    def test_matches_per_profile_reference(self):
        rng = random.Random(11)
        trues = early = 0
        for _ in range(120):
            X = []
            for _ in range(rng.randint(1, 2)):
                F = random_psifunction(rng, max_arity=3, coeff_bound=2)
                if F.labels and rng.random() < 0.6:
                    X.append(ConstrainedImage(F, random_atoms(rng, len(F.labels))))
                else:
                    X.append(F)
            plain = [comp for comp in X if isinstance(comp, PsiFunction)]
            gammas = [ZERO] + sample_points(X, 3) + sample_points(derived_set(plain), 3)
            gammas += [g + unit(rng.randint(0, 4)) for g in gammas[:3]]
            for gamma in gammas:
                K = rng.randint(1, 5)
                got = limit_point_probe(gamma, X, K)
                depth = reference_probe_depth(gamma, X, K)
                assert got == (depth is None), (X, gamma, K)
                trues += got
                early += answered_early(gamma, X, depth, K)
        # the oracle also confirms limit points, not only misses, and the
        # probe, which only asks depth K, meets the misses the reference
        # found at a shallower depth that still had states
        assert trues > 100 and early > 100, (trues, early)

    def test_matches_per_profile_reference_deep(self):
        # depths 6..8, where one sweep serves all depths; the gammas include
        # points moved by a seventh or an eleventh at coordinate 2 or 3,
        # mostly outside (1/D)Z for the union's common denominator D
        rng = random.Random(23)
        trues = off_grid = constrained_trues = early = 0
        for _ in range(60):
            X = []
            for _ in range(rng.randint(1, 2)):
                F = random_psifunction(rng, max_arity=2 if X else 3, coeff_bound=3)
                coeffs = F.coeffs
                if len(coeffs) >= 2 and rng.random() < 0.7:
                    coeffs[1] = -coeffs[0]  # a zero-sum pair, so limit points exist
                    F = PsiFunction(coeffs, F.offset)
                if F.labels and rng.random() < 0.5:
                    X.append(ConstrainedImage(F, random_atoms(rng, len(F.labels))))
                else:
                    X.append(F)
            plain = [comp for comp in X if isinstance(comp, PsiFunction)]
            gammas = [ZERO] + sample_points(X, 2) + sample_points(derived_set(plain), 2)
            gammas += [g + unit(rng.randint(2, 3)) * Fraction(1, rng.choice([7, 11])) for g in gammas[:2]]
            for gamma in gammas:
                K = rng.randint(6, 8)
                got = limit_point_probe(gamma, X, K)
                depth = reference_probe_depth(gamma, X, K)
                assert got == (depth is None), (X, gamma, K)
                trues += got
                early += answered_early(gamma, X, depth, K)
                constrained_trues += got and len(plain) < len(X)
                D = _denominator(_component_parts(X), K)
                off_grid += any(D % q.denominator for _, q in gamma.items())
        assert trues > 40 and constrained_trues > 10 and off_grid > 40 and early > 60, (
            trues,
            constrained_trues,
            off_grid,
            early,
        )

    def test_asks_depth_k_only(self, monkeypatch):
        # every state the probe asks is at depth K, and a probe whose sweep
        # empties before depth K asks none
        calls = []
        holds = psifun._holds_other_point

        def recording(F, atoms, states, k, gamma):
            calls.append(k)
            return holds(F, atoms, states, k, gamma)

        monkeypatch.setattr(psifun, "_holds_other_point", recording)
        X = fig2_set()
        for gamma, K, want in [(ZERO, 8, True), (unit(3), 12, True), (unit(1) + unit(2), 8, False)]:
            calls.clear()
            assert limit_point_probe(gamma, X, K) is want
            assert calls and set(calls) == {K}, (gamma, K, calls)
        # e_1 + e_2 is a point of X; a seventh at coordinate 4 leaves every
        # chain at depth 5, after states at depths 1..4
        gamma = unit(1) + unit(2) + unit(4) * Fraction(1, 7)
        assert any(_last_layer(X, 4, gamma)[1])
        for X, gamma in [(X, gamma), ([fn("x0 - x1")], el("[1]")), ([fn("x0 - x1"), fn("x0 + [0, 1]")], el("[2]"))]:
            calls.clear()
            assert limit_point_probe(gamma, X, 8) is False
            assert calls == [], (X, gamma, calls)

    def test_targeted_sweep_asks_the_same_at_every_depth(self, monkeypatch):
        # the clock-signature memo serves the targeted sweep too: past the
        # caps on the step and on the pin ages, a deeper sweep asks
        # solve_min nothing new.  The memo outlives a sweep, so each count
        # starts from a cleared one, and a warm second sweep asks nothing
        calls = []
        solve = psifun.solve_min

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(psifun, "solve_min", counting)
        for gamma in (ZERO, unit(1), unit(6)):
            asked = []
            for K in (20, 60):
                psifun._clock_memo.cache_clear()
                calls.clear()
                assert any(_last_layer(fig2_set(), K, gamma)[1])
                asked.append(len(calls))
            assert asked[0] == asked[1] > 0, (gamma, asked)
            calls.clear()
            assert any(_last_layer(fig2_set(), 60, gamma)[1])
            assert calls == [], (gamma, len(calls))

    @staticmethod
    def _check_state(F, atoms, pins, k, gamma):
        capped = sum(1 << i for i, l in enumerate(F.labels) if l not in dict(pins))
        got = _holds_other_point(F, atoms, [(capped, pins)], k, gamma)
        assert got == brute_other_point(F, atoms, pins, k, gamma), (F, atoms, pins, k, gamma)
        capped_labels = [l for l in F.labels if l not in dict(pins)]
        assert got == _has_nongamma_value(F, atoms, dict(pins), capped_labels, k, gamma)
        return got

    def test_push_test_matches_wide_window(self):
        rng = random.Random(17)
        counts = {"true": 0, "false": 0, "constant": 0, "outside old window": 0}
        for _ in range(1000):
            F, atoms, pins, k = random_state(rng)
            least = state_least(F, atoms, pins, k)
            if least is None:
                continue  # the sweep never yields an unsatisfiable state
            counts["true" if self._check_state(F, atoms, pins, k, ZERO) else "false"] += 1
            moves = self._check_state(F, atoms, pins, k, F.evaluate(least))
            counts["true" if moves else "false"] += 1
            counts["constant"] += not moves
            counts["outside old window"] += not old_window_holds_solution(F, atoms, pins, k)
        assert min(counts.values()) > 25, counts

    def test_push_test_beyond_old_window(self):
        # diff_eq with c = 8 puts every solution outside {k..k+|I|+3}
        eq = (Atom("diff_eq", i=0, j=1, c=8), Atom("diff_eq", i=2, j=3, c=8))
        cases = [
            (fn("x0 - x1"), eq[:1], True),
            (fn("x0 + x1"), eq[:1], True),
            # tied at n0 = n2: the coefficients cancel at each offset
            (fn("x0 + x1 - x2 - x3"), eq + (Atom("diff_eq", i=0, j=2, c=0),), False),
            # tied at n2 = n1: the offsets differ, so the value moves
            (fn("x0 + x1 - x2 - x3"), eq + (Atom("diff_eq", i=2, j=1, c=0),), True),
            (fn("x0 - x1 + x2 - x3"), eq + (Atom("diff_le", i=1, j=3, c=-1),), True),
            (fn("x0 - x1 + x2 - x3"), eq + (Atom("le", i=3, c=1), Atom("le", i=1, c=2)), True),
            # an upper bound on x1 freezes every label
            (fn("x0 + x1 - x2 - x3"), eq + (Atom("diff_eq", i=0, j=2, c=0), Atom("le", i=1, c=1)), False),
        ]
        for F, atoms, moves in cases:
            assert not old_window_holds_solution(F, atoms, (), 1)
            least = state_least(F, atoms, (), 1)
            assert self._check_state(F, atoms, (), 1, F.evaluate(least)) is moves, (F, atoms)

    def test_fig2_ties_move(self):
        # both tied classes {x0, x1} and {x2, x3} have coefficient sum 0,
        # yet the map is not constant: the rule holds per offset, not per class
        X = fig2_set()
        least = solve_min(X.base.labels, X.constraints)
        assert self._check_state(X.base, X.constraints, (), 1, X.base.evaluate(least)) is True


class TestConstrainedDerivedSets:
    # The probe decides "limit point" only up to its depth: a point that
    # is not one can agree with other points of X on the first few
    # coordinates.  The sampled points have small indices, and at this
    # depth no such agreement is left.
    DEPTH = 14

    def test_probe_agrees_on_adversarial_atoms(self):
        rng = random.Random(41)
        kinds = dict.fromkeys(ADVERSARIAL_KINDS, 0)
        limits = outside = dropped = empty = 0
        for _ in range(300):
            X, case_kinds = adversarial_image(rng)
            for kind in case_kinds:
                kinds[kind] += 1
            F, atoms = X.base, X.constraints
            D = derived_set(X)
            if X.is_empty():
                assert D == [] and d_rank(X) == 0
                empty += 1
            for p in least_points(D, rng, 2):
                assert limit_point_probe(p, X, self.DEPTH), (F, atoms, p)
                limits += 1
            # outside candidates: points of the zero-sum restrictions that
            # the atoms rule out, points of X, and small random elements
            candidates = least_points(X, rng, 3)
            for size in range(1, len(F.labels) + 1):
                for J in itertools.combinations(F.labels, size):
                    if sum(F.coeffs[l] for l in J) != 0:
                        continue
                    rest = tuple(a for a in atoms if a.i not in J and a.j not in J)
                    G = F.restrict(set(F.labels) - set(J))
                    G = ConstrainedImage(G, rest) if rest else G
                    if G not in D:
                        dropped += 1
                        candidates += least_points(G, rng, 2)
            for _ in range(2):
                support = rng.sample(range(6), rng.randint(0, 3))
                candidates.append(GammaElement((c, Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for c in support))
            for p in candidates:
                if not contains(D, p):
                    assert not limit_point_probe(p, X, self.DEPTH), (F, atoms, p)
                    outside += 1
        assert min(kinds.values()) >= 40 and empty >= 40, (kinds, empty)
        assert limits >= 150 and outside >= 1200 and dropped >= 300, (limits, outside, dropped)


class TestRecover:
    def test_huge_extra_index_refused_at_once(self):
        # the value has no coordinate, F there would have about 10^9
        hidden = parse_linear("x0 - 2x1 + [1, 2]")
        evals = [(args, hidden.evaluate(args)) for args in recovery_probes(2)]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="inconsistent evaluations"):
            recover(evals + [((123456789, 1), ZERO)])
        assert time.perf_counter() - start < 0.1

    def test_huge_indices_that_cancel_verified(self):
        hidden = parse_linear("x0 - x1 + [3]")
        evals = [(args, hidden.evaluate(args)) for args in recovery_probes(2)]
        extra = (123456789, 123456786)
        assert recover(evals + [(extra, hidden.evaluate(extra))]) == hidden
        with pytest.raises(ValueError, match="inconsistent evaluations"):
            recover(evals + [(extra, hidden.evaluate(extra) + unit(123456787))])

    def test_infinite_value_refused(self):
        hidden = parse_linear("x0")
        for i in range(2):
            evals = [(args, hidden.evaluate(args)) for args in recovery_probes(1)]
            evals[i] = (evals[i][0], INF)
            with pytest.raises(ValueError, match="inconsistent evaluations"):
                recover(evals)

    def test_example(self):
        hidden = parse_linear("2x0 - x1 + [1]")
        evals = [(args, hidden.evaluate(args)) for args in recovery_probes(2)]
        assert recover(evals) == hidden

    def test_constant(self):
        hidden = PsiFunction({}, el("[0, 7]"))
        evals = [((), hidden.offset)]
        assert recover(evals) == hidden

    def test_degenerate_coefficients_dropped(self):
        # a hidden function may be blind in some coordinates
        hidden = parse_linear("3x1")
        probes = recovery_probes(2)
        evals = [(args, psi_point(args[1]) * 3) for args in probes]
        assert recover(evals) == hidden

    def test_mixed_sources_detected(self):
        f1, f2 = parse_linear("x0 + x1"), parse_linear("x0 - x1")
        evals = [(args, f1.evaluate(args)) for args in recovery_probes(2)]
        evals.append(((3, 3), f2.evaluate((3, 3))))
        with pytest.raises(ValueError):
            recover(evals)

    def test_extra_evaluation_below_one_rejected(self):
        hidden = parse_linear("x0 - 2x1")
        evals = [(args, hidden.evaluate(args)) for args in recovery_probes(2)]
        with pytest.raises(ValueError):
            recover(evals + [((0, 1), ZERO)])

    def test_missing_probes_rejected(self):
        with pytest.raises(ValueError):
            recover([((1, 1), ZERO)])

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(30):
            arity = rng.randint(0, 4)
            hidden = random_psifunction(rng, min_arity=arity, max_arity=arity)
            evals = [(args, hidden.evaluate(args)) for args in recovery_probes(arity)]
            extra = tuple(rng.randint(1, 5) for _ in range(arity))
            evals.append((extra, hidden.evaluate(extra)))
            assert recover(evals) == hidden


def first_max_clique(sample, phi):
    """Independent oracle: the maximum equilateral subset whose increasing
    sample positions come first lexicographically, by brute force over all
    subsets."""
    n = len(sample)
    adjacent = [[psi(a - b) == phi for b in sample] for a in sample]
    cliques = (
        combo
        for size in range(n + 1)
        for combo in itertools.combinations(range(n), size)
        if all(adjacent[i][j] for i, j in itertools.combinations(combo, 2))
    )
    return [sample[i] for i in min(cliques, key=lambda combo: (-len(combo), combo))]


class TestEquilateral:
    def test_first_maximum_clique_by_position(self):
        rng = random.Random(1204)
        sizes = set()
        for _ in range(300):
            # few prefixes and few values, so classes, ties and repeats occur
            support = rng.randint(1, 6)
            pool = {GammaElement({i: rng.randint(-1, 1) for i in range(support)}) for _ in range(12)}
            sample = rng.sample(sorted(pool), min(len(pool), rng.randint(0, 12)))
            for k in range(1, 7):
                best = equilateral_max_clique(sample, psi_point(k))
                assert best == first_max_clique(sample, psi_point(k)), (sample, k)
                sizes.add(len(best))
        assert {0, 1, 2, 3} <= sizes

    def test_forty_points(self):
        sample = [GammaElement({0: 1, 1: i}) for i in range(40)]
        assert equilateral_max_clique(sample, psi_point(2)) == sample
        assert len(equilateral_max_clique(sample, psi_point(1))) == 1

    def test_rejects_infinite_point(self):
        with pytest.raises(ValueError, match="group elements"):
            equilateral_max_clique([el("[1]"), INF], psi_point(1))

    def test_pair_table_example(self):
        sample = [unit(1) + unit(2), unit(1) + unit(3), unit(1) + unit(4)]
        best = equilateral_max_clique(sample, psi_point(3))
        assert len(best) == 2 and sample[0] in best

    def test_singleton(self):
        assert equilateral_max_clique([el("[5]")], psi_point(1)) == [el("[5]")]

    def test_staircase_triangle_fails(self):
        sample = [psi_point(1), psi_point(2), psi_point(3)]
        best = equilateral_max_clique(sample, psi_point(2))
        assert len(best) == 2 and psi_point(1) in best

    def test_rejects_infinity_and_duplicates(self):
        with pytest.raises(ValueError):
            equilateral_max_clique([el("[1]")], INF)
        with pytest.raises(ValueError):
            equilateral_max_clique([el("[1]"), el("[1]")], psi_point(1))


class TestProducts:
    def test_product_formula_on_fig_example(self):
        A = closure([fn("x0 - x1")])
        C = closure([fn("x0")])
        for k in range(0, 4):
            lhs = [(A, C)]
            for _ in range(k):
                lhs = product_derived_step(lhs)
            rhs = product_derived_direct(A, C, k)
            probes = [
                (ZERO, psi_point(2)),
                (-unit(3), psi_point(1)),
                (psi_point(2) - psi_point(1), psi_point(4)),
                (unit(0), unit(1)),
                (ZERO, ZERO),
            ]
            for x, y in probes:
                assert product_contains(lhs, x, y) == product_contains(rhs, x, y)


class TestClosure:
    def test_closure_contains_set_and_limits(self):
        X = [fn("x0 - x1")]
        C = closure(X)
        assert contains(C, psi_point(3) - psi_point(1))
        assert contains(C, ZERO)

    def test_derived_of_closure_inside_closure_of_derived(self):
        rng = random.Random(31)
        for _ in range(30):
            F = random_psifunction(rng, min_arity=1, max_arity=3)
            if rng.random() < 0.7 and len(F.labels) >= 2:
                # plant a zero-sum pair so limit points exist
                q = F.coeffs
                q[F.labels[-1]] = -q[F.labels[0]]
                F = PsiFunction(q, F.offset)
            X = [F]
            left = derived_set(closure(X))
            right = closure(derived_set(X))
            for p in sample_points(left, 6):
                assert contains(right, p), (F, p)


class TestSemantics:
    def test_semantic_equality_of_presentations(self):
        # x0 - x1 and its relabelled twin have the same image
        assert sampled_equal([fn("x0 - x1")], [fn("x2 - x3")])
        assert not sampled_equal([fn("x0 - x1")], [fn("x0")])

    def test_contains_union(self):
        X = [fn("x0"), PsiFunction({}, el("[1/2]"))]
        assert contains(X, psi_point(4))
        assert contains(X, el("[1/2]"))
        assert not contains(X, el("[1/3]"))


class TestJson:
    def test_component_round_trip(self):
        comp = fig2_set()
        again = component_from_json(component_to_json(comp))
        assert isinstance(again, ConstrainedImage)
        assert again == comp

    def test_union_round_trip(self):
        X = [fn("x0 - 1/2 x1 + [0, 2]"), fig2_set()]
        data = imageunion_to_json(X)
        back = imageunion_from_json(data)
        assert back == X

    def test_single_object_accepted(self):
        data = component_to_json(fn("x0"))
        assert imageunion_from_json(data) == [fn("x0")]
