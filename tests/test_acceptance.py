"""Acceptance suite: one test per criterion, exact tolerances, seeded.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from logcouple.element import (
    ZERO,
    compare,
    is_psi_point,
    psi,
    psi_point,
    small_diff_witness,
    unit,
)
from logcouple.gen import (
    random_element,
    random_image_union,
    random_positive_element,
    random_psi_function,
    random_small_unary_rep,
    random_unary_rep,
)
from logcouple.identities import run_identity_suite, suite_passed
from logcouple.psifun import (
    Atom,
    ConstrainedImage,
    PsiFunction,
    closure,
    contains,
    d_rank,
    derived_set,
    equilateral_max_clique,
    fig2_set,
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
)
from logcouple.quotient import PHI_INF, Phi, count_function, project, project_set
from logcouple.sets import (
    FULL_LINE,
    Interval,
    NEG_DIM,
    ThickenedSmall,
    UnaryRep,
    dim,
    product_rep,
    sst_crosscheck,
    union,
)
from sampled_sets import expand_solutions, sampled_equal


@contextmanager
def criterion(number, label):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label} [{time.time() - start:.1f}s]")


def test_criterion_1_identity_suite():
    with criterion(1, "identity suite, 10000 elements, exact"):
        start = time.time()
        lines = run_identity_suite(10000, seed=1)
        elapsed = time.time() - start
        for line in lines:
            assert line.failures == 0, line.name
        assert suite_passed(lines)
        assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"


def test_criterion_2_fig2_chain():
    with criterion(2, "worked-example derived chain and probe"):
        start = time.time()
        F4 = parse_linear("x0 - x1 + x2 - x3")
        assert d_rank([F4]) == 3
        second = derived_set(derived_set([F4]))
        origin = [PsiFunction({}, ZERO)]
        assert sampled_equal(second, origin)
        assert contains(second, ZERO)
        rng = random.Random(2)
        for _ in range(20):
            p = random_element(rng)
            if not p.is_zero:
                assert not contains(second, p)

        # the worked example's chain, exactly: {e_m : m >= 1} u {0}, then
        # {0}, then nothing
        X = fig2_set()
        first = derived_set(X)
        shift = ConstrainedImage(parse_linear("x0 - x1"), (Atom("diff_eq", i=0, j=1, c=1),))
        assert first == [shift, PsiFunction({}, ZERO)]
        assert all(shift.base.evaluate({0: m + 1, 1: m}) == unit(m) for m in range(1, 9))
        assert derived_set(first) == origin
        assert derived_set(derived_set(first)) == []
        assert d_rank(X) == 3

        first_derived_points = [ZERO] + [unit(m) for m in range(1, 7)]
        for p in first_derived_points:
            assert limit_point_probe(p, X, 8), p
        rejected = 0
        tries = 0
        while rejected < 50 and tries < 2000:
            tries += 1
            g = random_element(rng)
            if g.is_zero or g in first_derived_points:
                continue
            if any(g == unit(m) for m in range(1, 9)):
                continue
            if member_constrained(g, X) is not None:
                continue
            assert not limit_point_probe(g, X, 8), g
            rejected += 1
        assert rejected == 50
        assert time.time() - start < 30.0


def test_criterion_3_counting_polynomial():
    with criterion(3, "counting function matches the closed form, k=1..12"):
        start = time.time()
        table = count_function(fig2_set(), range(1, 13))
        for k, c in table:
            assert c == Fraction(1, 2) * k * k - Fraction(1, 2) * k + 1, (k, c)
        assert dict(table)[5] == 11
        assert time.time() - start < 30.0


def _criterion_instances():
    rng = random.Random(2024)
    return [
        random_psi_function(
            rng, min_arity=1, max_arity=3, coeff_bound=9, zero_sum_bias=0.6
        )
        for _ in range(200)
    ]


def test_criterion_4_derived_set_oracle():
    with criterion(4, "derived sets vs limit-point probe, 200 instances"):
        start = time.time()
        rng = random.Random(44)
        instances = _criterion_instances()
        derived_points_checked = 0
        for F in instances:
            X = [F]
            D = derived_set(X)
            for G in D:
                for p in sample_points([G], 2):
                    assert limit_point_probe(p, X, 8), (F, G, p)
                    derived_points_checked += 1
            outside = 0
            tries = 0
            while outside < 10 and tries < 400:
                tries += 1
                g = random_element(rng)
                if contains(X, g) or contains(D, g):
                    continue
                assert not limit_point_probe(g, X, 8), (F, g)
                outside += 1
            assert outside == 10
        assert derived_points_checked >= 50  # the criterion is not vacuous
        # the worked example's first derived set is {0} u {e_m : m >= 1}:
        # its first seven points are limit points at depth 30 as well
        X = fig2_set()
        for p in [ZERO] + [unit(m) for m in range(1, 7)]:
            assert limit_point_probe(p, X, 30), p
        assert time.time() - start < 120.0


def test_criterion_5_member_completeness():
    with criterion(5, "membership solver vs brute force over {1..6}^I"):
        start = time.time()
        for F in _criterion_instances():
            labels = F.labels
            window = {}
            for combo in itertools.product(range(1, 7), repeat=len(labels)):
                window.setdefault(F.evaluate(dict(zip(labels, combo))), set()).add(combo)
            for gamma, expected in window.items():
                got = expand_solutions(member(gamma, F), labels, 6)
                assert got == expected, (F, gamma)
            outsider = max(window) + unit(0)
            assert expand_solutions(member(outsider, F), labels, 6) == set()
        assert time.time() - start < 60.0


def test_criterion_6_d_rank_bound():
    with criterion(6, "derived-set rank bounded by the arity"):
        for F in _criterion_instances():
            assert 1 <= d_rank([F]) <= len(F.labels), F


def test_criterion_7_witness_construction():
    with criterion(7, "small-difference witnesses, 100 random eps"):
        rng = random.Random(7)
        for _ in range(100):
            eps = random_positive_element(rng)
            d0, d1 = small_diff_witness(eps)
            assert is_psi_point(d0) and is_psi_point(d1)
            assert compare(d0, psi(eps)) >= 0 and compare(d1, psi(eps)) >= 0
            diff = d0 - d1
            assert diff > ZERO
            assert compare(psi(diff), psi(eps)) > 0


def test_criterion_8_product_derived_formula():
    with criterion(8, "product derived-set formula, 20 closure pairs, k<=3"):
        rng = random.Random(8)
        for _ in range(20):
            A = closure(
                random_image_union(rng, max_components=2, max_arity=3, zero_sum_bias=0.7)
            )
            C = closure(
                random_image_union(rng, max_components=2, max_arity=3, zero_sum_bias=0.7)
            )
            pool_x = sample_points(A, 6) + [ZERO, random_element(rng)]
            pool_y = sample_points(C, 6) + [ZERO, random_element(rng)]
            lhs = [(A, C)]
            for k in range(0, 4):
                rhs = product_derived_direct(A, C, k)
                pairs = list(itertools.product(pool_x, pool_y))
                rng.shuffle(pairs)
                for x, y in pairs[:100]:
                    assert product_contains(lhs, x, y) == product_contains(rhs, x, y), (
                        A,
                        C,
                        k,
                        x,
                        y,
                    )
                lhs = product_derived_step(lhs)


def test_criterion_9_dimension_crosschecks():
    with criterion(9, "dimension crosschecks, 300 reps x 7 scales"):
        start = time.time()
        rng = random.Random(9)
        reps = [random_unary_rep(rng) for _ in range(300)]
        scales = [Phi(k) for k in range(1, 7)] + [PHI_INF]

        assert dim(UnaryRep([]), Phi(1)) == NEG_DIM
        singleton = UnaryRep([ThickenedSmall([PsiFunction({}, random_element(rng))])])
        line = UnaryRep([FULL_LINE])
        for phi in scales:
            assert dim(singleton, phi) == 0
            assert dim(line, phi) == 1

        for rep in reps:
            dims = []
            for phi in scales:
                report = sst_crosscheck(rep, phi)
                assert report.consistent, (rep, phi, report)
                dims.append(report.dim_route_a)
            finite_dims = [d for d in dims[:-1]]
            assert finite_dims == sorted(finite_dims), rep  # monotone in the scale
            assert dim(rep, Phi(8)) == dim(rep, PHI_INF), rep  # stabilized by k=8

        for a, b in zip(reps, reps[1:]):
            for phi in (Phi(2), Phi(5), PHI_INF):
                assert dim(union(a, b), phi) == max(dim(a, phi), dim(b, phi))
                da, db = dim(a, phi), dim(b, phi)
                expected = NEG_DIM if NEG_DIM in (da, db) else da + db
                assert dim(product_rep(a, b), phi) == expected
        assert time.time() - start < 120.0


def _brute_core_projection(core, k, window):
    out = set()
    from logcouple.psifun import _component_parts

    for F, atoms in _component_parts(core):
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


def test_criterion_10_quotient_certificates():
    with criterion(10, "finite quotient certificates vs windowed brute force"):
        rng = random.Random(10)
        for k in range(1, 7):
            phi = Phi(k)
            for _ in range(5):
                rep = random_small_unary_rep(rng, phi)
                assert dim(rep, phi) <= 0
                report = sst_crosscheck(rep, phi)
                assert report.consistent
                assert report.quotient_image is not None
                expected = set()
                for comp in rep.components:
                    if comp.is_empty:
                        continue
                    if isinstance(comp, Interval):
                        expected.add(project(comp.lo, k))
                    else:
                        core_brute = _brute_core_projection(comp.core, k, k + 3)
                        assert project_set(comp.core, k) == core_brute, comp
                        expected |= core_brute
                assert set(report.quotient_image) == expected, rep


def test_criterion_11_recovery():
    with criterion(11, "exact recovery of 100 hidden affine maps"):
        rng = random.Random(11)
        for _ in range(100):
            true_arity = rng.randint(0, 4)
            hidden = random_psi_function(rng, min_arity=true_arity, max_arity=true_arity)
            probe_arity = true_arity
            if rng.random() < 0.3 and true_arity < 4:
                probe_arity = true_arity + 1  # present with a blind coordinate
            evals = []
            for args in recovery_probes(probe_arity):
                value = hidden.evaluate(
                    {l: args[i] for i, l in enumerate(hidden.labels)}
                )
                evals.append((args, value))
            extra = tuple(rng.randint(1, 5) for _ in range(probe_arity))
            evals.append(
                (extra, hidden.evaluate({l: extra[i] for i, l in enumerate(hidden.labels)}))
            )
            assert recover(evals) == hidden


def test_criterion_12_anti_equilateral_monitoring():
    with criterion(12, "anti-equilateral monitoring (report only)"):
        rng = random.Random(12)
        N = 12
        growth_events = []
        comparisons = 0
        for _ in range(50):
            X = random_image_union(
                rng, max_components=2, max_arity=3, zero_sum_bias=0.5
            )
            small = sample_points(X, N)
            large = sample_points(X, 2 * N)
            for k in range(2, 6):
                phi = psi_point(k)
                a = len(equilateral_max_clique(small, phi))
                b = len(equilateral_max_clique(large, phi))
                comparisons += 1
                if b != a:
                    growth_events.append((X, k, a, b))
        assert comparisons == 200
        print(
            f"\n  anti-equilateral report: {len(growth_events)} growth events "
            f"in {comparisons} window comparisons"
            + (" (flagged for investigation, not a rejection)" if growth_events else "")
        )
