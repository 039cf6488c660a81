"""Brute-force and sampled oracles for tests: ``expand_solutions`` lists
the concrete assignments of membership families, and ``sampled_equal``
compares two presentations of what should be the same set."""

import itertools
from typing import Iterable, Sequence

from logcouple.psifun import MemberSolution, contains, d_rank, sample_points


def expand_solutions(
    solutions: Iterable[MemberSolution], labels: Sequence[int], bound: int
) -> set:
    """All concrete assignments (tuples in label order) with every index in
    1..bound, instantiating parametric groups at every position."""
    labels = list(labels)
    result = set()
    for sol in solutions:
        base = sol.as_dict()
        fixed = {l: v for l, v in base.items() if all(l not in g for g in sol.floating)}
        if any(v > bound for v in fixed.values()):
            continue
        if not sol.floating:
            result.add(tuple(base[l] for l in labels))
            continue
        for positions in itertools.product(range(1, bound + 1), repeat=len(sol.floating)):
            inst = dict(fixed)
            for group, pos in zip(sol.floating, positions):
                for l in group:
                    inst[l] = pos
            result.add(tuple(inst[l] for l in labels))
    return result


def sampled_equal(X, Y, samples: int = 24) -> bool:
    """Whether X and Y have the same d-rank and each holds the other's
    first ``samples`` canonical sample points.  A False is a proof that the
    sets differ; a True is evidence of equality, not a proof."""
    if d_rank(X) != d_rank(Y):
        return False
    return all(contains(Y, p) for p in sample_points(X, samples)) and all(
        contains(X, p) for p in sample_points(Y, samples)
    )
