"""A sampled comparison of image unions, for tests that compare two
presentations of what should be the same set."""

from logcouple.psifun import contains, d_rank, sample_points


def sampled_equal(X, Y, samples: int = 24) -> bool:
    """Whether X and Y have the same d-rank and each holds the other's
    first ``samples`` canonical sample points.  A False is a proof that the
    sets differ; a True is evidence of equality, not a proof."""
    if d_rank(X) != d_rank(Y):
        return False
    return all(contains(Y, p) for p in sample_points(X, samples)) and all(
        contains(X, p) for p in sample_points(Y, samples)
    )
