"""Exact symbolic computation on the asymptotic couple of logarithmic transseries.

The computable model is the group of finitely supported rational
sequences under lexicographic order with the staircase valuation map;
on top of it live the term language, the small-set calculus of affine
images with exact derived sets, quotient projections and counting, and
the family of dimension functions on representable definable sets.
"""

from .element import (
    GammaElement,
    GammaExt,
    INF,
    ZERO,
    unit,
    psi_point,
    psi_point_index,
    is_psi_point,
    parse_element,
    format_element,
    compare,
    psi,
    integral,
    succ,
    pred,
    delta,
    small_diff_witness,
    rv_equiv,
    arch_class,
    psi_precedes,
)
from .psifun import (
    Atom,
    ConstrainedImage,
    PsiFunction,
    d_rank,
    derived_set,
    equilateral_max_clique,
    limit_point_probe,
    member,
    member_constrained,
    parse_linear,
    recover,
)
from .quotient import Phi, PHI_INF, count_function, in_delta, project, project_set
from .sets import Interval, NaryRep, ThickenedSmall, UnaryRep, dim, sst_crosscheck
from .terms import GenSFunction, eval_gensfun, eval_term, gensfun_image, parse_term

__version__ = "0.1.0"
