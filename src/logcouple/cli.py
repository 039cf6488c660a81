"""Command-line front end: batch verbs over every operation plus a REPL.

Exit codes: 0 on success, 1 on parse or validation errors, 2 when an
internal cross-check reports a discrepancy (which should never happen on
the shipped model).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from .element import (
    GammaElement,
    GammaExt,
    INF,
    format_element,
    integral,
    parse_element,
    parse_integer,
    pred,
    psi,
    small_diff_witness,
    succ,
)
from .identities import run_identity_suite, suite_passed
from .psifun import (
    ConstrainedImage,
    component_to_json,
    d_rank,
    derived_set,
    equilateral_max_clique,
    imageunion_from_json,
    imageunion_to_json,
    member,
    member_constrained,
    parse_linear,
    psifunction_to_json,
    recover,
)
from .quotient import (
    Phi,
    count_function,
    fit_count_polynomial,
    format_vector,
    project,
    project_set,
)
from .sets import (
    NEG_DIM,
    Rep,
    UnaryRep,
    dim,
    rep_from_json,
    rep_to_json,
    sst_crosscheck,
)
from .terms import eval_term, parse_term

__all__ = ["main"]


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route all argparse failures to exit code 1
        raise CliError(message)


def _parse_env(pairs: Optional[List[str]]) -> Dict[str, GammaExt]:
    env: Dict[str, GammaExt] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise CliError(f"--env expects name=element, got {pair!r}")
        name, value = pair.split("=", 1)
        env[name.strip()] = parse_element(value)
    return env


def _parse_k_range(text: str) -> List[int]:
    if ".." in text:
        a, b = text.split("..", 1)
        lo, hi = parse_integer(a), parse_integer(b)
        if lo < 1 or hi < lo:
            raise CliError(f"bad range {text!r}")
        return list(range(lo, hi + 1))
    k = parse_integer(text)
    if k < 1:
        raise CliError("k must be >= 1")
    return [k]


def _parse_phis(text: str) -> List[Phi]:
    return [Phi.parse(part) for part in text.split(",")]


def _load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def _load_union(args) -> List:
    if args.union:
        return [parse_linear(args.union)]
    if not args.file:
        raise CliError("give --union EXPR or a JSON file")
    data = _load_json(args.file)
    if isinstance(data, dict) and "products" in data:
        raise CliError("this verb takes an image-union JSON, not a definable-set rep")
    return imageunion_from_json(data)


def _emit(args, payload, text_lines: Sequence[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_eval(args) -> int:
    term = parse_term(args.term)
    value = eval_term(term, _parse_env(args.env))
    _emit(args, {"value": format_element(value)}, [format_element(value)])
    return 0


def _primitive_cmd(fn):
    def run(args) -> int:
        value = fn(parse_element(args.element))
        _emit(args, {"value": format_element(value)}, [format_element(value)])
        return 0

    return run


def _cmd_dset(args) -> int:
    D = derived_set(_load_union(args))
    _emit(args, imageunion_to_json(D), [repr(F) for F in D] or ["(empty)"])
    return 0


def _cmd_drank(args) -> int:
    r = d_rank(_load_union(args))
    _emit(args, {"d_rank": r}, [str(r)])
    return 0


def _cmd_member(args) -> int:
    gamma = parse_element(args.gamma)
    if gamma is INF:
        raise CliError("membership is about group elements")
    union = _load_union(args)
    lines: List[str] = []
    payload = []
    hit = False
    for comp in union:
        if isinstance(comp, ConstrainedImage):
            witness = member_constrained(gamma, comp)
            if witness is not None:
                hit = True
                ordered = [witness[l] for l in comp.base.labels]
                lines.append(f"{comp.base!r} with constraints: {tuple(ordered)}")
                payload.append(
                    {"component": component_to_json(comp), "witness": ordered}
                )
        else:
            for sol in member(gamma, comp):
                hit = True
                ordered = [sol.as_dict()[l] for l in comp.labels]
                tag = " (parametric)" if sol.parametric else ""
                lines.append(f"{comp!r}: {tuple(ordered)}{tag}")
                payload.append(
                    {
                        "component": component_to_json(comp),
                        "witness": ordered,
                        "parametric": sol.parametric,
                    }
                )
    if not hit:
        lines.append("no")
    _emit(args, {"member": hit, "solutions": payload}, lines)
    return 0


def _cmd_project(args) -> int:
    gamma = parse_element(args.element)
    if gamma is INF:
        raise CliError("projection is about group elements")
    ks = _parse_k_range(args.k)
    if len(ks) != 1:
        raise CliError("project takes a single k")
    vec = project(gamma, ks[0])
    _emit(args, {"vector": [str(q) for q in vec]}, [format_vector(vec)])
    return 0


def _cmd_project_set(args) -> int:
    union = _load_union(args)
    ks = _parse_k_range(args.k)
    if len(ks) != 1:
        raise CliError("project-set takes a single k")
    vectors = list(project_set(union, ks[0]))
    _emit(
        args,
        {"k": ks[0], "vectors": [[str(q) for q in v] for v in vectors]},
        [format_vector(v) for v in vectors],
    )
    return 0


def _cmd_count(args) -> int:
    union = _load_union(args)
    ks = _parse_k_range(args.k)
    table = count_function(union, ks)
    lines = ["k\tcount"] + [f"{k}\t{c}" for k, c in table]
    payload = {"counts": [{"k": k, "count": c} for k, c in table]}
    if args.fit:
        coeffs = fit_count_polynomial(table)
        if coeffs is None:
            lines.append("# no exact polynomial fit")
            payload["fit"] = None
        else:
            poly = " + ".join(
                f"{c}*k^{i}" if i else str(c) for i, c in enumerate(coeffs) if c
            )
            lines.append(f"# conjectural fit: {poly}")
            payload["fit"] = {"coefficients": [str(c) for c in coeffs], "conjectural": True}
    _emit(args, payload, lines)
    return 0


def _load_rep(path: str) -> Rep:
    return rep_from_json(_load_json(path))


def _fmt_dim(d) -> str:
    return "-inf" if d == NEG_DIM else str(d)


def _cmd_dim(args) -> int:
    rep = _load_rep(args.rep)
    phis = _parse_phis(args.phi)
    lines = []
    payload = []
    for phi in phis:
        d = dim(rep, phi)
        lines.append(f"{phi}\t{_fmt_dim(d)}")
        payload.append({"phi": str(phi), "dim": _fmt_dim(d)})
    _emit(args, {"dims": payload}, ["phi\tdim"] + lines)
    return 0


def _cmd_crosscheck(args) -> int:
    rep = _load_rep(args.rep)
    if not isinstance(rep, UnaryRep):
        raise CliError("crosscheck takes a unary representation")
    phis = _parse_phis(args.phi)
    lines = []
    payload = []
    bad = False
    for phi in phis:
        report = sst_crosscheck(rep, phi)
        status = "ok" if report.consistent else "DISCREPANCY"
        extra = ""
        if report.quotient_size is not None:
            extra += f"\tquotient={report.quotient_size}"
        if report.rank is not None:
            extra += f"\td_rank={report.rank}"
        lines.append(
            f"{phi}\tdimA={_fmt_dim(report.dim_route_a)}\tdimB={_fmt_dim(report.dim_route_b)}\t{status}{extra}"
        )
        payload.append(
            {
                "phi": str(phi),
                "dim_route_a": _fmt_dim(report.dim_route_a),
                "dim_route_b": _fmt_dim(report.dim_route_b),
                "consistent": report.consistent,
                "quotient_size": report.quotient_size,
                "d_rank": report.rank,
            }
        )
        bad = bad or not report.consistent
    _emit(args, {"reports": payload}, lines)
    return 2 if bad else 0


def _cmd_witness(args) -> int:
    eps = parse_element(args.element)
    if eps is INF:
        raise CliError("witness construction needs a positive group element")
    d0, d1 = small_diff_witness(eps)
    _emit(
        args,
        {"delta0": format_element(d0), "delta1": format_element(d1)},
        [f"{format_element(d0)}\t{format_element(d1)}"],
    )
    return 0


def _cmd_clique(args) -> int:
    points = [parse_element(p) for p in args.point or []]
    if args.file:
        data = _load_json(args.file)
        if not isinstance(data, list) or not all(isinstance(p, str) for p in data):
            raise CliError("clique --file takes a JSON array of element strings")
        points.extend(parse_element(p) for p in data)
    bad = [p for p in points if p is INF]
    if bad or not points:
        raise CliError("clique needs one or more group-element points")
    phi = Phi.parse(args.phi)
    if not phi.is_finite:
        raise CliError("clique needs a finite scale value")
    best = equilateral_max_clique(points, phi.as_element())
    _emit(
        args,
        {"size": len(best), "clique": [format_element(p) for p in best]},
        [f"size\t{len(best)}"] + [format_element(p) for p in best],
    )
    return 0


def _field(obj, key: str, kind: type):
    if not isinstance(obj, dict) or key not in obj:
        raise CliError(f"recover input is missing the key {key!r}")
    if not isinstance(obj[key], kind):
        raise CliError(f"recover input: {key!r} must be a {'list' if kind is list else 'string'}")
    return obj[key]


def _cmd_recover(args) -> int:
    data = _load_json(args.file)
    evals = [
        (tuple(_field(item, "args", list)), parse_element(_field(item, "value", str)))
        for item in _field(data, "evals", list)
    ]
    F = recover(evals)
    _emit(args, psifunction_to_json(F), [repr(F)])
    return 0


def _cmd_identities(args) -> int:
    n, seed = parse_integer(args.n), parse_integer(args.seed)
    lines = run_identity_suite(n, seed)
    ok = suite_passed(lines)
    text = [
        f"{'PASS' if line.passed else 'FAIL'}\t{line.name}\tchecked={line.checked}\tfailures={line.failures}"
        for line in lines
    ]
    text.append(f"{'PASS' if ok else 'FAIL'}\tidentity suite (n={n}, seed={seed})")
    _emit(
        args,
        {
            "passed": ok,
            "checks": [
                {"name": l.name, "checked": l.checked, "failures": l.failures}
                for l in lines
            ],
        },
        text,
    )
    return 0 if ok else 2


def _repl_print(value) -> None:
    print(format_element(value))


def _cmd_repl(args) -> int:
    session: Dict[str, object] = {}
    prompt = "" if not sys.stdin.isatty() else "> "
    print("element and rep session; 'quit' to leave", file=sys.stderr)
    while True:
        try:
            line = input(prompt)
        except EOFError:
            return 0
        line = line.strip()
        if not line:
            continue
        try:
            if line in ("quit", "exit"):
                return 0
            if line == "env":
                for name, value in sorted(session.items()):
                    kind = "rep" if isinstance(value, Rep) else "elem"
                    shown = format_element(value) if kind == "elem" else "(rep)"
                    print(f"{name}\t{kind}\t{shown}")
                continue
            parts = line.split()
            if parts[0] == "save" and len(parts) == 3:
                name, path = parts[1], parts[2]
                if name not in session:
                    raise CliError(f"nothing named {name!r}")
                value = session[name]
                with open(path, "w") as handle:
                    if isinstance(value, Rep):
                        json.dump(rep_to_json(value), handle)
                    else:
                        json.dump(format_element(value), handle)
                continue
            if parts[0] == "load" and len(parts) == 3:
                name, path = parts[1], parts[2]
                data = _load_json(path)
                if isinstance(data, str):
                    session[name] = parse_element(data)
                else:
                    session[name] = rep_from_json(data)
                continue
            if parts[0] == "dim" and len(parts) == 3:
                name, phi_text = parts[1], parts[2]
                rep = session.get(name)
                if not isinstance(rep, Rep):
                    raise CliError(f"{name!r} is not a loaded rep")
                print(_fmt_dim(dim(rep, Phi.parse(phi_text))))
                continue
            if "=" in line and not line.startswith("["):
                name, expr = line.split("=", 1)
                name = name.strip()
                if not name.isidentifier():
                    raise CliError(f"bad name {name!r}")
                env = {k: v for k, v in session.items() if isinstance(v, (GammaElement,)) or v is INF}
                value = eval_term(parse_term(expr), env)
                session[name] = value
                _repl_print(value)
                continue
            env = {k: v for k, v in session.items() if isinstance(v, (GammaElement,)) or v is INF}
            _repl_print(eval_term(parse_term(line), env))
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on first use.  It keeps no
    state between calls: every ``parse_args`` makes a new Namespace, and
    the repeatable options (``--env``, ``--point``) default to None, so
    each call starts its own list."""
    parser = _Parser(prog="logcouple", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("eval", _cmd_eval, help="evaluate a term")
    p.add_argument("term")
    p.add_argument("--env", action="append", metavar="NAME=ELEM")

    # These four closures capture psi, integral, succ and pred when the
    # parser is built, so rebinding those names on this module later does
    # not reach them; every _cmd_* function looks its callees up when it runs.
    for name, fn in (("psi", psi), ("int", integral), ("s", succ), ("p", pred)):
        p = add(name, _primitive_cmd(fn), help=f"apply {name} to an element")
        p.add_argument("element")

    for name, fn, needs_gamma in (
        ("dset", _cmd_dset, False),
        ("drank", _cmd_drank, False),
        ("member", _cmd_member, True),
    ):
        p = add(name, fn, help=f"{name} of an image union")
        p.add_argument("--union", help="linear expression like 'x0-x1+[1]'")
        p.add_argument("--file", help="image-union JSON file")
        if needs_gamma:
            p.add_argument("--gamma", required=True, help="element literal")

    p = add("project", _cmd_project, help="truncate an element")
    p.add_argument("element")
    p.add_argument("--k", required=True)

    p = add("project-set", _cmd_project_set, help="finite quotient image")
    p.add_argument("--union", help="linear expression")
    p.add_argument("--file", help="image-union JSON file")
    p.add_argument("--k", required=True)

    p = add("count", _cmd_count, help="quotient counting function (TSV)")
    p.add_argument("--union", help="linear expression")
    p.add_argument("--file", help="image-union JSON file")
    p.add_argument("--k", required=True, metavar="A..B")
    p.add_argument("--fit", action="store_true", help="exact conjectural polynomial fit")

    p = add("dim", _cmd_dim, help="dimension of a definable-set rep")
    p.add_argument("--rep", required=True, help="definable-set JSON file")
    p.add_argument("--phi", required=True, help="comma list like s^3,inf")

    p = add("crosscheck", _cmd_crosscheck, help="two-route dimension crosscheck")
    p.add_argument("--rep", required=True)
    p.add_argument("--phi", required=True)

    p = add("witness", _cmd_witness, help="small-difference psi-point witness")
    p.add_argument("element")

    p = add("clique", _cmd_clique, help="maximum equilateral clique of a sample")
    p.add_argument("--phi", required=True)
    p.add_argument("--point", action="append", help="element literal (repeatable)")
    p.add_argument("--file", help='JSON array of element strings, e.g. ["[1]", "[1, 1]"]')

    p = add("recover", _cmd_recover, help="recover an affine map from probe evaluations")
    p.add_argument("--file", required=True, help='JSON {"evals": [{"args": [...], "value": "[...]"}]}')

    p = add("identities", _cmd_identities, help="run the seeded identity suite")
    p.add_argument("--n", default="10000")
    p.add_argument("--seed", default="0")

    add("repl", _cmd_repl, help="interactive session")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout, which is not an input error: stop quietly,
        # and point stdout at devnull so the interpreter's final flush of
        # what is still buffered raises nothing either.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # no stdout, or not a file
            return 0
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 0
    except (ValueError, OSError, KeyError) as exc:  # CliError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
