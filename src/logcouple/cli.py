"""Command-line front end: batch verbs over every operation plus a REPL.

Each verb prints its answer once it is done: as text lines, or with
--json as one JSON document.  The verbs over an image union (dset, drank,
member, project-set, count) read it from --union EXPR or from --file F,
not both.  The REPL prints each answer as it comes.

Exit codes: 0 on success, 1 on parse or validation errors (one "error:"
line on stderr, nothing on stdout), 2 when an internal cross-check
reports a discrepancy (a crosscheck whose two routes disagree, or an
identity suite with a failure; neither should happen on the shipped
model).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .element import (
    GammaExt,
    INF,
    format_element,
    format_rational,
    parse_element,
    parse_integer,
    small_diff_witness,
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
from .terms import PRIMITIVES, eval_term, parse_term

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


# The most rows that one count table answers, so that a range is refused
# before its ks are listed.
_COUNT_ROWS = 1000


def _parse_k_range(text: str) -> Tuple[int, int]:
    """The bounds lo <= hi of a k or a range lo..hi; no list is built."""
    if ".." in text:
        a, b = text.split("..", 1)
        lo, hi = parse_integer(a), parse_integer(b)
        if lo < 1 or hi < lo:
            raise CliError(f"bad range {text!r}")
        return lo, hi
    k = parse_integer(text)
    if k < 1:
        raise CliError("k must be >= 1")
    return k, k


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


def _single_k(args) -> int:
    lo, hi = _parse_k_range(args.k)
    if lo != hi:
        raise CliError(f"{args.verb} takes a single k")
    return lo


# Each _cmd_* verb returns (payload, lines), or (payload, lines, exit code)
# when it can report a discrepancy; main prints the payload as JSON under
# --json, else the lines.


def _cmd_eval(args):
    value = format_element(eval_term(parse_term(args.term), _parse_env(args.env)))
    return {"value": value}, [value]


def _primitive_cmd(fn):
    def run(args):
        value = format_element(fn(parse_element(args.element)))
        return {"value": value}, [value]

    return run


def _cmd_dset(args):
    D = derived_set(_load_union(args))
    return imageunion_to_json(D), [repr(F) for F in D] or ["(empty)"]


def _cmd_drank(args):
    r = d_rank(_load_union(args))
    return {"d_rank": r}, [str(r)]


def _cmd_member(args):
    gamma = parse_element(args.gamma)
    if gamma is INF:
        raise CliError("membership is about group elements")
    lines: List[str] = []
    solutions = []
    for comp in _load_union(args):
        if isinstance(comp, ConstrainedImage):
            witness = member_constrained(gamma, comp)
            if witness is not None:
                ordered = [witness[l] for l in comp.base.labels]
                lines.append(f"{comp.base!r} with constraints: {tuple(ordered)}")
                solutions.append(
                    {"component": component_to_json(comp), "witness": ordered}
                )
        else:
            # built once per component and shared by its families
            as_json, text = component_to_json(comp), repr(comp)
            for sol in member(gamma, comp):
                witness = sol.as_dict()
                ordered = [witness[l] for l in comp.labels]
                tag = " (parametric)" if sol.parametric else ""
                lines.append(f"{text}: {tuple(ordered)}{tag}")
                solutions.append(
                    {
                        "component": as_json,
                        "witness": ordered,
                        "parametric": sol.parametric,
                    }
                )
    return {"member": bool(solutions), "solutions": solutions}, lines or ["no"]


def _cmd_project(args):
    gamma = parse_element(args.element)
    if gamma is INF:
        raise CliError("projection is about group elements")
    vec = project(gamma, _single_k(args))
    return {"vector": [str(q) for q in vec]}, [format_vector(vec)]


def _cmd_project_set(args):
    union = _load_union(args)
    k = _single_k(args)
    vectors = list(project_set(union, k))
    # the image yields one Fraction per distinct value, which vectors keeps
    # alive, so each value is formatted once, under its id
    text: Dict[int, str] = {}
    rows = [[t if (t := text.get(id(q))) else text.setdefault(id(q), format_rational(q)) for q in v] for v in vectors]
    return {"k": k, "vectors": rows}, ["(" + ",".join(row) + ")" for row in rows]


def _cmd_count(args):
    union = _load_union(args)
    lo, hi = _parse_k_range(args.k)
    if hi - lo >= _COUNT_ROWS:
        raise CliError(f"count takes at most {_COUNT_ROWS} values of k: {args.k!r}")
    table = count_function(union, range(lo, hi + 1))
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
            ) or "0"  # the zero polynomial: every count is 0
            lines.append(f"# conjectural fit: {poly}")
            payload["fit"] = {"coefficients": [str(c) for c in coeffs], "conjectural": True}
    return payload, lines


def _load_rep(path: str) -> Rep:
    return rep_from_json(_load_json(path))


def _fmt_dim(d) -> str:
    return "-inf" if d == NEG_DIM else str(d)


def _cmd_dim(args):
    rep = _load_rep(args.rep)
    dims = [(str(phi), _fmt_dim(dim(rep, phi))) for phi in _parse_phis(args.phi)]
    return (
        {"dims": [{"phi": phi, "dim": d} for phi, d in dims]},
        ["phi\tdim"] + [f"{phi}\t{d}" for phi, d in dims],
    )


def _cmd_crosscheck(args):
    rep = _load_rep(args.rep)
    if not isinstance(rep, UnaryRep):
        raise CliError("crosscheck takes a unary representation")
    lines = []
    payload = []
    for phi in _parse_phis(args.phi):
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
        image = report.quotient_image
        payload.append(
            {
                "phi": str(phi),
                "dim_route_a": _fmt_dim(report.dim_route_a),
                "dim_route_b": _fmt_dim(report.dim_route_b),
                "consistent": report.consistent,
                "quotient_size": report.quotient_size,
                "quotient_image": None if image is None else [[str(q) for q in v] for v in image],
                "d_rank": report.rank,
            }
        )
    consistent = all(row["consistent"] for row in payload)
    return {"reports": payload}, lines, 0 if consistent else 2


def _cmd_witness(args):
    eps = parse_element(args.element)
    if eps is INF:
        raise CliError("witness construction needs a positive group element")
    d0, d1 = map(format_element, small_diff_witness(eps))
    return {"delta0": d0, "delta1": d1}, [f"{d0}\t{d1}"]


def _cmd_clique(args):
    points = [parse_element(p) for p in args.point or []]
    if args.file:
        data = _load_json(args.file)
        if not isinstance(data, list) or not all(isinstance(p, str) for p in data):
            raise CliError("clique --file takes a JSON array of element strings")
        points.extend(parse_element(p) for p in data)
    if not points or any(p is INF for p in points):
        raise CliError("clique needs one or more group-element points")
    phi = Phi.parse(args.phi)
    if not phi.is_finite:
        raise CliError("clique needs a finite scale value")
    best = [format_element(p) for p in equilateral_max_clique(points, phi.k)]
    return {"size": len(best), "clique": best}, [f"size\t{len(best)}"] + best


def _field(obj, key: str, kind: type):
    if not isinstance(obj, dict) or key not in obj:
        raise CliError(f"recover input is missing the key {key!r}")
    if not isinstance(obj[key], kind):
        raise CliError(f"recover input: {key!r} must be a {'list' if kind is list else 'string'}")
    return obj[key]


def _cmd_recover(args):
    data = _load_json(args.file)
    evals = [
        (tuple(_field(item, "args", list)), parse_element(_field(item, "value", str)))
        for item in _field(data, "evals", list)
    ]
    F = recover(evals)
    return psifunction_to_json(F), [repr(F)]


def _cmd_identities(args):
    n, seed = parse_integer(args.n), parse_integer(args.seed)
    lines = run_identity_suite(n, seed)
    ok = suite_passed(lines)
    text = [
        f"{'PASS' if line.passed else 'FAIL'}\t{line.name}\tchecked={line.checked}\tfailures={line.failures}"
        for line in lines
    ]
    text.append(f"{'PASS' if ok else 'FAIL'}\tidentity suite (n={n}, seed={seed})")
    payload = {
        "passed": ok,
        "checks": [
            {"name": l.name, "checked": l.checked, "failures": l.failures}
            for l in lines
        ],
    }
    return payload, text, 0 if ok else 2


def _cmd_repl(args):
    """Read lines until quit or end of input, printing each answer as it
    comes; main has nothing left to print."""
    session: Dict[str, object] = {}
    prompt = "" if not sys.stdin.isatty() else "> "
    print("element and rep session; 'quit' to leave", file=sys.stderr)
    while True:
        try:
            line = input(prompt)
        except EOFError:
            return None, []
        line = line.strip()
        if not line:
            continue
        try:
            if line in ("quit", "exit"):
                return None, []
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
            name, expr = None, line
            if "=" in line and not line.startswith("["):
                name, expr = line.split("=", 1)
                name = name.strip()
                if not name.isidentifier():
                    raise CliError(f"bad name {name!r}")
            # a session value is an element (or inf) unless it is a loaded rep
            env = {k: v for k, v in session.items() if not isinstance(v, Rep)}
            value = eval_term(parse_term(expr), env)
            if name is not None:
                session[name] = value
            print(format_element(value))
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

    def add(name, fn, union=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if union:
            source = p.add_mutually_exclusive_group()
            source.add_argument("--union", help="linear expression like 'x0-x1+[1]'")
            source.add_argument("--file", help="image-union JSON file")
        return p

    p = add("eval", _cmd_eval, help="evaluate a term")
    p.add_argument("term")
    p.add_argument("--env", action="append", metavar="NAME=ELEM")

    # Each primitive verb captures its function here, when the parser is
    # built; every _cmd_* function looks its callees up when it runs.
    for name, _, fn in PRIMITIVES:
        p = add(name, _primitive_cmd(fn), help=f"apply {name} to an element")
        p.add_argument("element")

    add("dset", _cmd_dset, union=True, help="dset of an image union")
    add("drank", _cmd_drank, union=True, help="drank of an image union")
    p = add("member", _cmd_member, union=True, help="member of an image union")
    p.add_argument("--gamma", required=True, help="element literal")

    p = add("project", _cmd_project, help="truncate an element")
    p.add_argument("element")
    p.add_argument("--k", required=True)

    p = add("project-set", _cmd_project_set, union=True, help="finite quotient image")
    p.add_argument("--k", required=True)

    p = add("count", _cmd_count, union=True, help="quotient counting function (TSV)")
    p.add_argument("--k", required=True, metavar="A..B")
    p.add_argument("--fit", action="store_true", help="exact conjectural polynomial fit")

    p = add("dim", _cmd_dim, help="dimension of a definable-set rep")
    p.add_argument("--rep", required=True, help="definable-set JSON file")
    p.add_argument("--phi", required=True, help="comma list like s^{3}0,inf (or s^3,inf)")

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

    sub.add_parser("repl", help="interactive session").set_defaults(fn=_cmd_repl, json=False)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one verb.  Its answer is printed here and only here: one JSON
    document with ``--json``, else its text lines."""
    try:
        args = _build_parser().parse_args(argv)
        payload, lines, *code = args.fn(args)
        if args.json:
            print(json.dumps(payload, indent=2))
        elif lines:
            sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code[0] if code else 0
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
