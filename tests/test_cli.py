"""Command-line interface tests (direct main() calls)."""

import json
import os
import subprocess
import sys
import threading

import pytest

import logcouple
from logcouple.cli import _build_parser, main
from logcouple.element import parse_element
from logcouple.psifun import component_to_json, fig2_set, psifunction_to_json, parse_linear
from logcouple.quotient import Phi
from logcouple.identities import CheckLine
from logcouple.sets import (
    CrosscheckReport,
    Interval,
    ThickenedSmall,
    UnaryRep,
    dim,
    product_rep,
    rep_from_json,
    rep_to_json,
)


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(component_to_json(fig2_set())))
    return str(path)


@pytest.fixture
def fig2_rep_file(tmp_path):
    rep = UnaryRep([ThickenedSmall([fig2_set()])])
    path = tmp_path / "fig2rep.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestPrimitives:
    def test_eval(self, capsys):
        code, out = run(capsys, "eval", "psi(int(x))", "--env", "x=[]")
        assert code == 0 and out.strip() == "[1]"

    def test_eval_json(self, capsys):
        code, out = run(capsys, "eval", "s(x)", "--env", "x=[1, 1]", "--json")
        assert code == 0 and json.loads(out) == {"value": "[1, 1, 1]"}

    def test_unary_verbs(self, capsys):
        for verb, arg, expected in [
            ("psi", "[0, 0, 3]", "[1, 1, 1]"),
            ("int", "[1, 1]", "[0, 0, -1]"),
            ("s", "[]", "[1]"),
            ("p", "[1, 1]", "[1]"),
            ("p", "[2]", "inf"),
        ]:
            code, out = run(capsys, verb, arg)
            assert code == 0 and out.strip() == expected

    def test_round_trip_of_printed_values(self, capsys):
        code, out = run(capsys, "int", "[5, 1/3]")
        assert parse_element(out.strip()) == parse_element("[4, 1/3]")

    def test_parse_error_exit_code(self, capsys):
        assert main(["eval", "d0(x)"]) == 1
        assert main(["psi", "not an element"]) == 1
        assert main(["eval", "x"]) == 1  # unbound variable


class TestImageVerbs:
    def test_drank(self, capsys):
        code, out = run(capsys, "drank", "--union", "x0-x1+x2-x3")
        assert code == 0 and out.strip() == "3"

    def test_dset_json(self, capsys):
        code, out = run(capsys, "dset", "--union", "x0-x1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == [{"vars": [], "coeffs": {}, "offset": "[]"}]

    def test_dset_constrained(self, capsys, fig2_file):
        # the worked example's derived set: {x0 - x1 : x0 = x1 + 1} and {0}
        code, out = run(capsys, "dset", "--file", fig2_file, "--json")
        assert code == 0
        assert json.loads(out) == [
            {
                "vars": ["x0", "x1"],
                "coeffs": {"x0": "1", "x1": "-1"},
                "offset": "[]",
                "constraints": [{"kind": "diff_eq", "i": 0, "j": 1, "c": 1}],
            },
            {"vars": [], "coeffs": {}, "offset": "[]"},
        ]
        code, out = run(capsys, "dset", "--file", fig2_file)
        assert code == 0 and len(out.splitlines()) == 2 and out.splitlines()[1] == "[]"

    def test_drank_constrained(self, capsys, fig2_file, tmp_path):
        code, out = run(capsys, "drank", "--file", fig2_file)
        assert code == 0 and out.strip() == "3"
        path = tmp_path / "union-list.json"
        path.write_text(json.dumps(BAD_INPUTS["union-list.json"]))
        code, out = run(capsys, "drank", "--file", str(path), "--json")
        assert code == 0 and json.loads(out) == {"d_rank": 3}

    def test_member(self, capsys, fig2_file):
        code, out = run(capsys, "member", "--gamma", "[0, 1, 1]", "--file", fig2_file)
        assert code == 0 and "(2, 1, 3, 2)" in out
        code, out = run(capsys, "member", "--gamma", "[1]", "--file", fig2_file)
        assert code == 0 and out.strip() == "no"

    def test_member_far_point(self, capsys):
        # e_1501 = E_1502 - E_1501: the search goes 1,502 positions deep
        code, out = run(capsys, "member", "--union", "x0-x1", "--gamma", "[" + "0, " * 1501 + "1]")
        assert code == 0 and out == "x0 - x1: (1502, 1501)\n"

    def test_member_output_with_several_families(self, capsys, tmp_path):
        # the component's JSON and text are built once and shared by its
        # families; both outputs stay byte for byte what they were
        path = tmp_path / "union.json"
        union = [parse_linear("x0-x1+x2-x3"), fig2_set(), parse_linear("x0-x1+[0, 1]")]
        path.write_text(json.dumps([component_to_json(comp) for comp in union]))
        four = {"vars": ["x0", "x1", "x2", "x3"], "coeffs": {"x0": "1", "x1": "-1", "x2": "1", "x3": "-1"}, "offset": "[]"}
        two = {"vars": ["x0", "x1"], "coeffs": {"x0": "1", "x1": "-1"}, "offset": "[0, 1]"}
        families = [[1, 1, 1, 1], [1, 2, 2, 1], [1, 1, 2, 2]]
        solutions = [{"component": four, "witness": w, "parametric": True} for w in families]
        text = "".join(f"x0 - x1 + x2 - x3: {tuple(w)} (parametric)\n" for w in families)
        for source, extra, extra_text in [
            (["--union", "x0-x1+x2-x3"], [], ""),
            (["--file", str(path)], [{"component": two, "witness": [1, 2], "parametric": False}], "x0 - x1 + [0, 1]: (1, 2)\n"),
        ]:
            code, out = run(capsys, "member", "--gamma", "[]", *source)
            assert code == 0 and out == text + extra_text
            code, out = run(capsys, "member", "--gamma", "[]", *source, "--json")
            want = {"member": True, "solutions": solutions + extra}
            assert code == 0 and out == json.dumps(want, indent=2) + "\n"

    def test_dset_text_prints_atoms(self, capsys, fig2_file):
        code, out = run(capsys, "dset", "--file", fig2_file)
        assert code == 0 and out.splitlines() == ["{x0 - x1 : n0 - n1 = 1}", "[]"]

    def test_count_table(self, capsys, fig2_file):
        # depth 30 reaches the capped ages of the automaton's memo; k^2/2 - k/2 + 1 = 436
        for k, fit, count in [(5, [], 11), (12, ["--fit"], 67), (30, [], 436)]:
            code, out = run(capsys, "count", "--file", fig2_file, "--k", f"1..{k}", *fit)
            lines = out.strip().splitlines()
            assert code == 0
            assert lines[0] == "k\tcount"
            assert lines[k] == f"{k}\t{count}" and len(lines) == k + 1 + len(fit)

    def test_count_answers_its_most_rows(self, capsys):
        # one row fewer than the refused 5..1005, at depths past 1000
        code, out = run(capsys, "count", "--union", "x0", "--k", "5..1004")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 1001 and lines[1] == "5\t5" and lines[-1] == "1004\t1004"

    def test_count_fit(self, capsys, fig2_file):
        code, out = run(capsys, "count", "--file", fig2_file, "--k", "1..8", "--fit", "--json")
        data = json.loads(out)
        assert data["fit"]["conjectural"] is True
        assert data["fit"]["coefficients"] == ["1", "-1/2", "1/2"]

    def test_count_fit_of_zero_counts(self, capsys, tmp_path):
        path = tmp_path / "empty.json"  # n0 <= 0 has no solution n0 >= 1
        path.write_text(json.dumps({"coeffs": {"x0": "1"}, "constraints": [{"kind": "le", "i": 0, "c": 0}]}))
        code, out = run(capsys, "count", "--file", str(path), "--k", "1..4", "--fit")
        assert code == 0 and out.splitlines()[-2:] == ["4\t0", "# conjectural fit: 0"]
        code, out = run(capsys, "count", "--file", str(path), "--k", "1..4", "--fit", "--json")
        assert code == 0 and json.loads(out)["fit"] == {"coefficients": ["0"], "conjectural": True}

    def test_project_set(self, capsys, fig2_file):
        code, out = run(capsys, "project-set", "--file", fig2_file, "--k", "2")
        assert code == 0 and set(out.strip().splitlines()) == {"(0,0)", "(0,1)"}
        code, out = run(capsys, "project-set", "--file", fig2_file, "--k", "5")
        assert code == 0 and len(out.splitlines()) == 11

    def test_project_set_output_pinned(self, capsys, tmp_path):
        # two components with denominators 2, 3 and 4 and negative coordinates;
        # the order and spelling of the output are part of the interface
        path = tmp_path / "mixed.json"
        path.write_text(
            json.dumps(
                [
                    {"coeffs": {"x0": "1", "x1": "-1/2"}, "offset": "[-1/3]"},
                    {"coeffs": {"x0": "-2/3"}, "offset": "[0, 1/4]"},
                ]
            )
        )
        vectors = [
            ["-2/3", "-5/12", "-2/3"],
            ["-2/3", "-5/12", "0"],
            ["-2/3", "1/4", "0"],
            ["1/6", "-1/2", "-1/2"],
            ["1/6", "-1/2", "0"],
            ["1/6", "0", "0"],
            ["1/6", "1/2", "-1/2"],
            ["1/6", "1/2", "0"],
            ["1/6", "1/2", "1/2"],
            ["1/6", "1/2", "1"],
            ["1/6", "1", "0"],
            ["1/6", "1", "1"],
        ]
        code, out = run(capsys, "project-set", "--file", str(path), "--k", "3", "--json")
        assert code == 0 and json.loads(out) == {"k": 3, "vectors": vectors}
        code, out = run(capsys, "project-set", "--file", str(path), "--k", "3")
        assert code == 0 and out.splitlines() == ["(" + ",".join(v) + ")" for v in vectors]

    def test_rejects_rep_json_for_count(self, capsys, fig2_rep_file):
        assert main(["count", "--file", fig2_rep_file, "--k", "1..3"]) == 1


class TestSetVerbs:
    def test_dim(self, capsys, fig2_rep_file):
        code, out = run(capsys, "dim", "--rep", fig2_rep_file, "--phi", "s^3,inf")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines == ["phi\tdim", "s^{3}0\t0", "inf\t0"]

    @pytest.mark.parametrize(
        "spelling, printed",
        [
            ("s^3", "s^{3}0"),
            ("s^{3}0", "s^{3}0"),
            ("s^11", "s^{11}0"),
            ("s^{1}0", "s^{1}0"),
            ("s^{10}0", "s^{10}0"),
            ("s^{110}0", "s^{110}0"),
            ("inf", "inf"),
            # each reads as s^{k}0 with its last 0 taken as the "0", or as the short form s^k
            ("s^10", None),
            ("s^30", None),
            ("s^100", None),
            ("s^110", None),
        ],
    )
    def test_scale_spellings(self, capsys, fig2_rep_file, spelling, printed):
        code = main(["dim", "--rep", fig2_rep_file, "--phi", spelling])
        captured = capsys.readouterr()
        if printed is None:
            assert (code, captured.out) == (1, "")
            assert captured.err.startswith(f"error: ambiguous scale value {spelling!r}: write s^{{")
            assert len(captured.err.splitlines()) == 1
            return
        assert code == 0 and captured.out.splitlines()[1].split("\t")[0] == printed
        # the printed form parses back to itself
        assert run(capsys, "dim", "--rep", fig2_rep_file, "--phi", printed) == (0, captured.out)

    def test_crosscheck_ok(self, capsys, fig2_rep_file):
        code, out = run(capsys, "crosscheck", "--rep", fig2_rep_file, "--phi", "s^5")
        assert code == 0 and "quotient=11" in out and "ok" in out

    def test_crosscheck_json_quotient_image(self, capsys, fig2_rep_file, tmp_path):
        code, out = run(capsys, "crosscheck", "--rep", fig2_rep_file, "--phi", "s^5,inf", "--json")
        finite, infinite = json.loads(out)["reports"]
        path = tmp_path / "fig2.json"
        path.write_text(json.dumps(component_to_json(fig2_set())))
        _, vectors = run(capsys, "project-set", "--file", str(path), "--k", "5", "--json")
        assert code == 0 and finite["quotient_size"] == 11
        assert finite["quotient_image"] == json.loads(vectors)["vectors"]
        assert infinite["quotient_size"] is None and infinite["quotient_image"] is None

    def test_crosscheck_rank_of_constrained_core(self, capsys, fig2_rep_file):
        code, out = run(capsys, "crosscheck", "--rep", fig2_rep_file, "--phi", "inf")
        assert code == 0 and out.strip() == "inf\tdimA=0\tdimB=0\tok\td_rank=3"

    def test_crosscheck_interval_at_a_far_scale(self, capsys, tmp_path):
        # route B reads the width's leading index against k, so a far scale
        # builds no k-long staircase point
        path = tmp_path / "interval.json"
        path.write_text(json.dumps({"products": [[{"kind": "interval", "lo": "[]", "hi": "[1]"}]]}))
        code, out = run(capsys, "crosscheck", "--rep", str(path), "--phi", "s^{100000000}0")
        assert (code, out) == (0, "s^{100000000}0\tdimA=1\tdimB=1\tok\n")


BAD_INPUTS = {
    "constrained.json": component_to_json(fig2_set()),
    "union-list.json": [component_to_json(fig2_set()), psifunction_to_json(parse_linear("x0 - x1"))],
    "empty-rep.json": {"arity": 1, "products": []},
    "x0-rep.json": {"arity": 1, "products": [[{"kind": "small", "core": {"coeffs": {"x0": "1"}}}]]},
    "no-evals.json": {"evaluations": []},
    "no-value.json": {"evals": [{"args": [1]}]},
    "no-args.json": {"evals": [{"value": "[1]"}]},
    "evals-number.json": {"evals": 5},
    "value-number.json": {"evals": [{"args": [1], "value": 5}]},
    "product-number.json": {"products": [5]},
    "core-number.json": {"products": [[{"kind": "small", "core": 5}]]},
    "lo-number.json": {"products": [[{"kind": "interval", "lo": 5, "hi": "+inf"}]]},
    "thicken-number.json": {"products": [[{"kind": "small", "core": [], "thicken": 5}]]},
    "arity-list.json": {"arity": [1], "products": []},
    "args-null.json": {"evals": [{"args": [None], "value": "[1]"}]},
    "coeffs-number.json": {"coeffs": 5},
    "offset-number.json": {"coeffs": {"x0": "1"}, "offset": 5},
    "constraints-number.json": {"coeffs": {"x0": "1"}, "constraints": 5},
    "atom-number.json": {"coeffs": {"x0": "1"}, "constraints": [5]},
    "atom-i-null.json": {"coeffs": {"x0": "1"}, "constraints": [{"kind": "ge", "i": None, "c": 1}]},
    "atom-no-c.json": {"coeffs": {"x0": "1"}, "constraints": [{"kind": "ge", "i": 0}]},
    "atom-c-float.json": {"coeffs": {"x0": "1"}, "constraints": [{"kind": "le", "i": 0, "c": 2.9}]},
    "atom-c-bool.json": {"coeffs": {"x0": "1"}, "constraints": [{"kind": "le", "i": 0, "c": True}]},
    "atom-c-string.json": {"coeffs": {"x0": "1"}, "constraints": [{"kind": "le", "i": 0, "c": "2"}]},
    "atom-i-float.json": {"coeffs": {"x0": "1"}, "constraints": [{"kind": "ge", "i": 0.0, "c": 1}]},
    "atom-j-bool.json": {
        "coeffs": {"x0": "1", "x1": "-1"},
        "constraints": [{"kind": "diff_le", "i": 0, "j": True, "c": 0}],
    },
    "atom-j-string.json": {
        "coeffs": {"x0": "1", "x1": "-1"},
        "constraints": [{"kind": "diff_le", "i": 0, "j": "1", "c": 0}],
    },
    "arity-float.json": {"arity": 1.0, "products": []},
    "arity-bool.json": {"arity": True, "products": []},
    "arity-string.json": {"arity": "1", "products": []},
    "args-float.json": {"evals": [{"args": [1.5], "value": "[1]"}]},
    "args-bool.json": {"evals": [{"args": [True], "value": "[1]"}]},
    "args-string.json": {"evals": [{"args": ["1"], "value": "[1]"}]},
    "lo-missing.json": {"products": [[{"kind": "interval", "hi": "+inf"}]]},
    "core-missing.json": {"products": [[{"kind": "small", "thicken": "s^3"}]]},
    "arity-negative.json": {"arity": -1, "products": []},
    "label-twice.json": {"coeffs": {"x0": "1", "x00": "-1"}},
    "le-with-j.json": {"coeffs": {"x0": "1", "x1": "-1"}, "constraints": [{"kind": "le", "i": 0, "j": 1, "c": 3}]},
    "points-number.json": 5,
    "points-numbers.json": [1, 2],
    "points-object.json": {"[1]": 0, "[1, 1]": 0},
    "points-string.json": "[1]",
    "unary-two-factors.json": {
        "arity": 1,
        "products": [[{"kind": "interval", "lo": "-inf", "hi": "+inf"}, {"kind": "small", "core": []}]],
    },
    "unary-no-factor.json": {"arity": 1, "products": [[]]},
    "value-inf.json": {"evals": [{"args": [1], "value": "inf"}, {"args": [2], "value": "[1]"}]},
    # the probes of x0, where x1 has coefficient 0, and an extra key with an index below 1
    **{
        f"index-{name}.json": {
            "evals": [
                {"args": [1, 1], "value": "[1]"},
                {"args": [2, 1], "value": "[1, 1]"},
                {"args": [1, 2], "value": "[1]"},
                {"args": args, "value": value},
            ]
        }
        for name, args, value in (
            ("zero-at-x1", [1, 0], "[1]"),
            ("negative-at-x1", [1, -7], "[1]"),
            ("zero-at-x0", [0, 1], "[1]"),
            ("zero-at-x1-wrong-value", [1, 0], "[5]"),
        )
    },
    "binary-rep.json": {
        "arity": 2,
        "products": [
            [{"kind": "interval", "lo": "-inf", "hi": "+inf"}, {"kind": "interval", "lo": "[]", "hi": "[1]"}]
        ],
    },
}


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dset", "--file", "empty-rep.json"], "image-union JSON, not a definable-set rep"),
            (["drank"], "give --union EXPR or a JSON file"),
            (["dim", "--rep", "union-list.json", "--phi", "s^3"], '"products" list'),
            (["crosscheck", "--rep", "union-list.json", "--phi", "s^3"], '"products" list'),
            (["dim", "--rep", "constrained.json", "--phi", "s^3"], '"products" list'),
            (["crosscheck", "--rep", "constrained.json", "--phi", "s^3"], '"products" list'),
            (["recover", "--file", "no-evals.json"], "missing the key 'evals'"),
            (["recover", "--file", "no-value.json"], "missing the key 'value'"),
            (["recover", "--file", "no-args.json"], "missing the key 'args'"),
            (["recover", "--file", "evals-number.json"], "'evals' must be a list"),
            (["recover", "--file", "value-number.json"], "'value' must be a string"),
            (["dim", "--rep", "product-number.json", "--phi", "s^3"], "list of components"),
            (["crosscheck", "--rep", "product-number.json", "--phi", "s^3"], "list of components"),
            (["eval", "(" * 1200 + "x" + ")" * 1200, "--env", "x=[]"], "nested deeper than"),
            (["eval", "+".join(["x"] * 1500), "--env", "x=[]"], "nested deeper than"),
            (["dim", "--rep", "core-number.json", "--phi", "s^3"], "image union is a JSON object"),
            (["dim", "--rep", "lo-number.json", "--phi", "s^3"], "endpoint 'lo' must be a string"),
            (["dim", "--rep", "thicken-number.json", "--phi", "s^3"], "'thicken' must be a scale string"),
            (["dim", "--rep", "arity-list.json", "--phi", "s^3"], "'arity' of a definable-set rep"),
            (["recover", "--file", "args-null.json"], "probe arguments must be psi indices"),
            (["count", "--file", "coeffs-number.json", "--k", "1..2"], "'coeffs' of a component"),
            (["count", "--file", "offset-number.json", "--k", "1..2"], "'offset' of a component"),
            (["count", "--file", "constraints-number.json", "--k", "1..2"], "'constraints' of a component"),
            (["count", "--file", "atom-number.json", "--k", "1..2"], "constraint atom is a JSON object"),
            (["count", "--file", "atom-i-null.json", "--k", "1..2"], "'i' of a constraint atom"),
            (["count", "--file", "atom-no-c.json", "--k", "1..2"], "missing the key 'c'"),
            (["count", "--file", "atom-c-float.json", "--k", "1..4"], "'c' of a constraint atom must be an integer: 2.9"),
            (["count", "--file", "atom-c-bool.json", "--k", "1..4"], "'c' of a constraint atom must be an integer: True"),
            (["count", "--file", "atom-c-string.json", "--k", "1..4"], "'c' of a constraint atom must be an integer: '2'"),
            (["count", "--file", "atom-i-float.json", "--k", "1..2"], "'i' of a constraint atom must be an integer: 0.0"),
            (["count", "--file", "atom-j-bool.json", "--k", "1..2"], "'j' of a constraint atom must be an integer: True"),
            (["count", "--file", "atom-j-string.json", "--k", "1..2"], "'j' of a constraint atom must be an integer: '1'"),
            (["dim", "--rep", "arity-float.json", "--phi", "s^3"], "'arity' of a definable-set rep must be an integer: 1.0"),
            (["dim", "--rep", "arity-bool.json", "--phi", "s^3"], "'arity' of a definable-set rep must be an integer: True"),
            (["dim", "--rep", "arity-string.json", "--phi", "s^3"], "'arity' of a definable-set rep must be an integer: '1'"),
            (["recover", "--file", "args-float.json"], "probe arguments must be psi indices: 1.5"),
            (["recover", "--file", "args-bool.json"], "probe arguments must be psi indices: True"),
            (["recover", "--file", "args-string.json"], "probe arguments must be psi indices: '1'"),
            (["psi", "[1_000]"], "not a rational: '1_000'"),
            (["eval", "psi([1,])"], "not a rational: ''"),
            (["dim", "--rep", "lo-missing.json", "--phi", "s^3"], "missing the key 'lo'"),
            (["count", "--rep", "union-list.json", "--k", "1..2"], "unrecognized arguments: --rep"),
            (["project-set", "--rep", "union-list.json", "--k", "2"], "unrecognized arguments: --rep"),
            (["dim", "--rep", "core-missing.json", "--phi", "s^3"], "missing the key 'core'"),
            (["dim", "--rep", "arity-negative.json", "--phi", "s^3"], "must be at least 1: -1"),
            (["count", "--file", "label-twice.json", "--k", "1..2"], "x0 is spelled twice: 'x00'"),
            (["drank", "--file", "le-with-j.json"], "le bounds one variable and takes no 'j': 1"),
            (["clique", "--phi", "s^1", "--file", "points-number.json"], "JSON array of element strings"),
            (["clique", "--phi", "s^1", "--file", "points-numbers.json"], "JSON array of element strings"),
            (["clique", "--phi", "s^1", "--file", "points-object.json"], "JSON array of element strings"),
            (["clique", "--phi", "s^1", "--file", "points-string.json"], "JSON array of element strings"),
            (["dim", "--rep", "unary-two-factors.json", "--phi", "s^3"], "product length does not match arity"),
            (["dim", "--rep", "unary-no-factor.json", "--phi", "s^3"], "product length does not match arity"),
            (["recover", "--file", "value-inf.json"], "inconsistent evaluations"),
            (["identities", "--n", "0"], "n >= 1"),
            (["count", "--union", "x0", "--k", "1_0"], "not an integer: '1_0'"),
            (["identities", "--n", "1_0"], "not an integer: '1_0'"),
            (["identities", "--seed", "1_0"], "not an integer: '1_0'"),
            (["dset", "--union", "x0", "--file", "constrained.json"], "not allowed with argument --union"),
            (["count", "--union", "x0", "--file", "constrained.json", "--k", "1..2"], "not allowed with argument --union"),
            (["repl", "--json"], "unrecognized arguments: --json"),
            (["eval", "x", "--env", "x"], "--env expects name=element"),
            (["count", "--union", "x0", "--k", "5..2"], "bad range '5..2'"),
            (["project-set", "--union", "x0", "--k", "1..3"], "project-set takes a single k"),
            (["member", "--union", "x0", "--gamma", "inf"], "membership is about group elements"),
            (["project", "inf", "--k", "2"], "projection is about group elements"),
            (["crosscheck", "--rep", "binary-rep.json", "--phi", "s^3"], "crosscheck takes a unary representation"),
            (["witness", "inf"], "needs a positive group element"),
            (["clique", "--phi", "inf", "--point", "[1]"], "clique needs a finite scale value"),
            (["recover", "--file", "index-zero-at-x1.json"], "psi indices start at 1"),
            (["recover", "--file", "index-negative-at-x1.json"], "psi indices start at 1"),
            (["recover", "--file", "index-zero-at-x0.json"], "psi indices start at 1"),
            (["recover", "--file", "index-zero-at-x1-wrong-value.json"], "psi indices start at 1"),
            # a range is refused before any list of its ks is built
            (["project-set", "--union", "x0", "--k", "1..10000000000000"], "project-set takes a single k"),
            (["project", "[1]", "--k", "1..10000000000000"], "project takes a single k"),
            (["count", "--union", "x0", "--k", "1..10000000000000"], "count takes at most 1000 values of k"),
            (["count", "--union", "x0", "--k", "5..1005"], "count takes at most 1000 values of k: '5..1005'"),
            # a walk deeper than psifun._MAX_DEPTH is refused before its first k-long list
            (["count", "--union", "x0", "--k", "100000000"], "depth 100000000 is past the deepest supported, 4096"),
            (["project-set", "--union", "x0", "--k", "100000000"], "depth 100000000 is past the deepest supported"),
            (["crosscheck", "--rep", "x0-rep.json", "--phi", "s^{100000000}0"], "depth 100000000 is past the deepest"),
            # so is a membership search that would read a coordinate past it
            (["member", "--union", "x0-x1", "--gamma", "[" + "0, " * 5000 + "1]"], "depth 5001 is past the deepest supported, 4096"),
        ],
    )
    def test_one_line_error(self, capsys, tmp_path, argv, message):
        for name, data in BAD_INPUTS.items():
            (tmp_path / name).write_text(json.dumps(data))
        argv = [str(tmp_path / a) if a in BAD_INPUTS else a for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]

    @pytest.mark.parametrize("literal", ["[+3]", "[1, - 2/3]", "[1_000]", "[1,]", "[1/0]", "[ 1 , 2 ]"])
    def test_verbs_read_literals_alike(self, capsys, literal):
        outcomes = []
        for argv in (["psi", literal], ["eval", f"psi({literal})"], ["drank", "--union", f"x0-x1+{literal}"]):
            code = main(argv)
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert code == 0 or (len(lines) == 1 and lines[0].startswith("error: "))
            outcomes.append(code)
        assert outcomes in ([0, 0, 0], [1, 1, 1])


class TestOtherVerbs:
    def test_witness(self, capsys):
        code, out = run(capsys, "witness", "[0, 1]")
        assert code == 0 and out.strip() == "[1, 1, 1]\t[1, 1]"

    def test_witness_rejects_nonpositive(self, capsys):
        assert main(["witness", "[]"]) == 1
        assert main(["witness", "[-1]"]) == 1

    def test_clique(self, capsys):
        code, out = run(
            capsys,
            "clique",
            "--phi",
            "s^2",
            "--point",
            "[1]",
            "--point",
            "[1, 1]",
            "--point",
            "[1, 1, 1]",
        )
        assert code == 0 and out.splitlines()[0] == "size\t2"

    def test_clique_file_has_no_size_cap(self, capsys, tmp_path):
        # forty points with one prefix [1] and forty values at coordinate 1
        points = [f"[1, {i}]" for i in range(1, 41)]
        path = tmp_path / "points.json"
        path.write_text(json.dumps(points[1:]))
        code, out = run(capsys, "clique", "--phi", "s^2", "--point", points[0], "--file", str(path), "--json")
        assert code == 0 and json.loads(out) == {"size": 40, "clique": points}

    def test_clique_at_a_far_scale(self, capsys):
        # E_k is not built: the verb passes k, and each point's class is
        # its nonzero coordinates below k - 1
        code, out = run(capsys, "clique", "--phi", "s^{100000000}0", "--point", "[1]", "--point", "[2]")
        assert (code, out) == (0, "size\t1\n[1]\n")

    def test_recover(self, capsys, tmp_path):
        hidden = parse_linear("2x0 - x1 + [1]")
        evals = {
            "evals": [
                {"args": [1, 1], "value": str(hidden.evaluate((1, 1)))},
                {"args": [2, 1], "value": str(hidden.evaluate((2, 1)))},
                {"args": [1, 2], "value": str(hidden.evaluate((1, 2)))},
            ]
        }
        path = tmp_path / "evals.json"
        path.write_text(json.dumps(evals))
        code, out = run(capsys, "recover", "--file", str(path), "--json")
        assert code == 0 and json.loads(out) == psifunction_to_json(hidden)

    def test_identities(self, capsys):
        code, out = run(capsys, "identities", "--n", "200", "--seed", "3")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())

    def test_identities_seeds_differ_but_pass(self, capsys):
        # at seed 7 the group arithmetic meets 20,000 elements no other test draws
        for n, seed in [(100, 0), (100, 1), (100, 99), (20000, 7)]:
            assert main(["identities", "--n", str(n), "--seed", str(seed)]) == 0


class TestOutputPaths:
    """Answers that are empty or report a failure, pinned byte for byte."""

    def test_project_set_of_an_empty_image(self, capsys, tmp_path):
        # x0 - x1 with n0 < n1 and n1 < n0: no index pair satisfies both
        path = tmp_path / "empty.json"
        path.write_text(
            json.dumps(
                {
                    "coeffs": {"x0": "1", "x1": "-1"},
                    "constraints": [
                        {"kind": "diff_le", "i": 0, "j": 1, "c": -1},
                        {"kind": "diff_le", "i": 1, "j": 0, "c": -1},
                    ],
                }
            )
        )
        assert run(capsys, "project-set", "--file", str(path), "--k", "2") == (0, "")
        code, out = run(capsys, "project-set", "--file", str(path), "--k", "2", "--json")
        assert (code, out) == (0, '{\n  "k": 2,\n  "vectors": []\n}\n')

    def test_dset_of_a_union_with_no_derived_points(self, capsys):
        assert run(capsys, "dset", "--union", "x0+x1") == (0, "(empty)\n")

    def test_crosscheck_discrepancy_exits_2(self, capsys, monkeypatch, fig2_rep_file):
        monkeypatch.setattr(
            "logcouple.cli.sst_crosscheck", lambda rep, phi: CrosscheckReport(phi, 0, 1, False)
        )
        code, out = run(capsys, "crosscheck", "--rep", fig2_rep_file, "--phi", "s^1,inf")
        assert (code, out) == (2, "s^{1}0\tdimA=0\tdimB=1\tDISCREPANCY\ninf\tdimA=0\tdimB=1\tDISCREPANCY\n")
        code, out = run(capsys, "crosscheck", "--rep", fig2_rep_file, "--phi", "s^1", "--json")
        assert code == 2 and json.loads(out)["reports"][0]["consistent"] is False

    def test_identity_failure_exits_2(self, capsys, monkeypatch):
        lines = [CheckLine("first", checked=3), CheckLine("second", checked=3, failures=1)]
        monkeypatch.setattr("logcouple.cli.run_identity_suite", lambda n, seed: lines)
        code, out = run(capsys, "identities", "--n", "3", "--seed", "5")
        assert (code, out.splitlines()) == (
            2,
            [
                "PASS\tfirst\tchecked=3\tfailures=0",
                "FAIL\tsecond\tchecked=3\tfailures=1",
                "FAIL\tidentity suite (n=3, seed=5)",
            ],
        )
        code, out = run(capsys, "identities", "--n", "3", "--seed", "5", "--json")
        assert code == 2 and json.loads(out) == {
            "passed": False,
            "checks": [
                {"name": "first", "checked": 3, "failures": 0},
                {"name": "second", "checked": 3, "failures": 1},
            ],
        }


class TestRepl:
    def test_session(self, capsys, monkeypatch, tmp_path):
        lines = iter(
            [
                "x = [1, 1]",
                "s(x)",
                "save x " + str(tmp_path / "x.json"),
                "load y " + str(tmp_path / "x.json"),
                "y - s(y)",
                "env",
                "quit",
            ]
        )
        monkeypatch.setattr("builtins.input", lambda *_: next(lines))
        code = main(["repl"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[1, 1, 1]" in out  # s(x)
        assert "[0, 0, -1]" in out  # y - s(y)
        assert "x\telem\t[1, 1]" in out

    def test_nary_rep(self, capsys, monkeypatch, tmp_path):
        rep = product_rep(UnaryRep([ThickenedSmall([fig2_set()])]), UnaryRep([Interval(None, None)]))
        (tmp_path / "nary.json").write_text(json.dumps(rep_to_json(rep)))
        lines = iter(
            [
                "load n " + str(tmp_path / "nary.json"),
                "env",
                "save n " + str(tmp_path / "out.json"),
                "dim n s^3",
                "quit",
            ]
        )
        monkeypatch.setattr("builtins.input", lambda *_: next(lines))
        assert main(["repl"]) == 0
        captured = capsys.readouterr()
        assert "error" not in captured.err
        assert captured.out.splitlines() == ["n\trep\t(rep)", str(dim(rep, Phi.parse("s^3")))]
        assert rep_from_json(json.loads((tmp_path / "out.json").read_text())) == rep

    def test_error_recovery(self, capsys, monkeypatch):
        lines = iter(["p(", "[1] + [2]", "quit"])
        monkeypatch.setattr("builtins.input", lambda *_: next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        assert "[3]" in out


# One argv per verb, parsed but not run, so no input file needs to exist.
VERB_ARGVS = [
    ["eval", "x + y", "--env", "x=[1]", "--env", "y=[0, 2]", "--json"],
    ["psi", "[1, 1]"],
    ["int", "[1]", "--json"],
    ["s", "[]"],
    ["p", "[2]"],
    ["dset", "--union", "x0-x1"],
    ["drank", "--file", "u.json", "--json"],
    ["member", "--union", "x0-x1", "--gamma", "[1]"],
    ["project", "[1, 2]", "--k", "3"],
    ["project-set", "--file", "u.json", "--k", "2"],
    ["count", "--union", "x0", "--k", "1..4", "--fit"],
    ["dim", "--rep", "r.json", "--phi", "s^2,inf"],
    ["crosscheck", "--rep", "r.json", "--phi", "s^3"],
    ["witness", "[0, 1]"],
    ["clique", "--phi", "s^2", "--point", "[1]", "--point", "[1, 1]"],
    ["recover", "--file", "e.json"],
    ["identities", "--n", "5", "--seed", "2"],
    ["repl"],
]


class TestSharedParser:
    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_env_does_not_leak_into_the_next_call(self, capsys):
        assert main(["eval", "x", "--env", "x=[1]"]) == 0
        assert capsys.readouterr().out == "[1]\n"
        assert main(["eval", "x"]) == 1
        assert capsys.readouterr().err == "error: unbound variable 'x'\n"

    def test_failure_does_not_change_the_next_call(self, capsys):
        good = ["clique", "--phi", "s^2", "--point", "[1]", "--point", "[1, 1]"]
        assert main(good) == 0
        alone = capsys.readouterr()
        for bad in (
            ["clique", "--phi", "s^2", "--point", "[1, 2]", "--point", "inf"],
            ["clique", "--point", "[5]"],
            ["count", "--union", "x0", "--k", "0"],
        ):
            assert main(bad) == 1
            capsys.readouterr()
            assert main(good) == 0
            assert capsys.readouterr() == alone

    @pytest.mark.parametrize("argv", [["--help"], ["count", "--help"]])
    def test_help_is_the_same_on_every_call(self, capsys, argv):
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].startswith("usage: logcouple")

    def test_threads_parse_like_a_serial_run(self):
        serial = [vars(_build_parser().parse_args(argv)) for argv in VERB_ARGVS]
        results = [None] * 8

        def work(slot):
            results[slot] = [[vars(_build_parser().parse_args(argv)) for argv in VERB_ARGVS] for _ in range(50)]

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[serial] * 50] * len(results)


def _cli_env(unbuffered: bool):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(logcouple.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestClosedPipe:
    """A reader that closes stdout early is not an input error: the CLI
    stops with exit 0 and writes nothing to stderr.  Unbuffered, the first
    print meets the closed pipe; buffered, main's final flush does."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_no_reader(self, unbuffered):
        proc = subprocess.Popen(
            [sys.executable, "-m", "logcouple.cli", "identities", "--n", "20"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_cli_env(unbuffered),
        )
        proc.stdout.close()  # before the child writes anything
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")

    def test_identities_into_head(self):
        script = f'set -o pipefail; "{sys.executable}" -m logcouple.cli identities --n 20000 | head -n 1'
        proc = subprocess.run(["bash", "-c", script], capture_output=True, env=_cli_env(True), timeout=300)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.startswith(b"PASS\tintegral identity")
