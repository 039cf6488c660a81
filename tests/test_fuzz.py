"""Fuzz tests of every input path: each parser and JSON loader either
returns a value or raises ValueError, and the CLI either answers or fails
with exit code 1 and one `error:` line."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from logcouple.cli import main
from logcouple.element import parse_element
from logcouple.psifun import imageunion_from_json, parse_linear
from logcouple.quotient import Phi
from logcouple.sets import rep_from_json
from logcouple.terms import GenSFunction, parse_term

# Arbitrary text, and text over the characters the grammars use.
texts = st.text(max_size=24) | st.text(alphabet="x0123456789[]()+-/ ,*^psintdf_∞", max_size=24)
literals = (
    st.sampled_from(["[]", "inf", "[1]", "[0, 1, 1]", "[1, -1/2]", "[+3]", "[1,]", "[1/0]"])
    | st.text(alphabet="0123456789+-/ ,_a", max_size=8).map(lambda body: "[" + body + "]")
    | st.text(max_size=8)
)
# Integers stay small: an index n is answered with the element E_n of n
# coordinates, so a huge one is a matter of work, not of parsing.
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(10**4), 10**4)
    | st.floats()
    | literals
    | st.sampled_from(["interval", "small", "diff_le", "diff_eq", "ge", "le", "-inf", "+inf", "s^3", "1/2"])
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)


def shaped(**fields):
    """JSON objects with any subset of the given keys, each holding either a
    value of its strategy or an arbitrary JSON value."""
    return st.fixed_dictionaries({}, optional={k: v | json_values for k, v in fields.items()})


small_ints = st.integers(-1, 4)
atoms = shaped(kind=st.sampled_from(["diff_le", "diff_eq", "ge", "le"]), i=small_ints, j=small_ints, c=small_ints)
components = shaped(
    coeffs=st.dictionaries(st.sampled_from(["x0", "x1", "x2", "x00", "y"]), literals | st.sampled_from(["1", "-1", "1/2"])),
    offset=literals,
    constraints=st.lists(atoms, max_size=3),
)
unions = components | st.lists(components, max_size=3)
unary_components = shaped(
    kind=st.sampled_from(["interval", "small"]),
    lo=literals | st.just("-inf"),
    hi=literals | st.just("+inf"),
    core=unions,
    thicken=st.sampled_from(["inf", "s^3", "s^10", "s^0"]),
)
reps = shaped(arity=small_ints, products=st.lists(st.lists(unary_components, max_size=3), max_size=3))
gensfuns = shaped(
    arity=small_ints,
    terms=st.lists(shaped(var=small_ints, shift=small_ints, coeff=literals), max_size=3),
    offset=literals,
)
recover_inputs = shaped(
    evals=st.lists(shaped(args=st.lists(small_ints, max_size=3), value=literals), max_size=4)
)


def returns_or_value_error(read, data) -> None:
    try:
        read(data)
    except ValueError:
        pass


@given(texts)
def test_text_parsers(text):
    for read in (parse_term, parse_linear, parse_element, Phi.parse):
        returns_or_value_error(read, text)


@given(unions | json_values)
def test_imageunion_loader(data):
    returns_or_value_error(imageunion_from_json, data)


@given(reps | json_values)
def test_rep_loader(data):
    returns_or_value_error(rep_from_json, data)


@given(gensfuns | json_values)
def test_gensfun_loader(data):
    returns_or_value_error(GenSFunction.from_json, data)


@settings(deadline=None)
@given(recover_inputs | json_values)
def test_recover_verb(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "evals.json")
        with open(path, "w") as handle:
            json.dump(data, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["recover", "--file", path])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1 and out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")
