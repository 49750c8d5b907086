"""The CLI's JSON writer against the compact stdlib spelling of the payload tree.

Payloads keep their matrices as numpy arrays; the writer must spell them
exactly as ``json.dumps(sort_keys=True, separators=(",", ":"))`` spells the
same payload with every array and numpy scalar turned into Python values,
on one line.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invalg import catalog
from invalg.cli import _complex_json, _dumps, _parser


def _tree(obj):
    """The payload with every array and numpy scalar as Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tree(v) for v in obj]
    return obj


def _check(obj):
    text = _dumps(obj)
    assert text == json.dumps(_tree(obj), sort_keys=True, separators=(",", ":")) + "\n"
    assert text.count("\n") == 1


def _catalog_commands():
    cmds = [["catalog"], ["lie", "--type", "A1xA1", "--weights", "[1];[1]"],
            ["lie", "--type", "A2xB2xG2", "--weights", "[1,0];[0,1];[1,1]"]]
    for key, entry in sorted(catalog.catalog().items()):
        for rep in sorted(entry.reps):
            cmds += [[cmd, f"catalog:{key}:{rep}"]
                     for cmd in ("validate", "ideals", "subalgebras", "factor")]
    return cmds


@pytest.mark.parametrize("argv", _catalog_commands(), ids=" ".join)
def test_writer_matches_the_encoder_on_every_catalog_command(argv):
    args = _parser().parse_args(argv)
    try:
        payload, _ = args.func(args)
    except ValueError:
        return  # factor on a reducible input: an error, no payload
    _check(payload)


def test_complex_json_is_the_rounded_array():
    out = _complex_json(np.array([[1 + 2j, -0.0 - 1e-15j]]))
    assert isinstance(out, np.ndarray) and out.shape == (1, 2, 2)
    assert out.tolist() == [[[1.0, 2.0], [0.0, 0.0]]]
    assert not np.signbit(out).any()  # -0.0 is written as 0.0


@pytest.mark.parametrize("shape", [(0,), (0, 3, 3, 2), (2, 0), (3, 0, 2), (1, 2, 0, 2)])
def test_empty_arrays(shape):
    _check({"a": np.zeros(shape), "b": [np.zeros(shape)]})
    _check(np.zeros(shape))


def test_empty_and_nested_containers():
    _check({})
    _check([])
    _check({"a": [], "b": {}, "c": [[], {}, [[]]], "d": {"e": {"f": []}}, "g": ()})


def test_non_finite_and_signed_zero():
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300]
    _check({"scalars": special, "array": np.array([special, special[::-1]]),
            "nan": math.nan, "neg_zero": -0.0})


def test_non_ascii_text_and_scalars():
    _check({"résumé": "café ☃ \U0001d11e", "q": 'a "quoted" \\ line\n\t',
            "error": "rho(g)rho(h)rho(gh)^-1 is not scalar at (3, 5) — \x00\x1f",
            "ü": [True, False, None, 0, -7, 2 ** 70, 1.5],
            "ints": np.arange(6).reshape(2, 3), "flag": np.array([True, False])})


def test_zero_dim_and_float32_arrays():
    _check({"x": np.array(0.1), "y": np.array([0.1, 1e-7], dtype=np.float32)})


def test_numpy_scalars():
    scalars = [np.int64(-3), np.int32(7), np.uint8(255), np.bool_(True), np.bool_(False),
               np.float64(-0.0), np.float32(0.1), np.float64(math.nan)]
    _check({"scalars": scalars, "one": np.int64(1), "flag": np.bool_(True)})
    assert _dumps([np.int64(2), np.bool_(False)]) == "[2,false]\n"


_floats = st.floats(allow_nan=True, allow_infinity=True)
_leaves = st.one_of(st.none(), st.booleans(), st.integers(), _floats, st.text(max_size=5))


@st.composite
def _arrays(draw):
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=0, max_size=4)))
    size = int(np.prod(shape))
    finite = draw(st.booleans())
    vals = draw(st.lists(st.floats(allow_nan=not finite, allow_infinity=not finite),
                         min_size=size, max_size=size))
    return np.array(vals, dtype=float).reshape(shape)


_payloads = st.recursive(
    st.one_of(_leaves, _arrays()),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_writer_matches_the_encoder_on_random_payloads(payload):
    _check(payload)
