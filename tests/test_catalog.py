"""Built-in inputs and their JSON wire format."""

import json

import numpy as np
import pytest

from invalg import catalog, validate
from invalg.catalog import (load_input, pair_from_json, pair_to_json,
                            rep_from_json, rep_to_json)
from invalg.groups import group_from_json, group_to_json

ALL_KEYS = ["A4", "C2xC2", "D4", "Q8", "S3", "S3xS3", "S4", "SL23"]


def test_catalog_listing():
    entries = catalog.catalog()
    assert sorted(entries) == ALL_KEYS


def test_catalog_group_orders():
    orders = {"S3": 6, "Q8": 8, "D4": 8, "A4": 12, "S4": 24, "SL23": 24,
              "S3xS3": 36, "C2xC2": 4}
    for key, n in orders.items():
        assert catalog.get(key).group.order == n


def test_every_rep_validates_tightly():
    for key in ALL_KEYS:
        entry = catalog.get(key)
        for rep_name in entry.reps:
            _, rep = catalog.get(key, rep_name)
            report = validate(rep)
            assert report.max_deviation < 1e-10, (key, rep_name)


def test_get_unknown_raises():
    with pytest.raises(KeyError):
        catalog.get("E8")
    with pytest.raises(KeyError):
        catalog.get("S3", "spin")


def test_sl23_has_order_24_and_quaternion_subgroup():
    g = catalog.get("SL23").group
    assert g.order == 24
    # the 2-Sylow is Q8: exactly one element of order 2
    order2 = [x for x in g.elements()
              if x != g.identity and g.mult[x, x] == g.identity]
    assert len(order2) == 1


def test_group_json_round_trip():
    g = catalog.get("S3").group
    d = json.loads(json.dumps(group_to_json(g)))
    h = group_from_json(d)
    assert h.order == g.order
    assert np.array_equal(h.mult, g.mult)


def test_rep_json_round_trip_exact():
    g, rep = catalog.get("SL23", "std")
    d = json.loads(json.dumps(rep_to_json(rep)))
    back = rep_from_json(g, d)
    assert np.array_equal(back.matrices, rep.matrices)


def test_projective_rep_json_keeps_cocycle():
    g, rep = catalog.get("C2xC2", "pauli")
    d = json.loads(json.dumps(pair_to_json(g, rep)))
    g2, rep2 = pair_from_json(d)
    assert rep2.cocycle is not None
    assert np.array_equal(rep2.cocycle.values, rep.cocycle.values)
    assert np.array_equal(rep2.matrices, rep.matrices)
    assert validate(rep2).max_deviation < 1e-10


@pytest.mark.parametrize("field, cut, message", [
    ("matrices", lambda m: m[:5], "'matrices' has shape (5, 2, 2), expected (6, 2, 2)"),
    ("matrices", lambda m: [[row[:1] for row in mat] for mat in m],
     "'matrices' has shape (6, 2, 1), expected (6, 2, 2)"),
    ("matrices", lambda m: [[[z[:1] for z in row] for row in mat] for mat in m],
     "'matrices' entries must be [re, im] pairs; got shape (6, 2, 2, 1)"),
    ("dim", lambda _: 3, "'matrices' has shape (6, 2, 2), expected (6, 3, 3)"),
    ("cocycle", lambda c: c[:5], "'cocycle' has shape (5, 6), expected (6, 6)"),
    ("cocycle", lambda c: [row + row[:1] for row in c], "'cocycle' has shape (6, 7), expected (6, 6)"),
])
def test_rep_from_json_rejects_wrong_shapes(field, cut, message):
    g, rep = catalog.get("S3", "std")
    d = json.loads(json.dumps(rep_to_json(rep)))
    d["cocycle"] = [[[1.0, 0.0]] * 6] * 6
    assert rep_from_json(g, d).cocycle.values.shape == (6, 6)
    d[field] = cut(d[field])
    with pytest.raises(ValueError) as exc:
        rep_from_json(g, d)
    assert str(exc.value) == message


@pytest.mark.parametrize("field, where", [("matrices", (1, 0, 1, 0)),
                                          ("cocycle", (1, 2, 1))])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_rep_from_json_rejects_non_finite_entries(field, where, bad):
    """NaN compares false, so a NaN matrix once validated with deviation 0."""
    g, rep = catalog.get("S3", "std")
    d = json.loads(json.dumps(rep_to_json(rep)))
    d["cocycle"] = [[[1.0, 0.0] for _ in range(6)] for _ in range(6)]
    *path, last = where
    entry = d[field]
    for i in path:
        entry = entry[i]
    entry[last] = bad
    with pytest.raises(ValueError) as exc:
        rep_from_json(g, d)
    assert str(exc.value) == f"{field!r} has a non-finite entry"


@pytest.mark.parametrize("rep_name, dim", [("std", 2.5), ("std", 2.0), ("std", "2"),
                                           ("sign", True), ("std", None)])
def test_rep_from_json_requires_an_integer_dim(rep_name, dim, tmp_path):
    """``int()`` once read 2.5 as 2, "2" as 2 and true as 1."""
    g, rep = catalog.get("S3", rep_name)
    d = json.loads(json.dumps(pair_to_json(g, rep)))
    d["representation"]["dim"] = dim
    with pytest.raises(TypeError) as exc:
        rep_from_json(g, d["representation"])
    assert str(exc.value) == f"'dim' must be an integer; got {dim!r}"
    path = tmp_path / "dim.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="'dim' must be an integer"):
        load_input(str(path))


def test_rep_json_ignores_a_unitary_key():
    """Files may still carry ``"unitary"``; it declares nothing."""
    g, rep = catalog.get("S3", "std")
    d = json.loads(json.dumps(rep_to_json(rep)))
    assert "unitary" not in d
    for flag in (True, False, "yes"):
        back = rep_from_json(g, {**d, "unitary": flag})
        assert np.array_equal(back.matrices, rep.matrices)


def test_load_input_catalog_string():
    g, rep = load_input("catalog:S3:std")
    assert g.order == 6
    assert rep.dim == 2


def test_load_input_file(tmp_path):
    g, rep = catalog.get("Q8", "std")
    path = tmp_path / "q8.json"
    path.write_text(json.dumps(pair_to_json(g, rep)))
    g2, rep2 = load_input(str(path))
    assert g2.order == 8
    assert np.allclose(rep2.matrices, rep.matrices)


def test_load_input_malformed_json_reports_byte(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"group": {')
    with pytest.raises(ValueError) as exc:
        load_input(str(path))
    assert "byte" in str(exc.value)
