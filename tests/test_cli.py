"""Command-line interface: payload shapes, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invalg.algebras
import invalg.cli
import invalg.ideals
from invalg import catalog
from invalg.catalog import pair_to_json
from invalg.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = {
    "validate": ["validate", "catalog:S3:std"],
    "ideals": ["ideals", "catalog:S3:trivPlusSign"],
    "subalgebras": ["subalgebras", "catalog:Q8:std"],
    "factor": ["factor", "catalog:S3xS3:stdXstd"],
    "lie": ["lie", "--type", "A1xA1", "--weights", "[1];[1]"],
    "catalog": ["catalog"],
}


def _run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)] if "--out" not in args else args)
    return code, out.read_bytes()


def test_validate_payload(tmp_path):
    code, raw = _run(COMMANDS["validate"], tmp_path)
    assert code == 0
    d = json.loads(raw)
    assert d["schema"] == 1
    assert d["valid"] is True
    assert d["max_deviation"] < 1e-10
    assert d["irreducible"] is True


def test_ideals_payload(tmp_path):
    code, raw = _run(COMMANDS["ideals"], tmp_path)
    assert code == 0
    d = json.loads(raw)
    assert d["counts"] == {"left": 4, "right": 4}
    assert d["infinite"] is False
    assert len(d["subspaces"]) == 4
    dims = sorted(i["dim"] for i in d["ideals"]["left"])
    assert dims == [0, 2, 2, 4]


def test_ideals_infinite_lattice_payload(tmp_path):
    code, raw = _run(["ideals", "catalog:S3:regular"], tmp_path)
    assert code == 0
    d = json.loads(raw)
    assert d["infinite"] is True
    assert any(f["multiplicity"] > 1 for f in d["parametrization"])


def test_subalgebras_payload(tmp_path):
    code, raw = _run(COMMANDS["subalgebras"], tmp_path)
    assert code == 0
    d = json.loads(raw)
    assert d["count"] == 5
    assert d["complete"] is True
    assert d["verification"]["ok"] is True
    assert d["verification"]["violations"] == []
    dims = [s["dim"] for s in d["subalgebras"]]
    assert dims == [1, 2, 2, 2, 4]
    cartan = d["subalgebras"][1]
    assert cartan["datum"]["subgroup_order"] == 4
    assert cartan["datum"]["w_dim"] == 1
    assert cartan["unital"] is True


def test_factor_payload(tmp_path):
    code, raw = _run(COMMANDS["factor"], tmp_path)
    assert code == 0
    d = json.loads(raw)
    proper = [f for f in d["factorizations"] if 1 < f["subalgebra_dim"] < 16]
    assert len(proper) == 4
    for f in proper:
        assert (f["a"], f["b"]) == (2, 2)
        assert f["residual"] < 1e-6
        assert f["cocycle_deviation"] < 1e-6
        assert len(f["sigma"]["matrices"]) == 36
        assert f["sigma"]["projective"] in (True, False)


def test_lie_payload(tmp_path):
    code, raw = _run(COMMANDS["lie"], tmp_path)
    assert code == 0
    d = json.loads(raw)
    assert d["count"] == 5
    assert d["total_dim"] == 16
    assert [e["dim"] for e in d["entries"]] == [1, 4, 4, 16]
    assert d["includes_zero_algebra"] is True


def test_catalog_payload(tmp_path):
    code, raw = _run(COMMANDS["catalog"], tmp_path)
    assert code == 0
    d = json.loads(raw)
    keys = [e["key"] for e in d["entries"]]
    assert keys == sorted(keys)
    assert "S3" in keys and "SL23" in keys


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_byte_identical_reruns(name, tmp_path):
    _, first = _run(COMMANDS[name], tmp_path, "a.json")
    _, second = _run(COMMANDS[name], tmp_path, "b.json")
    assert first == second
    assert first.endswith(b"\n")


def test_stdout_matches_file_output(tmp_path, capsys):
    code = main(COMMANDS["validate"])
    assert code == 0
    shown = capsys.readouterr().out
    _, raw = _run(COMMANDS["validate"], tmp_path)
    assert shown.encode() == raw


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_is_one_line_of_the_payload_tree(name, capsys):
    args = invalg.cli._parser().parse_args(COMMANDS[name])
    payload, code = args.func(args)
    assert main(COMMANDS[name]) == code
    shown = capsys.readouterr().out
    assert shown.endswith("\n") and shown.count("\n") == 1
    tree = json.loads(json.dumps(payload, default=lambda o: o.tolist()))
    assert json.loads(shown) == tree
    assert shown == json.dumps(tree, sort_keys=True, separators=(",", ":")) + "\n"


def _malformed_docs():
    g, rep = catalog.get("S3", "std")
    short = pair_to_json(g, rep)
    short["representation"]["matrices"] = short["representation"]["matrices"][:5]
    wide = pair_to_json(g, rep)
    wide["representation"]["dim"] = 3
    g, rep = catalog.get("C2xC2", "pauli")
    cocycle = pair_to_json(g, rep)
    cocycle["representation"]["cocycle"] = cocycle["representation"]["cocycle"][:3]
    return {"five_of_six_matrices": (short, "(5, 2, 2), expected (6, 2, 2)"),
            "dim_3_on_2x2": (wide, "(6, 2, 2), expected (6, 3, 3)"),
            "short_cocycle": (cocycle, "(3, 4), expected (4, 4)")}


@pytest.mark.parametrize("cmd", ["validate", "ideals", "subalgebras", "factor"])
@pytest.mark.parametrize("name", sorted(_malformed_docs()))
def test_malformed_representation_exits_1_at_load(name, cmd, tmp_path, capsys):
    doc, shapes = _malformed_docs()[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([cmd, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert shapes in err


def _broken_law_docs():
    """Inputs whose law fails: a Pauli cocycle entry off by 0.1%, and one
    S3 x S3 matrix scaled by 1.01."""
    g, rep = catalog.get("C2xC2", "pauli")
    pauli = pair_to_json(g, rep)
    entry = pauli["representation"]["cocycle"][1][2]
    pauli["representation"]["cocycle"][1][2] = [1.001 * x for x in entry]
    g, rep = catalog.get("S3xS3", "stdXstd")
    s3s3 = pair_to_json(g, rep)
    s3s3["representation"]["matrices"][7] = (
        1.01 * np.array(s3s3["representation"]["matrices"][7])).tolist()
    return {"pauli_cocycle": (pauli, "cocycle identity fails by 0.001"),
            "s3s3_matrix_7": (s3s3, "multiplication law fails by 0.02 at pair (7, ")}


@pytest.mark.parametrize("cmd", ["ideals", "subalgebras", "factor"])
@pytest.mark.parametrize("name", sorted(_broken_law_docs()))
def test_non_representation_exits_1_before_any_work(name, cmd, tmp_path, capsys):
    """The law is certified on the generator pairs first; a failure is one
    error line naming a generator pair (or the cocycle identity)."""
    doc, reason = _broken_law_docs()[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([cmd, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: " + reason) and err.count("\n") == 1
    if name == "s3s3_matrix_7":
        s = int(err.split("at pair (7, ")[1].split(")")[0])
        assert s in catalog.get("S3xS3", "stdXstd")[0].generators


@pytest.mark.parametrize("name", sorted(_broken_law_docs()))
def test_validate_reports_a_broken_law_or_cocycle(name, tmp_path):
    doc, _ = _broken_law_docs()[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, raw = _run(["validate", str(path)], tmp_path)
    d = json.loads(raw)
    assert code == 1 and d["valid"] is False and d["command"] == "validate"
    if name == "pauli_cocycle":
        assert d["reason"] == "cocycle identity fails by 0.001" and "worst_pair" not in d
    else:
        assert d["reason"] == "multiplication law fails by 0.0402 at pair (7, 7)"
        assert d["worst_pair"] == [7, 7]


def _wrongly_typed_docs():
    g, rep = catalog.get("S3", "std")
    dim_null = pair_to_json(g, rep)
    dim_null["representation"]["dim"] = None
    dim_float = pair_to_json(g, rep)
    dim_float["representation"]["dim"] = 2.5
    dim_true = pair_to_json(*catalog.get("S3", "sign"))
    dim_true["representation"]["dim"] = True
    rep_list = pair_to_json(g, rep)
    rep_list["representation"] = [1]
    return {"dim_null": dim_null, "dim_float": dim_float, "dim_true": dim_true,
            "representation_list": rep_list, "top_level_list": [1, 2]}


@pytest.mark.parametrize("cmd", ["validate", "ideals", "subalgebras", "factor"])
@pytest.mark.parametrize("name", sorted(_wrongly_typed_docs()))
def test_wrongly_typed_input_exits_1_at_load(name, cmd, tmp_path, capsys):
    """A JSON value of the wrong type is one error line naming the file."""
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(_wrongly_typed_docs()[name]))
    assert main([cmd, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_unwritable_out_path_exits_1(tmp_path, capsys):
    """An --out path in a missing directory is one error line, not a traceback."""
    path = tmp_path / "missing" / "x.json"
    assert main(["validate", "catalog:S3:std", "--out", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    assert not path.exists()


@pytest.mark.parametrize("weights", ["[1.5]", '["2"]', "[true]"])
def test_lie_non_integer_weight_exits_1(weights, capsys):
    assert main(["lie", "--type", "A1", "--weights", weights]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "not an integer" in err


def test_ideals_decomposes_once(monkeypatch, capsys):
    """One isotypic decomposition serves the subspaces and both ideal lattices."""
    calls = []
    original = invalg.ideals.isotypic_decomposition

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(invalg.ideals, "isotypic_decomposition", counted)
    for key in ("S3:trivPlusSignPlusStd", "S3:std", "S3:regular", "Q8:std"):
        calls.clear()
        assert main(["ideals", f"catalog:{key}"]) == 0
        assert len(calls) == 1, key
    capsys.readouterr()


def test_no_negative_zero_in_output(tmp_path):
    _, raw = _run(COMMANDS["subalgebras"], tmp_path)
    assert b"-0.0," not in raw and b"-0.0]" not in raw


def test_unknown_catalog_key_exits_1(tmp_path, capsys):
    code = main(["validate", "catalog:Z9:std"])
    assert code == 1
    assert capsys.readouterr().err.strip() != ""


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"group": [1, 2')
    code = main(["validate", str(path)])
    assert code == 1
    assert "byte" in capsys.readouterr().err


def test_invalid_rep_exits_1(tmp_path, capsys):
    g, rep = catalog.get("S3", "std")
    doc = pair_to_json(g, rep)
    doc["representation"]["matrices"][3][0][0] = [5.0, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    assert code == 1


@pytest.mark.parametrize("table", [[[0, 1.7], [1, 0.2]], [[False, True], [True, False]]])
def test_non_integer_mult_table_exits_1(table, tmp_path, capsys):
    """A float or bool table once loaded as C2 and ran to exit 0."""
    doc = {"group": {"order": 2, "mult_table": table},
           "representation": {"dim": 1, "matrices": [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]}}
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(doc))
    for cmd in ("validate", "subalgebras"):
        assert main([cmd, str(path)]) == 1
        assert "table entries must be integers" in capsys.readouterr().err
    doc["group"]["mult_table"] = [[0, 1], [1, 0]]
    path.write_text(json.dumps(doc))
    assert main(["subalgebras", str(path), "--out", str(tmp_path / "out.json")]) == 0


def test_subalgebras_on_reducible_exits_1(capsys):
    code = main(["subalgebras", "catalog:S3:trivPlusSign"])
    assert code == 1


def test_cap_exceeded_exits_2(tmp_path, capsys):
    n = 501
    mult = ((np.arange(n)[:, None] + np.arange(n)[None, :]) % n).tolist()
    omega = np.exp(2j * np.pi / n)
    mats = [[[[float((omega ** k).real), float((omega ** k).imag)]]]
            for k in range(n)]
    doc = {"group": {"order": n, "mult_table": mult},
           "representation": {"dim": 1, "matrices": mats, "unitary": True}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code = main(["subalgebras", str(path)])
    assert code == 2


@pytest.mark.parametrize("key,rep_name", [("S3", "std"), ("S3xS3", "stdXstd")])
def test_draw_stream_changes_nothing_material(key, rep_name, tmp_path, monkeypatch):
    """Another stream for the spectral splits gives the same subalgebra
    dimensions.  The input is a file, so each run builds a fresh group and
    no character table cached on a catalog group is reused."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(pair_to_json(*catalog.get(key, rep_name))))
    dims = []
    for draw_seed in (0, 1, 2):
        monkeypatch.setattr(invalg.algebras, "_DRAW_SEED", draw_seed)
        code, raw = _run(["subalgebras", str(path)], tmp_path, f"s{draw_seed}.json")
        assert code == 0
        dims.append([s["dim"] for s in json.loads(raw)["subalgebras"]])
    assert dims == [dims[0]] * 3


def test_seed_flag_is_a_usage_error(capsys):
    """The splits draw from one fixed stream, so there is no ``--seed``."""
    with pytest.raises(SystemExit) as exc:
        main(["subalgebras", "catalog:S3:std", "--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_optimized_interpreter_output_unchanged():
    """Checks raise exceptions rather than assert, so ``python -O`` runs them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    args = ["-m", "invalg.cli", "subalgebras", "catalog:S3xS3:stdXstd"]
    plain, optimized = (subprocess.run([sys.executable, *flags, *args], env=env,
                                       capture_output=True, timeout=120)
                        for flags in ([], ["-O"]))
    assert plain.returncode == 0 and optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout


def test_parser_built_once_keeps_no_state(tmp_path, capsys):
    """One parser serves every call: defaults, help and errors are a fresh one's."""
    parser = invalg.cli._parser()
    assert invalg.cli._parser() is parser
    fresh = invalg.cli._parser.__wrapped__()
    assert parser.format_help() == fresh.format_help()
    for flags, tol in ((["--tol", "1e-6"], 1e-6), ([], 1e-8)):
        _, raw = _run(["validate", "catalog:S3:std", *flags], tmp_path)
        header = {k: v for k, v in json.loads(raw).items() if k in ("schema", "seed", "tol")}
        assert header == {"schema": 1, "tol": tol}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["subalgebras"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    with pytest.raises(SystemExit):
        fresh.parse_args(["subalgebras"])
    assert capsys.readouterr().err == err
    assert "the following arguments are required: input" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1", "0.01", "0.1", "abc"])
def test_tol_outside_its_range_is_a_usage_error(tol, capsys):
    """Zero, negative, non-finite and large tolerances once failed with
    misleading law or dimension errors, or a ZeroDivisionError traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["subalgebras", "catalog:S3:std", "--tol", tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "argument --tol: " in err


def _answer(payload):
    """What a ``subalgebras`` or ``factor`` payload answers, apart from bases.
    Entries of one dimension are sorted by fingerprint, which moves with the
    basis, so their induction data are compared as a sorted list."""
    if payload["command"] == "subalgebras":
        return (payload["count"], payload["complete"], payload["verification"]["ok"],
                sorted((s["dim"], s["datum"]["subgroup_order"]) for s in payload["subalgebras"]))
    return payload["certified"], [(f["a"], f["b"]) for f in payload["factorizations"]]


@pytest.mark.parametrize("tol", ["1e-12", "1e-10", "1e-6", "1e-3"])
def test_tol_in_range_keeps_the_catalog_answers(tol, capsys):
    for args in (["subalgebras", "catalog:S3xS3:stdXstd"], ["factor", "catalog:Q8:std"]):
        assert main(args) == 0
        want = _answer(json.loads(capsys.readouterr().out))
        assert main(args + ["--tol", tol]) == 0
        assert _answer(json.loads(capsys.readouterr().out)) == want


MISDECLARED = [("S3", "std"), ("S3xS3", "stdXstd"), ("S4", "std3"), ("Q8", "std"),
               ("C2xC2", "pauli")]


@pytest.mark.parametrize("key,rep_name", MISDECLARED)
def test_non_unitary_basis_declared_unitary(key, rep_name, tmp_path, capsys):
    """A file's ``"unitary": true`` once chose conjugate transposes as the
    inverses; in the basis T rho T^-1 with T = diag(1..d) + E_1d / 2 the
    commands then failed.  The flag is ignored, so they give the catalog's
    answers, and ``validate`` measures how far from unitary the matrices are."""
    g, rep = catalog.get(key, rep_name)
    d = rep.dim
    t = np.diag(np.arange(1.0, d + 1))
    t[0, d - 1] += 0.5
    doc = pair_to_json(g, rep)
    doc["representation"]["matrices"] = catalog._complex_to_json(
        t @ rep.matrices @ np.linalg.inv(t))
    doc["representation"]["unitary"] = True
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True and report["unitary_deviation"] > 1
    for cmd in ("subalgebras", "factor"):
        code = main([cmd, f"catalog:{key}:{rep_name}"])
        assert main([cmd, str(path)]) == code  # Pauli subalgebras: 1 on both
        outs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(outs) == (2 if code == 0 else 0)
        if outs:
            assert _answer(outs[1]) == _answer(outs[0])
