"""End-to-end runs of the experiment CLI: artifacts, determinism, exit codes."""

import gc
import json
import math
import warnings

import numpy as np
import pytest

import lielength as ll
from lielength import cli


def run(argv):
    return cli.main(argv)


def test_el_estimate_writes_bracket_json(tmp_path):
    out = tmp_path / "bracket.json"
    status = run(["el", "estimate", "--group", "u4", "--seed", "7",
                  "--out", str(out)])
    assert status == 0
    doc = json.loads(out.read_text())
    assert doc["bracket"]["lower"] <= doc["bracket"]["upper"]
    assert doc["seed"] == 7
    assert "norm" in doc


def test_el_bracket_includes_certificate(tmp_path):
    out = tmp_path / "bracket.json"
    status = run(["el", "bracket", "--group", "u2", "--seed", "3",
                  "--out", str(out)])
    assert status == 0
    doc = json.loads(out.read_text())
    assert "certificate" in doc["bracket"]
    assert doc["bracket"]["certificate"]["residual"] <= 1e-8


def test_same_config_same_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["el", "estimate", "--group", "u3", "--seed", "11", "--out", str(a)])
    run(["el", "estimate", "--group", "u3", "--seed", "11", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cel_compute_prints_value(tmp_path, capsys):
    f = ll.CircleFunction(
        ll.DiscretizedSpace(4, [(0, 1), (1, 2), (2, 3)]),
        np.array([0.0, 0.25, 0.5, 0.75]))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json()))
    status = run(["cel", "compute", "--input", str(path)])
    assert status == 0
    captured = capsys.readouterr().out
    assert "cel =" in captured
    assert f"{1.5 * math.pi:.6f}"[:6] in captured


def test_cel_compute_detects_winding(tmp_path, capsys):
    m = 8
    f = ll.CircleFunction(
        ll.DiscretizedSpace(m, [(k, (k + 1) % m) for k in range(m)]),
        np.array([k / m for k in range(m)]))
    path = tmp_path / "winding.json"
    path.write_text(json.dumps(f.to_json()))
    status = run(["cel", "compute", "--input", str(path)])
    assert status == 1
    assert "not in the identity component" in capsys.readouterr().out


def test_rel_command(tmp_path):
    out = tmp_path / "rel.json"
    status = run(["rel", "estimate", "--group", "gl2", "--seed", "5",
                  "--no-optimize", "--out", str(out)])
    assert status == 0
    doc = json.loads(out.read_text())
    assert doc["rel_upper"] <= doc["el_upper"] + 1e-9


def test_trotter_csv(tmp_path):
    out = tmp_path / "trotter.csv"
    status = run(["trotter", "--dim", "2", "--seed", "1",
                  "--subdivisions", "16", "32", "64",
                  "--format", "csv", "--out", str(out)])
    assert status == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + one row per subdivision


def test_schatten_sandwich_csv(tmp_path):
    out = tmp_path / "rows.csv"
    status = run(["schatten", "sandwich", "--dim", "4", "--p", "2",
                  "--samples", "20", "--format", "csv", "--out", str(out)])
    assert status == 0
    header = out.read_text().splitlines()[0]
    for column in ("dim", "p", "lhs", "mid", "rhs"):
        assert column in header


def test_schatten_chain_and_witness(tmp_path):
    assert run(["schatten", "chain", "--dim", "4", "--p", "1",
                "--seed", "2", "--out", str(tmp_path / "c.json")]) == 0
    assert run(["schatten", "witness", "--dim", "4", "--samples", "12",
                "--index", "1", "10",
                "--out", str(tmp_path / "w.json")]) == 0


def test_en_subcommands(tmp_path):
    assert run(["en", "identities", "--samples", "50"]) == 0
    assert run(["en", "witness", "--m", "10",
                "--out", str(tmp_path / "w.json")]) == 0
    doc = json.loads((tmp_path / "w.json").read_text())
    assert doc["lower"] == pytest.approx(math.log(11), abs=1e-12)

    x = ll.MatrixOverAlgebra(ll.scalar_complex(),
                             np.array([[1.0, 2.0], [3.0, -1.0]],
                                      dtype=complex))
    path = tmp_path / "traceless.json"
    from lielength.algebra import matrix_to_json
    path.write_text(json.dumps(matrix_to_json(x)))
    assert run(["en", "decompose", "--input", str(path)]) == 0

    assert run(["en", "hsdet", "--seed", "3"]) == 0


def test_coarse_fit_command(tmp_path):
    ids = ["a", "b", "c"]
    dist = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    scaled = [[0.0, 3.0, 6.0], [3.0, 0.0, 3.0], [6.0, 3.0, 0.0]]
    doc = {"domain": {"ids": ids, "dist": dist, "origin": "a"},
           "codomain": {"ids": ids, "dist": scaled, "origin": "a"},
           "pairs": [["a", "a"], ["b", "b"], ["c", "c"]]}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "fit.json"
    assert run(["coarse", "--input", str(path), "--out", str(out)]) == 0
    fit = json.loads(out.read_text())
    assert fit["multiplicative"] == pytest.approx(3.0)
    assert fit["additive"] == pytest.approx(0.0, abs=1e-12)


def test_en_hsdet_reads_word_json(tmp_path):
    word = [{"kind": "E", "i": 1, "j": 2, "a": [2.0, 0.5]},
            {"kind": "E", "i": 2, "j": 1, "a": [-1.0, 0.0]},
            {"kind": "E", "i": 1, "j": 2, "a": [0.0, 1.0]}]
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word))
    out = tmp_path / "hsdet.json"
    assert run(["en", "hsdet", "--input", str(path),
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "raw" in doc and "reduced" in doc


def test_el_estimate_from_group_json(tmp_path):
    from lielength.algebra import group_to_json
    rng = np.random.default_rng(4)
    x = ll.MatrixOverAlgebra.random(ll.scalar_complex(), 2, rng, scale=0.5)
    g = ll.mat_exp(x)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(group_to_json(g)))
    out = tmp_path / "bracket.json"
    assert run(["el", "estimate", "--input", str(path), "--group", "",
                "--no-optimize", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["bracket"]["upper"] <= x.op_norm() + 1e-9


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        run(["suite", "nonsense"])


def test_input_files_are_closed(tmp_path, capsys):
    f = ll.CircleFunction(ll.DiscretizedSpace(2, [(0, 1)]),
                          np.array([0.0, 0.25]))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["cel", "compute", "--input", str(path)]) == 0
        gc.collect()
    capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _nan_group_json(path):
    doc = {"algebra": {"kind": "scalar-complex"}, "n": 1,
           "entries": [[[math.nan, 0.0]]], "group_tag": "GL"}
    path.write_text(json.dumps(doc))


def _bad_sampling_json(path):
    f = {"vertices": 3, "edges": [[0, 1], [1, 2]], "phase": [0.0, 0.5, 0.6]}
    path.write_text(json.dumps(f))


@pytest.mark.parametrize("command, write", [
    (["cel", "compute"], _bad_sampling_json),
    (["el", "estimate"], None),
    (["el", "estimate"], _nan_group_json),
], ids=["bad-sampling", "missing-file", "nan-entries"])
def test_input_errors_exit_2_with_one_line(tmp_path, capsys, command, write):
    path = tmp_path / "input.json"
    if write is not None:
        write(path)
    assert run(command + ["--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lielength: error: ")
    assert "Traceback" not in captured.err


def test_tol_belongs_to_el_and_rel():
    assert cli.build_parser().parse_args(
        ["rel", "estimate", "--tol", "0.5"]).tol == 0.5
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["trotter", "--tol", "0.5"])
