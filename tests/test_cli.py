"""End-to-end runs of the experiment CLI: artifacts, determinism, exit codes."""

import argparse
import contextlib
import copy
import dataclasses
import gc
import importlib
import io
import itertools
import json
import math
import operator
import re
import shlex
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lielength as ll
from lielength import circle, cli, elementary, explength


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


def test_cel_compute_lifts_the_function_at_most_twice(tmp_path, capsys,
                                                      monkeypatch):
    """The printed cel is 2 pi times the printed quotient norm, with no third
    lift of the function."""
    f = ll.CircleFunction(
        ll.DiscretizedSpace(4, [(k, (k + 1) % 4) for k in range(4)]),
        np.array([0.1, 0.2, 0.3, 0.35]))
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(f.to_json()))
    lifts = []
    tree_lift = circle._tree_lift
    monkeypatch.setattr(circle, "_tree_lift",
                        lambda g: lifts.append(g) or tree_lift(g))
    out = tmp_path / "cel.json"
    assert run(["cel", "compute", "--input", str(path), "--out", str(out)]) == 0
    assert len(lifts) <= 2
    doc = json.loads(out.read_text())
    assert doc["cel"] == ll.cel(f) == 2.0 * math.pi * doc["quotient_norm"]


def test_a_group_tag_up_exits_2(tmp_path, capsys):
    """"Up" is no group tag: a p-unitary is a ``schatten.PUnitary``."""
    path = tmp_path / "up.json"
    path.write_text(json.dumps({
        "algebra": {"kind": "scalar-complex"}, "n": 1,
        "entries": [[[1.0, 0.0]]], "group_tag": "Up"}))
    assert run(["el", "estimate", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lielength: error: unknown group tag 'Up'\n"


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


def test_en_decompose_judges_the_rebuild_at_the_input_scale(tmp_path, capsys):
    """A traceless input of norm 1e8 rebuilds to a relative 6e-17, an
    absolute 6e-9: the residual is judged against 1e-10 (1 + |X|)."""
    x = ll.MatrixOverAlgebra(ll.scalar_complex(),
                             np.diag([1e8, 0.1, -(1e8 + 0.1)]).astype(complex))
    assert np.trace(x.data) == 0
    path = tmp_path / "large.json"
    path.write_text(json.dumps(ll.algebra.matrix_to_json(x)))
    assert run(["en", "decompose", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 1e-10 < doc["rebuild_residual"] <= 1e-10 * (1 + x.op_norm())


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
    assert out.read_text() == _COARSE_FIT_JSON % json.dumps(str(path))


_COARSE_FIT_JSON = """{
  "additive": 0.0,
  "command": "coarse fit",
  "input": %s,
  "label": "sampled at 3 points",
  "moduli": {
    "bins": [
      1.05,
      1.9500000000000002
    ],
    "expansive": true,
    "lower": [
      3.0,
      6.0
    ],
    "upper": [
      3.0,
      6.0
    ]
  },
  "multiplicative": 3.0,
  "refuted": false
}"""


def test_coarse_prints_a_constant_past_the_float_range_as_null(tmp_path,
                                                                capsys):
    """Points 0, 0, 5e-324, 1 mapped to 0, 2, 1, 3: the ratio 1 / 5e-324
    overflows, so K = inf.  The fit is refuted (exit 1), and its constant
    is printed as null, in standard JSON."""
    def line(xs):
        return {"ids": [0, 1, 2, 3], "origin": 0,
                "dist": [[abs(a - b) for b in xs] for a in xs]}

    path = tmp_path / "map.json"
    path.write_text(json.dumps({"domain": line([0, 0, 5e-324, 1]),
                                "codomain": line([0, 2, 1, 3]),
                                "pairs": [[i, i] for i in range(4)]}))
    assert run(["coarse", "--input", str(path)]) == 1

    def refuse(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert doc["multiplicative"] is None and doc["refuted"] is True


def test_a_non_finite_result_is_refused_before_anything_is_written(tmp_path):
    out = tmp_path / "result.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_result({"value": math.inf}, str(out), "json")
    assert not out.exists()


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


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as raised:  # argparse's usage error
        run(["suite", "nonsense"])
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'nonsense'" in captured.err


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


_COARSE_SPACE = {"ids": [0, 1], "dist": [[0, 1], [1, 0]], "origin": 0}


@pytest.mark.parametrize("command, doc, message", [
    (["el", "estimate"], [1, 2], "a matrix must be a JSON object, not [1, 2]"),
    (["el", "bracket"], {"algebra": {}, "n": 1, "entries": [[[1, 0]]]},
     "the algebra lacks the key 'kind'"),
    (["rel", "estimate"], {"algebra": {"kind": "scalar-complex"}, "n": 1},
     "a matrix lacks the key 'entries'"),
    (["cel", "compute"], {"vertices": 2, "edges": [[0, 1]]},
     "a circle function lacks the key 'phase'"),
    (["cel", "compute"], [1, 2], "a circle function must be a JSON object, "
     "not [1, 2]"),
    (["en", "decompose"], {"algebra": ["matrix"], "n": 1, "entries": []},
     "the algebra must be a JSON object, not ['matrix']"),
    (["en", "hsdet"], "x", "a word must be a JSON list, not 'x'"),
    (["en", "hsdet"], [{"kind": "E", "i": 1, "j": 2}],
     "a generator lacks the key 'a'"),
    (["coarse"], [1, 2], "a coarse map must be a JSON object, not [1, 2]"),
    (["coarse"], {"domain": {"ids": [0], "dist": [[0]]},
                  "codomain": _COARSE_SPACE, "pairs": [[0, 0]]},
     "the domain lacks the key 'origin'"),
    (["coarse"], {"domain": _COARSE_SPACE, "codomain": _COARSE_SPACE,
                  "pairs": [[0, 0], [1, 7]]},
     "1 maps to 7, which is not a codomain point"),
    (["coarse"], {"domain": _COARSE_SPACE, "codomain": _COARSE_SPACE,
                  "pairs": [["0", 0], [1, 1]]}, "'0' is not a domain point"),
    (["el", "estimate"], {"algebra": {"kind": "matrix", "k": "2"}, "n": 1,
                          "entries": []},
     "matrix algebra needs an integer k >= 1, not '2'"),
    (["en", "hsdet"], [{"kind": "E", "i": "1", "j": 2, "a": [1, 0]}],
     "a generator's i must be an integer, not '1'"),
    (["coarse"], {"domain": _COARSE_SPACE, "codomain": _COARSE_SPACE,
                  "pairs": 5}, "pairs must be a list of [point, image] pairs, "
     "not 5"),
    (["coarse"], {"domain": {"ids": [[0], [1]], "dist": [[0, 1], [1, 0]],
                             "origin": [0]},
                  "codomain": _COARSE_SPACE, "pairs": [[[0], 0], [[1], 1]]},
     "ids must be distinct scalars, not [[0], [1]]"),
    (["en", "hsdet"], [{"kind": "E", "i": 1, "j": 2, "a": [1e308, 0]}],
     "matrix exponential did not converge"),
    (["cel", "compute"], {"vertices": True, "edges": [], "phase": [0.25]},
     "a graph needs at least one vertex, not True"),
    (["en", "hsdet"], [{"kind": "E", "i": True, "j": 2, "a": [1, 0]}],
     "a generator's i must be an integer, not True"),
    (["el", "estimate"], {"algebra": {"kind": "matrix", "k": True}, "n": 1,
                          "entries": []},
     "matrix algebra needs an integer k >= 1, not True"),
], ids=["el-list", "el-algebra-kind", "rel-entries", "cel-phase", "cel-list",
        "decompose-algebra-list", "hsdet-string", "hsdet-payload",
        "coarse-list", "coarse-origin", "coarse-image", "coarse-domain-id",
        "el-k-string", "hsdet-slot-string", "coarse-pairs-number",
        "coarse-list-ids", "hsdet-payload-1e308", "cel-vertices-true",
        "hsdet-slot-true", "el-k-true"])
def test_malformed_input_json_exits_2_naming_the_field(tmp_path, capsys,
                                                       command, doc, message):
    """JSON of the wrong shape or missing a key is unusable input: one error
    line that names what is wrong, no traceback."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert run(command + ["--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lielength: error: {message}\n"


@pytest.mark.parametrize("domain, pairs, message", [
    ({"ids": [1, "1"], "dist": [[0, 1], [1, 0]], "origin": 1},
     [[1, 0], [1, 1]], "every domain point must be mapped exactly once"),
    ({"ids": [0, 0], "dist": [[0, 0], [0, 0]], "origin": 0},
     [[0, 0], [0, 1]], "ids must be distinct scalars, not [0, 0]"),
], ids=["one-id-twice-another-never", "duplicate-id"])
def test_coarse_map_maps_each_domain_position_once(tmp_path, capsys, domain,
                                                   pairs, message):
    """Each domain point is mapped exactly once by position: ids that print
    alike are told apart, and a domain that lists an id twice is refused."""
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"domain": domain, "codomain": _COARSE_SPACE,
                                "pairs": pairs}))
    assert run(["coarse", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lielength: error: {message}\n"


def test_empty_witness_set_exits_2_with_one_line(capsys):
    assert run(["schatten", "witness", "--dim", "3", "--samples", "0",
                "--index", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "lielength: error: the witness needs at least one element\n")


def test_en_witness_refuses_an_m_past_the_float_range(capsys):
    assert run(["en", "witness", "--m", str(10**400)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("lielength: error: m must be at most the largest "
                            "float, 1.7976931348623157e+308\n")


def test_en_witness_checks_its_upper_bound(monkeypatch, capsys):
    """The check text names both ends, so an upper bound off by 1 fails."""
    witness = elementary.unboundedness_witness

    def off_by_one(m):
        bracket = witness(m)
        return dataclasses.replace(bracket, upper=bracket.upper + 1.0)

    monkeypatch.setattr(elementary, "unboundedness_witness", off_by_one)
    assert run(["en", "witness", "--m", "100"]) == 1
    assert '"upper": 101.0' in capsys.readouterr().out


def _group_message(spec):
    return f"--group {spec!r}: use u<k> or gl<n>, with k, n >= 1"


@pytest.mark.parametrize("argv, message", [
    (["el", "bracket", "--group", "foo"], _group_message("foo")),
    (["el", "bracket", "--group", "gl0"], _group_message("gl0")),
    (["el", "bracket", "--group", "gl-1"], _group_message("gl-1")),
    (["rel", "estimate", "--group", "u0"], _group_message("u0")),
    (["trotter", "--dim", "0"], "matrix size n must be >= 1, got 0"),
    (["schatten", "sandwich", "--samples", "0"],
     "--samples must be >= 1, got 0"),
    (["en", "identities", "--samples", "0"], "--samples must be >= 1, got 0"),
], ids=["group-foo", "group-gl0", "group-gl-1", "group-u0", "trotter-dim-0",
        "sandwich-samples-0", "identities-samples-0"])
def test_unusable_input_exits_2_with_one_true_line(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lielength: error: {message}\n"


def test_tol_is_refused_by_el_and_rel(capsys):
    """The bracket-order slack is stated once, in ``explength.in_order``;
    no option restates it."""
    for command in ("el", "rel"):
        with pytest.raises(SystemExit) as caught:
            cli.build_parser().parse_args([command, "estimate", "--tol", "1"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --tol 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["schatten", "chain", "--step", "0"], "step must be > 0"),
    (["schatten", "chain", "--step", "-1"], "step must be > 0"),
    (["schatten", "chain", "--step", "nan"], "--step: 'nan' is not a finite"),
    (["schatten", "chain", "--dim", "0"], "dim must be >= 1"),
    (["schatten", "sandwich", "--p", "nan", "--samples", "2"],
     "--p: 'nan' is not a finite"),
    (["schatten", "chain", "--p", "inf"], "--p: 'inf' is not a finite"),
    (["trotter", "--bound", "nan"], "unrecognized arguments: --bound nan"),
], ids=["step-0", "step-negative", "step-nan", "dim-0", "sandwich-p-nan",
        "chain-p-inf", "trotter-bound-nan"])
def test_bad_numbers_exit_2_naming_the_constraint(capsys, argv, message):
    try:
        status = run(argv)
    except SystemExit as exc:  # argparse's usage error
        status = exc.code
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("action", ["sandwich", "chain"])
def test_a_p_whose_norms_leave_the_float_range_exits_2(capsys, action):
    """At p = 1e308 every singular value other than 0 and 1 over- or
    underflows s^p.  The norms are taken again relative to the top singular
    value, which they then equal, so the run prints finite values and its
    check holds."""
    argv = ["schatten", action, "--dim", "2", "--p", "1e308"]
    status = run(argv + (["--samples", "2"] if action == "sandwich" else []))
    captured = capsys.readouterr()
    assert status == 0
    assert captured.err == ""
    doc = json.loads(captured.out)
    values = ([v for row in doc["rows"] for v in (row["lhs"], row["mid"],
                                                  row["rhs"])]
              if action == "sandwich"
              else [doc["distance"], doc["geodesic_sum"]])
    assert all(0.0 < v < math.inf for v in values)


def test_sandwich_at_p_400_keeps_its_small_samples(capsys):
    """Samples 9 and 10 at seed 0 have top |eigenvalue| 0.0019 and 0.127:
    their sums of s^400 underflow, yet their norms are in range."""
    status = run(["schatten", "sandwich", "--dim", "4", "--p", "400",
                  "--samples", "30"])
    captured = capsys.readouterr()
    assert status == 0
    rows = json.loads(captured.out)["rows"]
    assert len(rows) == 30
    assert 0.0019 / 2 < rows[8]["rhs"] < 0.002
    assert all(row["lhs"] <= row["mid"] <= row["rhs"] for row in rows)


def test_schatten_chain_refuses_a_step_past_the_cap(capsys):
    status = run(["schatten", "chain", "--step", "1e-9"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "MAX_CHAIN_STEPS = 10000" in captured.err


REL_GL2_SEED3 = {"rel_upper": 3.043889925484966,
                 "el_upper": 3.3113622895845207}


@pytest.mark.parametrize("argv, pinned", [
    (["el", "bracket", "--group", "u4", "--seed", "7"],
     {"lower": 2.0762666856961056, "upper": 2.0762666856961056,
      "residual": 1.6797344236599312e-15, "lower_method": "unitary-log"}),
    (["el", "bracket", "--group", "gl3", "--seed", "1"],
     {"lower": 2.00423580343932, "upper": 4.264042864568143,
      "residual": 1.0640846502575137e-14, "lower_method": "log-op-norm"}),
    (["rel", "estimate", "--group", "gl2", "--seed", "3"], REL_GL2_SEED3),
    (["schatten", "chain", "--dim", "4", "--p", "1"],
     {"distance": 5.80506725124477, "coarse_proper_steps": 13,
      "geodesic_steps": 4, "geodesic_sum": 7.406617853662292}),
    (["schatten", "witness", "--dim", "6", "--samples", "50",
      "--index", "1", "10"],
     {"n=1": 0.9992071992556798, "n=10": 0.3295010291412893}),
], ids=["el-u4-seed7", "el-gl3-seed1", "rel-gl2-seed3", "schatten-chain-p1",
        "schatten-witness-dim6"])
def test_reference_runs_keep_their_bracket_values(tmp_path, argv, pinned):
    """The values of the reference CLI runs stay pinned to 1e-12: a change
    to the search or to the spectral calculus must not move them.  A key
    ``n=<index>`` names the least eigenvalue of that witness row."""
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    bracket = doc.get("bracket", doc)
    rows = {f"n={row['n']}": row["min_eigenvalue"]
            for row in doc.get("rows", [])}
    got = {key: bracket["certificate"][key] if key == "residual"
           else rows[key] if key in rows else bracket[key] for key in pinned}
    assert got == pytest.approx(pinned, rel=0, abs=1e-12)


def test_rel_runs_two_searches_and_prints_its_pinned_values(monkeypatch,
                                                            capsys):
    """The el half of the rel run is the el search of its el bracket: one
    rel search and one el search in all."""
    calls = []
    search = explength._search

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(explength, "_search", counted)
    assert run(["rel", "estimate", "--group", "gl2", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(calls) == 2
    assert {key: doc[key] for key in REL_GL2_SEED3} == REL_GL2_SEED3


def _write_group_json(path):
    from lielength.algebra import group_to_json
    rng = np.random.default_rng(4)
    x = ll.MatrixOverAlgebra.random(ll.scalar_complex(), 2, rng, scale=0.5)
    path.write_text(json.dumps(group_to_json(ll.mat_exp(x))))


@pytest.mark.parametrize("command", [["el", "estimate"], ["rel", "estimate"]],
                         ids=["el", "rel"])
def test_input_run_records_its_path_and_refuses_a_group(tmp_path, capsys,
                                                        command):
    path = tmp_path / "g.json"
    _write_group_json(path)
    assert run(command + ["--input", str(path), "--no-optimize"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["input"] == str(path) and "group" not in doc
    assert run(command + ["--input", str(path), "--group", "gl3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"lielength: error: --input {str(path)!r} and "
                            "--group 'gl3' name two elements; give one\n")


@pytest.mark.parametrize("argv, header, rows", [
    (["trotter", "--subdivisions", "16", "32"],
     "commutator_error,n,product_error,product_error_times_n", 2),
    (["en", "witness", "--m", "10"], "check,command,lower,m,upper", 1),
], ids=["rows", "one-row"])
def test_csv_without_out_goes_to_stdout(tmp_path, capsys, argv, header, rows):
    out = tmp_path / "out.csv"
    assert run(argv + ["--format", "csv", "--out", str(out)]) == 0
    assert run(argv + ["--format", "csv"]) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_bytes().decode()
    lines = printed.splitlines()
    assert lines[0] == header and len(lines) == 1 + rows


_EMPTY_WORD = ("lielength: error: the word is empty; give at least one "
               "generator")


@pytest.mark.parametrize("argv, word, last_line", [
    (["schatten", "sandwich", "--step", "1"], None, "--step 1"),
    (["schatten", "chain", "--samples", "0"], None, "--samples 0"),
    (["schatten", "witness", "--step", "1"], None, "--step 1"),
    (["en", "identities", "--m", "3"], None, "--m 3"),
    (["en", "decompose", "--input", "x.json", "--seed", "1"], None,
     "--seed 1"),
    (["en", "hsdet", "--m", "3"], None, "--m 3"),
    (["en", "witness", "--input", "missing.json"], None,
     "--input missing.json"),
    (["cel", "compute", "--input", "f.json", "--seed", "1"], None, "--seed 1"),
    (["coarse", "--input", "map.json", "--seed", "1"], None, "--seed 1"),
    (["suite", "acceptance", "--seed", "1"], None, "--seed 1"),
    (["en", "decompose"], None, "lielength en decompose: error: the "
     "following arguments are required: --input"),
    (["en", "hsdet"], [], _EMPTY_WORD),
    (["en", "hsdet"], {"algebra": {"kind": "scalar-complex"}, "n": 2,
                       "word": []}, _EMPTY_WORD),
], ids=["sandwich-step", "chain-samples", "witness-step", "identities-m",
        "decompose-seed", "hsdet-m", "en-witness-input", "cel-seed",
        "coarse-seed", "suite-seed", "decompose-no-input",
        "hsdet-empty-list", "hsdet-empty-word"])
def test_unread_options_and_unusable_inputs_exit_2(tmp_path, capsys, argv,
                                                   word, last_line):
    """An option the action does not read is the usage error of that
    action's own parser; an unusable input is one ``lielength: error:``
    line."""
    if word is not None:
        path = tmp_path / "word.json"
        path.write_text(json.dumps(word))
        argv = argv + ["--input", str(path)]
    try:
        status = run(argv)
    except SystemExit as exc:  # argparse's usage error
        status = exc.code
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    prog = " ".join(["lielength"] + [w for w in argv[:2]
                                     if not w.startswith("--")])
    if last_line.startswith("--"):
        last_line = f"{prog}: error: unrecognized arguments: {last_line}"
    assert lines[-1] == last_line
    assert len(lines) == 1 or lines[0].startswith(f"usage: {prog} ")


@pytest.mark.parametrize("word", [
    {"algebra": {"kind": "scalar-complex"}, "n": 10**6,
     "word": [{"kind": "E", "i": 1, "j": 2, "a": [1, 0]}]},
    [{"kind": "E", "i": 10**6, "j": 1, "a": [1, 0]}],
    {"algebra": {"kind": "matrix", "k": 2}, "n": 501,
     "word": [{"kind": "E", "i": 1, "j": 2, "a": [[[1, 0], [0, 0]]] * 2}]},
], ids=["algebra-word-n", "bare-word-slot", "matrix-entries"])
def test_a_word_past_the_size_cap_exits_2_before_any_matrix(tmp_path, capsys,
                                                            word):
    """A word's n, or a bare word's largest slot, is a size no data backs:
    n^2 times the numbers of a payload is capped by MAX_WORD_ENTRIES."""
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word))
    assert run(["en", "hsdet", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "MAX_WORD_ENTRIES = 1000000" in captured.err


def _c(x):
    return [x, 0.0]


# One valid --input document of each kind, with the action that reads it.
_CENSUS_DOCS = {
    "gl2-real": (["el", "estimate", "--no-optimize"], {
        "algebra": {"kind": "scalar-real"}, "n": 2,
        "entries": [[2.0, 1.0], [0.5, 1.5]], "group_tag": "GL"}),
    "functions": (["el", "estimate", "--no-optimize"], {
        "algebra": {"kind": "functions-on-graph", "vertices": 2,
                    "edges": [[0, 1]]}, "n": 2,
        "entries": [[[_c(1), _c(2)], [_c(0.5), _c(0)]],
                    [[_c(0), _c(0)], [_c(1), _c(0.5)]]],
        "group_tag": "GL"}),
    "circle": (["cel", "compute"], {
        "vertices": 3, "edges": [[0, 1], [1, 2]], "phase": [0.0, 0.2, 0.4]}),
    "bare-word": (["en", "hsdet"], [
        {"kind": "E", "i": 1, "j": 2, "a": [2.0, 0.5]},
        {"kind": "E", "i": 2, "j": 1, "a": [-1.0, 0.0]}]),
    "algebra-word": (["en", "hsdet"], {
        "algebra": {"kind": "matrix", "k": 2}, "n": 3,
        "word": [{"kind": "E", "i": 1, "j": 3,
                  "a": [[_c(1), _c(0)], [_c(0), _c(1)]]},
                 {"kind": "E", "i": 3, "j": 2,
                  "a": [[_c(0), _c(2)], [_c(0), _c(0)]]}]}),
    "traceless": (["en", "decompose"], {
        "algebra": {"kind": "scalar-complex"}, "n": 2,
        "entries": [[_c(1), _c(2)], [_c(3), _c(-1)]]}),
    "coarse": (["coarse"], {
        "domain": {"ids": [0, 1, 2], "origin": 0,
                   "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "codomain": {"ids": [0, 1, 2], "origin": 0,
                     "dist": [[0, 3, 6], [3, 0, 3], [6, 3, 0]]},
        "pairs": [[0, 0], [1, 1], [2, 2]]}),
}
_CENSUS_VALUES = ("x", None, True, 1e308, -1, 0, 2.5, [], {}, [[1]],
                  {"a": 1}, 10**6, math.nan)


def _nodes(doc, path=()):
    """The key path of every node of a JSON document, the root first."""
    yield path
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_CENSUS_NODES = [(name, path) for name, (_, doc) in _CENSUS_DOCS.items()
                 for path in _nodes(doc)]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.sampled_from(_CENSUS_NODES), st.sampled_from(_CENSUS_VALUES))
@example(("algebra-word", ("n",)), 10**6)
@example(("bare-word", (0, "i")), 10**6)
@example(("functions", ("algebra", "edges")), None)
@example(("coarse", ("domain", "dist")), {})
def test_every_mutated_input_ends_in_an_exit_status(node, value):
    """Each node of a valid --input document replaced by one wrong value:
    the run exits 0, 1 or 2, no exception escapes ``main``, an exit 2
    prints one error line, and a written result is standard JSON."""
    name, path = node
    argv, doc = _CENSUS_DOCS[name]

    def refuse(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / "input.json", Path(tmp) / "out.json"
        source.write_text(json.dumps(_replaced(doc, path, value)))
        stdout, stderr = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(stderr)):
            status = run(argv + ["--input", str(source), "--out", str(out)])
        if status == 2:
            assert stderr.getvalue().startswith("lielength: error: ")
            assert stderr.getvalue().count("\n") == 1
            assert not out.exists()
        else:
            assert status in (0, 1) and stderr.getvalue() == ""
            json.loads(out.read_text(), parse_constant=refuse)


_README = Path(__file__).resolve().parent.parent / "README.md"


def _parser_options(parser, prefix=()):
    """{action name: its option flags other than --help, --out and
    --format} over every action under ``parser``."""
    subparsers = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    if subparsers:
        return {name: flags for command, sub in subparsers[0].choices.items()
                for name, flags in _parser_options(sub, prefix + (command,))
                .items()}
    flags = {f for a in parser._actions for f in a.option_strings
             if f.startswith("--")} - {"--help", "--out", "--format"}
    positional = [a for a in parser._actions if not a.option_strings]
    names = ([prefix + (choice,) for choice in positional[0].choices]
             if positional else [prefix])
    return {" ".join(name): flags for name in names}


def test_readme_option_table_matches_the_parser():
    """The README's table of each action's options is the parser's."""
    lines = _README.read_text().splitlines()
    start = lines.index("| action | its other options |") + 2
    table = {}
    for line in itertools.takewhile(lambda l: l.startswith("|"),
                                    lines[start:]):
        actions, options = line.strip("|").split("|")
        for name in re.findall(r"`([^`]+)`", actions):
            table[name] = set(re.findall(r"`(--[a-z-]+)`", options))
    assert table == _parser_options(cli.build_parser())


@pytest.mark.parametrize("argv", [
    shlex.split(line, comments=True)[1:]
    for line in _README.read_text().splitlines()
    if line.startswith("lielength ")], ids=" ".join)
def test_readme_invocations_parse(argv):
    """Every ``lielength ...`` line of the README is a valid invocation."""
    cli.build_parser().parse_args(argv)


_MODULES = sorted(p.stem for p in Path(ll.__file__).parent.glob("*.py")
                  if p.stem != "__init__")
_REFERENCE = re.compile(rf"`(?:lielength\.)?({'|'.join(_MODULES)})"
                        r"\.([A-Za-z_][\w.]*)`")


def test_readme_module_references_resolve():
    """Every backticked ``module.name`` or ``lielength.module.name`` of the
    README is an attribute of that library module."""
    references = _REFERENCE.findall(_README.read_text())
    assert references
    missing = []
    for module, name in references:
        try:
            operator.attrgetter(name)(
                importlib.import_module(f"lielength.{module}"))
        except AttributeError:
            missing.append(f"{module}.{name}")
    assert missing == []


def test_readme_module_rows_are_short():
    """Each module row of the README's Layout table says what the module is
    for in at most 400 characters: a rule is stated in the docstring of the
    function that holds it, not in the table."""
    rows = [line[2:-2].split(" | ", 1)
            for line in _README.read_text().splitlines()
            if line.startswith("| `lielength.")]
    assert rows
    assert {name: len(cell) for name, cell in rows if len(cell) > 400} == {}
