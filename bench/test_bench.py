"""Tests of the benchmark itself (not collected by the library's suite):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

assert run.prepare(), "the library source is missing"

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from lielength import algebra, explength  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def scalar_element(value):
    mat = algebra.MatrixOverAlgebra(algebra.scalar_complex(), [[value]])
    return algebra.GroupElement(mat, "GL", validate=False)


def traced(fn):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = fn()
    finally:
        tracer.uninstall()
    return tracer, out


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        tracing.metric_names())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_outputs_are_byte_identical(name):
    # scipy.linalg.logm draws from numpy's global generator, so both runs
    # start from the same generator state
    bench = workloads.WORKLOADS[name]()
    item = bench.generate(5)[0]
    np.random.seed(0)
    plain = bench.run(item)
    np.random.seed(0)
    tracer, out = traced(lambda: bench.run(item))
    assert bench.fingerprint(out) == bench.fingerprint(plain)
    assert bench.check(item, out) == []
    assert sum(tracer.calls.values()) > 0


def test_uninstall_restores_every_binding():
    import lielength
    before = (lielength.mat_log, explength.mat_log, algebra.mat_log,
              algebra.MatrixOverAlgebra.__matmul__,
              explength.FactorizationCertificate.__dict__["from_factors"])
    traced(lambda: None)
    after = (lielength.mat_log, explength.mat_log, algebra.mat_log,
             algebra.MatrixOverAlgebra.__matmul__,
             explength.FactorizationCertificate.__dict__["from_factors"])
    assert after == before


def test_counts_on_a_principal_log_match_hand_counts():
    """Quick el on exp(0.3 + 0.2i): one principal log, whose round trip is
    one exp; the pool is [X], [X/2]*2, [X/4]*4 with equal sums, so only [X]
    is certified (one more exp); the lower bound inverts g once."""
    g = scalar_element(np.exp(0.3 + 0.2j))
    quick = explength.EstimateBudget(optimize=False)
    tracer, _ = traced(lambda: explength.el_estimate(g, budget=quick))
    calls = tracer.calls
    assert calls["explength.el_estimate"] == 1
    assert calls["explength.search"] == 1
    assert calls["explength.initial"] == 1
    assert calls["explength.refine"] == 0
    assert calls["explength.certificate"] == 1
    assert calls["algebra.mat_log.scalar"] == 1
    assert tracer.refused["algebra.mat_log.scalar"] == 0
    assert calls["algebra.mat_exp.scalar"] == 2
    assert calls["algebra.inverse"] == 1
    # unitarity test in mat_log, and the certificate's product
    assert calls["algebra.matmul"] == 2
    # mat_log 5 (unitarity 1, exp bound 2, round trip 2), pool objectives
    # 1 + 2 + 4, certificate 5 (exp bound 2, residual, sum, total), the
    # search's residual gate 1, the lower bound 2
    assert calls["algebra.entry_norms.scalar"] == 20
    assert sum(calls[f"algebra.entry_norms.{k}"] for k in ("matrix", "functions")) == 0


def test_counts_on_a_refused_log_match_hand_counts():
    """Quick el on -2: the principal log is refused; the rotated branch
    takes 1 log and the polar split 2; the straight path from 1 to -2
    crosses 0, so each subdivision k = 2, 4, 8, 16 takes logs until the
    step that crosses and is refused: 1 + 2 + 3 + 6."""
    g = scalar_element(-2.0)
    quick = explength.EstimateBudget(optimize=False)
    tracer, _ = traced(lambda: explength.el_estimate(g, budget=quick))
    assert tracer.calls["algebra.mat_log.scalar"] == 1 + 1 + 2 + 12
    assert tracer.refused["algebra.mat_log.scalar"] == 1 + 4
    assert tracer.metrics()["algebra.mat_log.scalar.refused_frac"] == 5 / 16
    assert tracer.calls["explength.initial"] == 1


def test_optimized_rel_runs_two_searches():
    g = scalar_element(np.exp(0.3 + 0.2j))
    budget = explength.EstimateBudget(restarts=1, iterations=1, trials=1)
    tracer, _ = traced(lambda: explength.rel_estimate(g, budget=budget))
    assert tracer.calls["explength.rel_estimate"] == 1
    assert tracer.calls["explength.el_estimate"] == 0
    assert tracer.calls["explength.search"] == 2
    assert tracer.calls["explength.refine"] == 2


def test_self_time_excludes_child_spans():
    g = scalar_element(np.exp(0.3 + 0.2j))
    tracer, _ = traced(lambda: algebra.mat_log(g))
    total = sum(tracer.self_s.values())
    assert all(v >= 0.0 for v in tracer.self_s.values())
    assert tracer.self_s["algebra.mat_log.scalar"] < total


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_reject_a_loosened_output(name):
    bench = workloads.WORKLOADS[name]()
    item = bench.generate(5)[0]
    out = bench.run(item)
    assert bench.check(item, out) == []
    if name == "search":
        out["gl2"].upper += 1e-3
    elif name == "function_fields":
        out["diagonal"][0].upper += 1e-3
    else:
        out["cel"] += 1e-3
    assert bench.check(item, out)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
