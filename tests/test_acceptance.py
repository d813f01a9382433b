"""The acceptance battery: one test per criterion, each printing its
pass/fail line.  ``lielength suite acceptance`` runs the same functions."""

import pytest

from lielength import acceptance


@pytest.mark.parametrize("criterion", acceptance.CRITERIA,
                         ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    report = criterion()
    status = "PASS" if report["passed"] else "FAIL"
    line = (f"[{status}] {report['criterion']} "
            f"({report['elapsed_s']}s) {report['detail']}")
    print(line)
    if report["runtime_limit_s"] is not None:
        assert report["elapsed_s"] < report["runtime_limit_s"], \
            f"runtime limit exceeded: {line}"
    assert report["passed"], line


def test_a_criterion_past_its_runtime_gate_fails(monkeypatch):
    """The wall-clock gate is part of the verdict: criterion 1 reads 11 s
    on a faked clock against its 10 s gate and fails, with its checks
    passing."""
    clock = iter([0.0, 11.0])
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(clock))
    report = acceptance.criterion_1_sandwich()
    assert report == {"criterion": "1: exp sandwich inequality",
                      "passed": False, "detail": "violations=0",
                      "elapsed_s": 11.0, "runtime_limit_s": 10.0}
