"""Test-session setup: BLAS threads are pinned to 1, with the variables that
``bench/run.py`` pins, so that wall-clock gates such as acceptance
criterion 3 measure the library rather than thread contention with other
processes on the machine.  pytest loads this file before any test module
imports numpy, which reads the variables when it is first imported.  The
``logm_inputs`` fixture records the slices the library hands to its
fallback log, ``algebra._schur_log``; every test starts with no element
kept by ``explength``."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"
_spec = importlib.util.spec_from_file_location("_bench_run", _RUN)
_run = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_run)
for _var in _run.BLAS_THREAD_VARS:
    os.environ[_var] = "1"


@pytest.fixture(autouse=True)
def no_kept_element():
    """``el_estimate`` and ``rel_estimate`` keep the pool and el certificates
    of the last element asked; each test starts without one, so a test that
    counts calls into ``explength`` does not depend on the tests before it."""
    from lielength import explength

    explength._last_element = None


@pytest.fixture
def logm_inputs(monkeypatch):
    """The matrices that ``lielength.algebra`` hands to ``_schur_log`` (its
    fallback for ill-conditioned slices, through scipy's log) during a
    test, in call order."""
    import numpy as np
    from lielength import algebra

    inputs = []
    log = algebra._schur_log

    def recorded(m):
        inputs.append(np.array(m))
        return log(m)

    monkeypatch.setattr(algebra, "_schur_log", recorded)
    return inputs
