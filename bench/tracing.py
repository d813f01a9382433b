"""Per-layer call counts and self times, measured from outside the library.

A ``Tracer`` replaces each traced library function with a wrapper on every
binding that refers to it: the defining module, every ``lielength`` module
that imported it by name, and the class that owns it.  ``uninstall`` puts
the originals back.  Each wrapper counts calls and accumulates self time:
the span's duration minus the time covered by the spans it caused, so
``mat_log`` excludes its round-trip ``mat_exp``, which in turn excludes
its ``entry_norms``.  Only aggregates are kept, not individual spans.
"""

from __future__ import annotations

import functools
import sys
import time

from lielength import algebra, circle, explength, schatten

KINDS = ("scalar", "matrix", "functions")
_KIND_OF = {
    algebra.SCALAR_COMPLEX: "scalar",
    algebra.SCALAR_REAL: "scalar",
    algebra.MATRIX: "matrix",
    algebra.FUNCTIONS: "functions",
}
REFUSALS = (algebra.SpectrumOnCutError, algebra.NumericFailureError)


def _kind_of_matrix(args):
    return _KIND_OF[args[0].algebra.kind]


# (span name, owner, attribute, kind of the first argument or None,
#  exceptions counted as refusals)
_TARGETS = (
    ("algebra.entry_norms", algebra.MatrixOverAlgebra, "entry_norms",
     _kind_of_matrix, ()),
    ("algebra.mat_exp", algebra, "mat_exp", _kind_of_matrix, ()),
    ("algebra.mat_log", algebra, "mat_log", _kind_of_matrix, REFUSALS),
    ("algebra.inverse", algebra.MatrixOverAlgebra, "inverse", None, ()),
    ("algebra.matmul", algebra.MatrixOverAlgebra, "__matmul__", None, ()),
    ("explength.el_estimate", explength, "el_estimate", None, ()),
    ("explength.rel_estimate", explength, "rel_estimate", None, ()),
    ("explength.search", explength, "_search", None, ()),
    ("explength.initial", explength, "_initial_certificates", None, ()),
    ("explength.refine", explength, "_refine_factors", None, ()),
    ("explength.certificate", explength.FactorizationCertificate,
     "from_factors", None, ()),
    ("circle.construct", circle.CircleFunction, "__post_init__", None, ()),
    ("circle.components", algebra, "connected_components", None, ()),
    ("circle.identity_component_check", circle, "identity_component_check",
     None, ()),
    ("circle.unwrap", circle, "unwrap", None, ()),
    ("circle.quotient_norm", circle, "quotient_norm", None, ()),
    ("schatten.p_norm", schatten, "p_norm", None, ()),
    ("schatten.haagerup_witness", schatten, "haagerup_witness", None, ()),
    ("schatten.geodesic_chain", schatten, "geodesic_chain", None, ()),
    ("schatten.coarse_proper_chain", schatten, "coarse_proper_chain",
     None, ()),
    ("schatten.sandwich_check", schatten, "sandwich_check", None, ()),
)


def span_names():
    """Every span key the tracer records, in report order."""
    names = []
    for name, _, _, kind_of, _ in _TARGETS:
        if kind_of is None:
            names.append(name)
        else:
            names.extend(f"{name}.{k}" for k in KINDS)
    return names


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span in span_names():
        out.append((f"{span}.calls", "count"))
        out.append((f"{span}.self_s", "s"))
        if span.startswith("algebra.mat_log."):
            out.append((f"{span}.refused_frac", "ratio"))
    out.append(("trace.overhead_frac", "ratio"))
    return out


class Tracer:
    """Counts calls, refusals and self time per span while installed."""

    def __init__(self):
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.refused = dict.fromkeys(span_names(), 0)
        self._child_time = []
        self._patches = []

    def _wrap(self, fn, name, kind_of, refusals):
        calls, self_s, refused = self.calls, self.self_s, self.refused
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name if kind_of is None else f"{name}.{kind_of(args)}"
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except refusals:
                refused[key] += 1
                raise
            finally:
                elapsed = clock() - start
                calls[key] += 1
                self_s[key] += elapsed - child_time.pop()
                if child_time:
                    child_time[-1] += elapsed

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "lielength" or n.startswith("lielength.")]
        for name, owner, attr, kind_of, refusals in _TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(
                    self._wrap(raw.__func__, name, kind_of, refusals)))
                continue
            wrapped = self._wrap(raw, name, kind_of, refusals)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, binding, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self):
        out = {}
        for span in span_names():
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
            if span.startswith("algebra.mat_log."):
                calls = self.calls[span]
                out[f"{span}.refused_frac"] = (
                    self.refused[span] / calls if calls else 0.0)
        return out
