"""Finite-dimensional unital Banach algebras and the exp/log calculus over them.

Three concrete algebra kinds are supported:

* ``scalar-complex`` / ``scalar-real`` -- the base field with absolute value;
* ``matrix(k)`` -- k-by-k complex matrices with the operator (spectral) norm;
* ``functions-on-graph`` -- complex functions sampled on the vertices of a
  finite graph, pointwise operations, sup norm over vertices.  Connected
  components of the graph play the role of connected components of the
  underlying compact space.

Matrices over an algebra carry two norms: the entry-max norm ``|X|_inf`` and
the operator norm of X acting on the l1-sum of n copies of the algebra,
computed as max over columns j of sum_i |X_ij|_A.  The column-sum formula is
exact when entries act by multiplication on a commutative or scalar algebra
and is an upper bound otherwise; together with the entry-max lower bound it
brackets every quantity derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

DEFAULT_TOL = 1e-9

SCALAR_COMPLEX = "scalar-complex"
SCALAR_REAL = "scalar-real"
MATRIX = "matrix"
FUNCTIONS = "functions-on-graph"

GROUP_TAGS = ("GL", "SL", "En", "U", "Up")


class SpectrumOnCutError(ValueError):
    """Raised when a principal logarithm is requested for a non-unitary
    element with spectrum touching the closed negative real half-line."""


class NumericFailureError(RuntimeError):
    """Raised when exp/log evaluation fails to reproduce its input within
    tolerance (non-convergence or ill conditioning)."""


def graph_edges(vertices, edges):
    """The edges of a graph on ``vertices`` vertices as a tuple of int pairs.
    ValueError on fewer than one vertex or a non-integer or out-of-range
    endpoint: a float endpoint is never truncated to a vertex."""
    if not (isinstance(vertices, (int, np.integer)) and vertices >= 1):
        raise ValueError(f"a graph needs at least one vertex, not {vertices!r}")
    edges = tuple(edges)
    for u, v in edges:
        if not all(isinstance(x, (int, np.integer)) for x in (u, v)):
            raise ValueError(f"edge ({u},{v}) has a non-integer endpoint")
        if not (0 <= u < vertices and 0 <= v < vertices):
            raise ValueError(f"edge ({u},{v}) out of range")
    return tuple((int(u), int(v)) for u, v in edges)


def read_only(array, dtype=None):
    """A read-only view of ``array`` as ``dtype``: the holder cannot write
    through it, and the caller's own array stays writable."""
    view = np.asarray(array, dtype=dtype).view()
    view.setflags(write=False)
    return view


def spanning_forest(n_vertices, edges):
    """One breadth-first traversal of an undirected graph: (labels, tree_edges,
    nontree_edges).  Components are rooted at their smallest vertex and
    labelled in that order; neighbours are visited in (vertex, edge index)
    order; tree edges point away from the root, in visiting order; the other
    edges keep their order and orientation.  Edges are (-1, 2) int arrays."""
    ends = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    tail, head = np.concatenate([ends, ends[:, ::-1]]).T
    index = np.tile(np.arange(len(ends)), 2)
    order = np.lexsort((index, head, tail))
    start = np.searchsorted(tail[order], np.arange(n_vertices + 1)).tolist()
    head, index = head[order].tolist(), index[order].tolist()
    root_of = [-1] * n_vertices
    in_tree = np.zeros(len(ends), dtype=bool)
    tree = []
    for root in range(n_vertices):
        if root_of[root] < 0:
            root_of[root] = root
            queue = [root]
            for u in queue:  # the loop also reaches the vertices appended below
                for k in range(start[u], start[u + 1]):
                    v = head[k]
                    if root_of[v] < 0:
                        root_of[v] = root
                        in_tree[index[k]] = True
                        tree.append((u, v))
                        queue.append(v)
    labels = np.unique(root_of, return_inverse=True)[1]
    return labels, np.array(tree, dtype=np.intp).reshape(-1, 2), ends[~in_tree]


def connected_components(n_vertices, edges):
    """Component label of each vertex, as a list; numbered by smallest vertex."""
    return spanning_forest(n_vertices, edges)[0].tolist()


@dataclass(frozen=True)
class BanachAlgebra:
    """A finite-dimensional unital Banach algebra with its norm.

    ``kind`` selects the model; ``k`` is the matrix size for ``matrix`` kind;
    ``vertices``/``edges`` describe the sampling graph for the function kind.
    The unit always has norm 1 and the norm is submultiplicative.
    """

    kind: str
    k: int = 0
    vertices: int = 0
    edges: tuple = ()

    def __post_init__(self):
        if self.kind not in (SCALAR_COMPLEX, SCALAR_REAL, MATRIX, FUNCTIONS):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if self.kind == MATRIX and self.k < 1:
            raise ValueError("matrix algebra needs k >= 1")
        if self.kind == FUNCTIONS:
            object.__setattr__(self, "edges",
                               graph_edges(self.vertices, self.edges))

    @property
    def is_commutative(self):
        return self.kind != MATRIX or self.k == 1

    @property
    def dtype(self):
        return np.float64 if self.kind == SCALAR_REAL else np.complex128

    def value_shape(self):
        if self.kind in (SCALAR_COMPLEX, SCALAR_REAL):
            return ()
        if self.kind == MATRIX:
            return (self.k, self.k)
        return (self.vertices,)

    def unit_value(self):
        if self.kind in (SCALAR_COMPLEX, SCALAR_REAL):
            return self.dtype(1)
        if self.kind == MATRIX:
            return np.eye(self.k, dtype=self.dtype)
        return np.ones(self.vertices, dtype=self.dtype)

    def zero_value(self):
        if self.kind in (SCALAR_COMPLEX, SCALAR_REAL):
            return self.dtype(0)
        return np.zeros(self.value_shape(), dtype=self.dtype)

    def norm(self, value):
        """Norm of a value, or of each value in a stack along the leading axes:
        |.| for scalars, spectral norm for matrix(k), sup over vertices."""
        value = np.asarray(value)
        if self.kind == MATRIX:
            return np.linalg.norm(value, 2, axis=(-2, -1))
        if self.kind == FUNCTIONS:
            return np.abs(value).max(axis=-1)
        return np.abs(value)

    def mul(self, a, b):
        if self.kind == MATRIX:
            return np.asarray(a) @ np.asarray(b)
        return np.asarray(a) * np.asarray(b)

    def components(self):
        """Connected-component labels (function algebras only)."""
        if self.kind != FUNCTIONS:
            raise ValueError("components are defined for function algebras")
        return connected_components(self.vertices, self.edges)

    def random_value(self, rng, scale=1.0):
        shape = self.value_shape()
        if self.kind == SCALAR_REAL:
            return scale * rng.standard_normal(shape)
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        return scale * (re + 1j * im)


def scalar_complex():
    return BanachAlgebra(SCALAR_COMPLEX)


def scalar_real():
    return BanachAlgebra(SCALAR_REAL)


def matrix_algebra(k):
    return BanachAlgebra(MATRIX, k=k)


def function_algebra(vertices, edges=()):
    return BanachAlgebra(FUNCTIONS, vertices=vertices, edges=edges)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An element of a Banach algebra together with its parent algebra."""

    algebra: BanachAlgebra
    value: object

    def __post_init__(self):
        v = read_only(self.value, self.algebra.dtype)
        if v.shape != self.algebra.value_shape():
            raise ValueError(
                f"value shape {v.shape} does not match algebra {self.algebra.kind}")
        object.__setattr__(self, "value", v)


class MatrixOverAlgebra:
    """An n-by-n matrix with entries in a Banach algebra.

    Data layout: scalar algebras store (n, n); the matrix(k) algebra stores
    (n, n, k, k); function algebras store (n, n, V).  Entry (i, j) is
    ``data[i, j]`` in all cases.  ``data`` is a read-only view: every
    operation builds a new matrix, and no attribute can be rebound.
    """

    __slots__ = ("algebra", "data", "n")

    def __init__(self, algebra, data):
        data = read_only(data, algebra.dtype)
        expected_ndim = 2 + len(algebra.value_shape())
        if data.ndim != expected_ndim or data.shape[0] != data.shape[1]:
            raise ValueError(f"bad matrix data shape {data.shape}")
        if data.shape[2:] != algebra.value_shape():
            raise ValueError(
                f"entry shape {data.shape[2:]} does not match algebra")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "n", data.shape[0])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: the matrix is immutable")

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete {name!r}: the matrix is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def identity(cls, algebra, n):
        return cls.diagonal(algebra, [algebra.unit_value()] * n)

    @classmethod
    def diagonal(cls, algebra, values):
        """The diagonal matrix with entries ``values`` down its diagonal."""
        n = len(values)
        data = np.zeros((n, n) + algebra.value_shape(), dtype=algebra.dtype)
        data[range(n), range(n)] = values
        return cls(algebra, data)

    @classmethod
    def zeros(cls, algebra, n):
        return cls(algebra, np.zeros((n, n) + algebra.value_shape(),
                                     dtype=algebra.dtype))

    @classmethod
    def single_entry(cls, algebra, n, i, j, value):
        data = np.zeros((n, n) + algebra.value_shape(), dtype=algebra.dtype)
        data[i, j] = value
        return cls(algebra, data)

    @classmethod
    def random(cls, algebra, n, rng, scale=1.0):
        data = np.stack([algebra.random_value(rng, scale) for _ in range(n * n)])
        return cls(algebra, data.reshape((n, n) + algebra.value_shape()))

    # -- entry access ------------------------------------------------------
    def entry_norms(self):
        return self.algebra.norm(self.data)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        self._check_compatible(other)
        return MatrixOverAlgebra(self.algebra, self.data + other.data)

    def __sub__(self, other):
        self._check_compatible(other)
        return MatrixOverAlgebra(self.algebra, self.data - other.data)

    def __neg__(self):
        return MatrixOverAlgebra(self.algebra, -self.data)

    def scaled(self, c):
        if self.algebra.kind == SCALAR_REAL and np.iscomplexobj(np.asarray(c)):
            raise ValueError("complex scale on a real algebra")
        return MatrixOverAlgebra(self.algebra, c * self.data)

    def __matmul__(self, other):
        self._check_compatible(other)
        return MatrixOverAlgebra.from_flat(self.algebra, self.n,
                                           self.to_flat() @ other.to_flat())

    def adjoint(self):
        flat = np.swapaxes(self.to_flat().conj(), -1, -2)
        return MatrixOverAlgebra.from_flat(self.algebra, self.n, flat)

    def _check_compatible(self, other):
        if self.algebra != other.algebra or self.n != other.n:
            raise ValueError("incompatible matrices")

    # -- norms -------------------------------------------------------------
    def entry_max_norm(self):
        """|X|_inf = max over entries of the algebra norm."""
        return float(np.max(self.entry_norms()))

    def op_norm(self):
        """Operator norm of X on the l1-sum A^n: max column sum of entry
        norms.  Exact for scalar and commutative algebras, an upper bound
        otherwise (entry_max_norm is the companion lower bound)."""
        norms = self.entry_norms()
        return float(np.max(norms.sum(axis=0)))

    # -- flat (numeric) representation --------------------------------------
    def to_flat(self):
        """Represent the matrix as a stack of plain square matrices on which
        every product, adjoint, exp/log, inverse and det acts: shape (n, n)
        for scalars, (nk, nk) for matrix(k), (V, n, n) for function algebras.
        With ``from_flat``, the one home of the per-kind layout."""
        kind = self.algebra.kind
        if kind == MATRIX:
            k = self.algebra.k
            return self.data.transpose(0, 2, 1, 3).reshape(self.n * k, self.n * k)
        if kind == FUNCTIONS:
            return self.data.transpose(2, 0, 1)
        return self.data

    @classmethod
    def from_flat(cls, algebra, n, flat):
        if algebra.kind == MATRIX:
            k = algebra.k
            data = flat.reshape(n, k, n, k).transpose(0, 2, 1, 3)
        elif algebra.kind == FUNCTIONS:
            data = np.asarray(flat).transpose(1, 2, 0)
        else:
            data = np.asarray(flat)
        return cls(algebra, data)

    def inverse(self):
        inv = np.linalg.inv(self.to_flat())
        return MatrixOverAlgebra.from_flat(self.algebra, self.n, inv)

    def det(self):
        """Entrywise determinant (commutative algebras only), as an
        AlgebraElement."""
        if not self.algebra.is_commutative:
            raise ValueError("determinant requires a commutative algebra")
        det = np.linalg.det(self.to_flat()).reshape(self.algebra.value_shape())
        return AlgebraElement(self.algebra, det)

    def trace_sum(self):
        """Sum of the diagonal entries, as an AlgebraElement."""
        value = self.algebra.zero_value()
        for i in range(self.n):
            value = value + self.data[i, i]
        return AlgebraElement(self.algebra, value)

    def __repr__(self):
        return (f"MatrixOverAlgebra(n={self.n}, kind={self.algebra.kind!r}, "
                f"|X|={self.op_norm():.4g})")


def norm_description(algebra):
    """Human-readable statement of the norm every reported value refers to."""
    entry = {
        SCALAR_COMPLEX: "absolute value",
        SCALAR_REAL: "absolute value",
        MATRIX: f"operator norm on C^{algebra.k}",
        FUNCTIONS: "sup over vertices",
    }[algebra.kind]
    return f"max column sum of entry norms, entries by {entry}"


@dataclass(frozen=True)
class GroupElement:
    """An invertible matrix over a Banach algebra, tagged with its ambient
    group (GL, SL, En, U, Up).  Invariants are checked to ``DEFAULT_TOL``."""

    matrix: MatrixOverAlgebra
    group_tag: str = "GL"
    validate: bool = True

    def __post_init__(self):
        if self.group_tag not in GROUP_TAGS:
            raise ValueError(f"unknown group tag {self.group_tag!r}")
        if self.validate:
            self.check_invariants()

    def check_invariants(self):
        g = self.matrix
        if not np.all(np.isfinite(g.data)):
            raise ValueError("entries must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            res = (g @ g.inverse()) - MatrixOverAlgebra.identity(g.algebra, g.n)
        # written as not (x <= tol) so that a NaN from overflow fails them;
        # a non-finite residual is refused before its norm is taken
        if not (np.all(np.isfinite(res.data))
                and res.op_norm() <= DEFAULT_TOL * (1.0 + g.op_norm())):
            raise ValueError("matrix is not invertible within tolerance")
        if self.group_tag == "SL":
            if not g.algebra.is_commutative:
                raise ValueError("SL tag requires a commutative algebra")
            dev = g.det().value - g.algebra.unit_value()
            if not (g.algebra.norm(dev) <= DEFAULT_TOL):
                raise ValueError("SL tag but determinant differs from the unit")
        if self.group_tag in ("U", "Up") and not self.is_unitary():
            raise ValueError("U tag but g*g differs from the identity")

    @property
    def algebra(self):
        return self.matrix.algebra

    @property
    def n(self):
        return self.matrix.n

    def inverse(self):
        return GroupElement(self.matrix.inverse(), self.group_tag,
                            validate=False)

    def __matmul__(self, other):
        tag = self.group_tag if self.group_tag == other.group_tag else "GL"
        return GroupElement(self.matrix @ other.matrix, tag, validate=False)

    def is_unitary(self):
        g = self.matrix
        with np.errstate(over="ignore", invalid="ignore"):
            res = (g.adjoint() @ g) - MatrixOverAlgebra.identity(g.algebra, g.n)
        if not np.all(np.isfinite(res.data)):
            return False  # g* g overflows: g is far from unitary
        return res.op_norm() <= DEFAULT_TOL

    @classmethod
    def identity(cls, algebra, n):
        return cls(MatrixOverAlgebra.identity(algebra, n), validate=False)


# ---------------------------------------------------------------------------
# exponential and principal logarithm


def mat_exp(x):
    """exp(X) as a GL group element.  Verifies |exp(X)| <= e^{|X|}."""
    flat = scipy.linalg.expm(x.to_flat())
    if not np.all(np.isfinite(flat)):
        raise NumericFailureError("matrix exponential did not converge")
    mat = MatrixOverAlgebra.from_flat(x.algebra, x.n, flat)
    bound = np.exp(min(x.op_norm(), 700.0))
    if mat.op_norm() > bound * (1.0 + 1e-9) + 1e-12:
        raise NumericFailureError("|exp(X)| exceeds e^{|X|}: numeric failure")
    return GroupElement(mat, validate=False)


def unitary_spectrum(m):
    """Eigen-decomposition of a unitary, or of each unitary in a stack along
    the leading axes, through its Schur form: returns (eigenvalues, angles,
    vecs) with m = vecs diag(eigenvalues) vecs*.

    This is the one home of the principal branch: angles lie in (-pi, pi]
    and an eigenvalue at -1 is resolved to +pi.
    """
    m = np.asarray(m).astype(np.complex128)
    if m.ndim > 2 and math.prod(m.shape[:-2]) == 1:
        # One slice: the 2-D call skips scipy's batching wrapper.
        t, z = scipy.linalg.schur(m.reshape(m.shape[-2:]), output="complex")
        t, z = t.reshape(m.shape), z.reshape(m.shape)
    else:
        t, z = scipy.linalg.schur(m, output="complex")
    d = np.diagonal(t, axis1=-2, axis2=-1)
    off = t - d[..., None] * np.eye(t.shape[-1])
    size = np.maximum(1.0, np.linalg.norm(t, axis=(-2, -1)))
    if np.any(np.linalg.norm(off, axis=(-2, -1)) > 1e-8 * size):
        raise NumericFailureError("unitary input failed to diagonalize")
    theta = np.where(np.abs(d + 1.0) <= 1e-12, np.pi, np.angle(d))
    return d, theta, z


def exp_i_selfadjoint(lam, vecs):
    """e^{ia} for the self-adjoint a = vecs diag(lam) vecs*."""
    return (vecs * np.exp(1j * lam)) @ vecs.conj().T


# Eigenvector condition number below which a non-unitary log is taken as
# V diag(log w) V^{-1}, whose error grows with cond(V) (Higham, Functions of
# Matrices, SIAM 2008, ch. 4).  Slices above it, defective ones included, go
# to the inverse scaling and squaring of scipy.linalg.logm.
EIG_LOG_MAX_COND = 1e6


def _principal_logs(stack, unitary):
    """Principal logs of a stack of plain square matrices, shape (m, N, N).

    Unitary input takes the branch of ``unitary_spectrum``.  Non-unitary
    input with spectrum on the closed negative real axis is rejected; the
    first such slice names the reason.
    """
    if unitary:
        d, theta, z = unitary_spectrum(stack)
        logd = np.log(np.abs(d)) + 1j * theta
        return (z * logd[:, None, :]) @ z.conj().swapaxes(-1, -2)
    w, v = np.linalg.eig(stack)
    size = np.abs(w)
    scale = np.maximum(1.0, size.max(axis=-1, keepdims=True))
    singular = np.any(size <= DEFAULT_TOL * scale, axis=-1)
    on_cut = np.any((w.real <= 0) & (np.abs(w.imag) <= DEFAULT_TOL * scale),
                    axis=-1)
    refused = np.flatnonzero(singular | on_cut)
    if refused.size:
        if singular[refused[0]]:
            raise SpectrumOnCutError("singular input: 0 is in the spectrum")
        raise SpectrumOnCutError(
            "spectrum touches the negative real axis; principal log undefined")
    logs = np.empty(stack.shape, dtype=np.complex128)
    by_eig = np.linalg.cond(v) < EIG_LOG_MAX_COND
    v_eig = v[by_eig]
    logs[by_eig] = ((v_eig * np.log(w[by_eig])[:, None, :])
                    @ np.linalg.inv(v_eig))
    for i in np.flatnonzero(~by_eig):  # ill-conditioned or defective
        logs[i] = scipy.linalg.logm(stack[i])
    if not np.all(np.isfinite(logs)):
        raise NumericFailureError("matrix logarithm did not converge")
    return logs


def mat_log(g):
    """Principal logarithm of a group element.

    Unitary elements are always accepted (ties at -1 resolve to +pi); other
    elements must have spectrum avoiding the closed negative real half-line.
    The round trip exp(log g) = g is verified to 1e-9 relative.
    """
    mat = g.matrix
    unitary = g.group_tag in ("U", "Up") or g.is_unitary()
    flat = mat.to_flat()
    logs = _principal_logs(flat.reshape((-1,) + flat.shape[-2:]),
                           unitary).reshape(flat.shape)
    if mat.algebra.kind == SCALAR_REAL:
        if np.max(np.abs(np.imag(logs))) > 1e-9:
            raise SpectrumOnCutError(
                "no real logarithm: spectrum requires a complex branch")
        logs = np.real(logs)
    out = MatrixOverAlgebra.from_flat(mat.algebra, mat.n, logs)
    back = mat_exp(out)
    err = (back.matrix - mat).op_norm()
    if err > 1e-9 * (1.0 + mat.op_norm()):
        raise NumericFailureError(f"exp(log g) missed g by {err:.3g}")
    return out


# ---------------------------------------------------------------------------
# JSON serialization


def _value_to_json(value):
    v = np.asarray(value)
    if np.iscomplexobj(v):
        return np.stack([v.real, v.imag], axis=-1).tolist()
    return v.tolist()


def _value_from_json(obj, algebra):
    arr = np.asarray(obj, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    if algebra.dtype == np.complex128:
        if arr.shape[-1:] != (2,):
            raise ValueError("complex values must be [real, imag] pairs")
        return arr[..., 0] + 1j * arr[..., 1]
    return arr


def algebra_to_json(algebra):
    doc = {"kind": algebra.kind}
    if algebra.kind == MATRIX:
        doc["k"] = algebra.k
    if algebra.kind == FUNCTIONS:
        doc["vertices"] = algebra.vertices
        doc["edges"] = [list(e) for e in algebra.edges]
    return doc


def algebra_from_json(doc):
    kind = doc["kind"]
    if kind == MATRIX:
        return matrix_algebra(doc["k"])
    if kind == FUNCTIONS:
        return function_algebra(doc["vertices"], doc.get("edges", []))
    return BanachAlgebra(kind)


def matrix_to_json(x):
    return {
        "algebra": algebra_to_json(x.algebra),
        "n": x.n,
        "entries": _value_to_json(x.data),
    }


def matrix_from_json(doc):
    algebra = algebra_from_json(doc["algebra"])
    x = MatrixOverAlgebra(algebra, _value_from_json(doc["entries"], algebra))
    if x.n != doc["n"]:
        raise ValueError(f"entries are {x.n}x{x.n} but n is {doc['n']}")
    return x


def group_to_json(g):
    doc = matrix_to_json(g.matrix)
    doc["group_tag"] = g.group_tag
    return doc


def group_from_json(doc):
    return GroupElement(matrix_from_json(doc), doc.get("group_tag", "GL"))
