"""Finite-dimensional unital Banach algebras and the exp/log calculus over them.

Three concrete algebra kinds are supported:

* ``scalar-complex`` / ``scalar-real`` -- the base field with absolute value;
* ``matrix(k)`` -- k-by-k complex matrices with the operator (spectral) norm;
* ``functions-on-graph`` -- complex functions sampled on the vertices of a
  finite graph, pointwise operations, sup norm over vertices.  Connected
  components of the graph play the role of connected components of the
  underlying compact space.

Matrices over an algebra carry the operator norm of X acting on the l1-sum
of n copies of the algebra, computed as max over columns j of
sum_i |X_ij|_A.  The column-sum formula is exact when entries act by
multiplication on a commutative or scalar algebra and is an upper bound
otherwise.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
import scipy.linalg
from numpy.linalg import _umath_linalg
from scipy.linalg._matfuncs import _maybe_real
from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

DEFAULT_TOL = 1e-9

SCALAR_COMPLEX = "scalar-complex"
SCALAR_REAL = "scalar-real"
MATRIX = "matrix"
FUNCTIONS = "functions-on-graph"

GROUP_TAGS = ("GL", "SL", "En", "U")


class SpectrumOnCutError(ValueError):
    """Raised when a principal logarithm is requested for a non-unitary
    element with spectrum touching the closed negative real half-line."""


class NumericFailureError(RuntimeError):
    """Raised when exp/log evaluation fails to reproduce its input within
    tolerance (non-convergence or ill conditioning)."""


def is_integer(value):
    """An int or a numpy integer, but not a bool: a JSON true or false is
    never read as 1 or 0."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def in_order(lower, upper):
    """The one order rule of every inequality the library checks, from a
    bracket's two bounds to a chain's steps against its constant: lower <=
    upper up to 1e-9 (1 + upper)."""
    return lower <= upper + 1e-9 * (1.0 + upper)


def graph_edges(vertices, edges):
    """The edges of a graph on ``vertices`` vertices as a tuple of int pairs.
    ValueError on fewer than one vertex, on edges that are not a list of
    pairs, and on a non-integer or out-of-range endpoint or a self-loop: a
    float endpoint is never truncated to a vertex."""
    if not (is_integer(vertices) and vertices >= 1):
        raise ValueError(f"a graph needs at least one vertex, not {vertices!r}")
    if not (isinstance(edges, (list, tuple)) and all(
            isinstance(e, (list, tuple)) and len(e) == 2 for e in edges)):
        raise ValueError(f"edges must be a list of [u, v] pairs, not "
                         f"{edges!r:.40}")
    for u, v in edges:
        if not (is_integer(u) and is_integer(v)):
            raise ValueError(f"edge ({u},{v}) has a non-integer endpoint")
        if not (0 <= u < vertices and 0 <= v < vertices):
            raise ValueError(f"edge ({u},{v}) out of range")
        if u == v:
            raise ValueError(f"edge ({u},{v}) is a self-loop")
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
    adjacent = [[] for _ in range(n_vertices)]
    for k, (u, v) in enumerate(ends.tolist()):
        adjacent[u].append((v, k))
        adjacent[v].append((u, k))
    labels = [-1] * n_vertices
    nontree = [True] * len(ends)
    tree = []
    # the generator reads ``labels`` as it goes: it yields each root unlabelled
    for label, root in enumerate(r for r in range(n_vertices) if labels[r] < 0):
        labels[root] = label
        queue = [root]
        for u in queue:  # the loop also reaches the vertices appended below
            for v, k in sorted(adjacent[u]):
                if labels[v] < 0:
                    labels[v] = label
                    nontree[k] = False
                    tree.append((u, v))
                    queue.append(v)
    return (np.array(labels, dtype=np.intp),
            np.array(tree, dtype=np.intp).reshape(-1, 2),
            ends[np.array(nontree, dtype=bool)])


def connected_components(n_vertices, edges):
    """Component label of each vertex, as a list; numbered by smallest vertex."""
    return spanning_forest(n_vertices, edges)[0].tolist()


# The index arrays of a sampled space: edge tails and heads, component labels,
# and the tree and non-tree (tail, head) rows of ``spanning_forest``.
SpaceGraph = namedtuple("SpaceGraph", "tails heads labels tree nontree")


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
        if self.kind == MATRIX and not (
                is_integer(self.k) and self.k >= 1):
            raise ValueError(f"matrix algebra needs an integer k >= 1, not "
                             f"{self.k!r}")
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

    def identity_data(self, n):
        """The n-by-n identity matrix over the algebra in data layout: one
        read-only array per n, made on first use and kept on the algebra."""
        data = self._identities.get(n)
        if data is None:
            data = np.zeros((n, n) + self.value_shape(), dtype=self.dtype)
            data[range(n), range(n)] = self.unit_value()
            data.setflags(write=False)
            self._identities[n] = data
        return data

    @cached_property
    def _identities(self):
        return {}

    def zero_value(self):
        if self.kind in (SCALAR_COMPLEX, SCALAR_REAL):
            return self.dtype(0)
        return np.zeros(self.value_shape(), dtype=self.dtype)

    def norm(self, value):
        """Norm of a value, or of each value in a stack along the leading axes:
        |.| for scalars, spectral norm for matrix(k), sup over vertices."""
        if self.kind == MATRIX:
            return np.linalg.norm(value, 2, axis=(-2, -1))
        if self.kind == FUNCTIONS:
            return np.abs(value).max(axis=-1)
        return np.abs(value)

    def mul(self, a, b):
        if self.kind == MATRIX:
            return np.asarray(a) @ np.asarray(b)
        return np.asarray(a) * np.asarray(b)

    @cached_property
    def graph(self):
        """The read-only SpaceGraph of a function algebra, from one BFS."""
        if self.kind != FUNCTIONS:
            raise ValueError("a graph is defined for function algebras only")
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        arrays = (*ends.T, *spanning_forest(self.vertices, ends))
        return SpaceGraph(*map(read_only, arrays))

    def random_value(self, rng):
        return random_stack(self, 1, 1, rng)[0, 0, 0]


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


def stack_to_flat(algebra, data):
    """Matrix data, (n, n) + entry shape, as the plain square matrices on
    which every product, adjoint, exp/log, inverse and det acts: (n, n) for
    scalars, (nk, nk) for matrix(k), (V, n, n) for function algebras.  Leading
    stack axes are kept.  With ``stack_from_flat``, the one home of the
    per-kind layout."""
    if algebra.kind == MATRIX:
        n, k = data.shape[-4], algebra.k
        return data.swapaxes(-3, -2).reshape(data.shape[:-4] + (n * k, n * k))
    if algebra.kind == FUNCTIONS:
        return data.swapaxes(-1, -3).swapaxes(-1, -2)
    return data


def stack_from_flat(algebra, n, flat):
    """The matrix data of n-by-n matrices from their flat form, leading stack
    axes kept: the inverse of ``stack_to_flat``."""
    if algebra.kind == MATRIX:
        k = algebra.k
        return flat.reshape(flat.shape[:-2] + (n, k, n, k)).swapaxes(-3, -2)
    if algebra.kind == FUNCTIONS:
        return flat.swapaxes(-3, -1).swapaxes(-3, -2)
    return flat


def random_stack(algebra, n, count, rng):
    """``count`` random n-by-n matrices in data layout, in one generator
    call: standard normal parts, for each entry in turn its real parts, then
    its imaginary ones.  The one sampler of random values: ``count`` drawn at
    once are the ``count`` drawn one by one."""
    if algebra.kind == SCALAR_REAL:
        return rng.standard_normal((count, n, n) + algebra.value_shape())
    parts = rng.standard_normal((count, n, n, 2) + algebra.value_shape())
    return parts[:, :, :, 0] + 1j * parts[:, :, :, 1]


def _raise_singular(error, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _raise_unconverged(error, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def inv_stack(a):
    """``np.linalg.inv(a)`` of a float64 or complex128 stack (..., n, n),
    byte for byte and with its LinAlgError on a singular matrix, through
    numpy's own gufunc without the Python checks of the public wrapper:
    the stacked kernels call it on every re-split."""
    char = a.dtype.char
    with np.errstate(call=_raise_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.inv(a, signature=f"{char}->{char}")


def eig_stack(a):
    """``np.linalg.eig(a)`` of a finite float64 or complex128 stack, byte
    for byte and layout for layout, through numpy's own gufunc as
    ``inv_stack`` does: (w, v), real views when a is real and every
    eigenvalue of the stack is, complex otherwise."""
    with np.errstate(call=_raise_unconverged, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        w, v = _umath_linalg.eig(a, signature=f"{a.dtype.char}->DD")
    if a.dtype == np.float64 and not w.imag.any():
        return w.real, v.real
    return w, v


def op_norms(entry_norms):
    """Operator norm on the l1-sum A^n from the entry norms of a matrix,
    (n, n), or of each matrix in a stack, (..., n, n): the max over columns
    of the summed entry norms.  Even the no-refusal path of a re-split
    (see ``stacked_logs``) calls it several times, so it goes to the two
    ufunc reductions directly, with the bytes of
    ``entry_norms.sum(axis=-2).max(axis=-1)``."""
    return np.maximum.reduce(np.add.reduce(entry_norms, axis=-2), axis=-1)


@dataclass(frozen=True, eq=False)
class MatrixOverAlgebra:
    """An n-by-n matrix with entries in a Banach algebra.

    Data layout: scalar algebras store (n, n); the matrix(k) algebra stores
    (n, n, k, k); function algebras store (n, n, V).  Entry (i, j) is
    ``data[i, j]`` in all cases.  ``data`` is a read-only view: every
    operation builds a new matrix.
    """

    algebra: BanachAlgebra
    data: object
    n: int = field(init=False)

    def __post_init__(self):
        data = read_only(self.data, self.algebra.dtype)
        expected_ndim = 2 + len(self.algebra.value_shape())
        if data.ndim != expected_ndim or data.shape[0] != data.shape[1]:
            raise ValueError(f"bad matrix data shape {data.shape}")
        if data.shape[2:] != self.algebra.value_shape():
            raise ValueError(
                f"entry shape {data.shape[2:]} does not match algebra")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "n", data.shape[0])

    # -- constructors ------------------------------------------------------
    @classmethod
    def identity(cls, algebra, n):
        return cls(algebra, algebra.identity_data(n))

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
        if n < 1:
            raise ValueError(f"matrix size n must be >= 1, got {n}")
        return cls(algebra, scale * random_stack(algebra, n, 1, rng)[0])

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
    def op_norm(self):
        """Operator norm of X on the l1-sum A^n: max column sum of entry
        norms.  Exact for scalar and commutative algebras, an upper bound
        otherwise."""
        return float(op_norms(self.entry_norms()))

    # -- flat (numeric) representation --------------------------------------
    def to_flat(self):
        """The plain square matrices the matrix acts as (see
        ``stack_to_flat``)."""
        return stack_to_flat(self.algebra, self.data)

    @classmethod
    def from_flat(cls, algebra, n, flat):
        return cls(algebra, stack_from_flat(algebra, n, flat))

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
    group (GL, SL, En, U).  Invariants are checked to ``DEFAULT_TOL``."""

    matrix: MatrixOverAlgebra
    group_tag: str = "GL"
    validate: bool = True

    def __post_init__(self):
        if self.group_tag not in GROUP_TAGS:
            raise ValueError(f"unknown group tag {self.group_tag!r}")
        if self.validate:
            self.check_invariants()

    def check_finite(self):
        if not np.all(np.isfinite(self.matrix.data)):
            raise ValueError("entries must be finite")

    def check_invariants(self):
        self.check_finite()
        g = self.matrix
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
        if self.group_tag == "U" and not self.is_unitary():
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


_EXP_NOT_FINITE = "matrix exponential did not converge"
_EXP_ABOVE_BOUND = "|exp(X)| exceeds e^{|X|}: numeric failure"
_NOT_DIAGONAL = "unitary input failed to diagonalize"
_NO_REAL_LOG = "no real logarithm: spectrum requires a complex branch"


def _exceeds_exp_bound(norm, exp_norm):
    """|exp X| above e^{|X|} beyond rounding, elementwise, at every |X|:
    an e^{|X|} past the float range bounds nothing."""
    with np.errstate(over="ignore"):
        return exp_norm > np.exp(norm) * (1.0 + 1e-9) + 1e-12


def _misses_round_trip(err, norm):
    """|exp(log g) - g| above 1e-9 (1 + |g|), elementwise."""
    return err > 1e-9 * (1.0 + norm)


def _round_trip_error(err):
    return NumericFailureError(f"exp(log g) missed g by {err:.3g}")


@cache
def _band_columns(n):
    """Two columns over the entries of a flattened n x n slice: its strictly
    lower and its strictly upper triangle."""
    lower = np.tri(n, k=-1, dtype=bool)
    return read_only(np.stack([lower.ravel(), lower.T.ravel()], axis=1))


def _expm(a):
    """``scipy.linalg.expm(a)`` of a float64 or complex128 stack (..., n, n),
    byte for byte, with less Python per slice.

    This is the loop of scipy 1.17's ``scipy.linalg._matfuncs.expm``, the
    scaling and squaring method of Al-Mohy and Higham (SIAM J. Matrix Anal.
    Appl. 31, 2009), over scipy's own Cython kernels.  One band mask sorts
    the slices.  Diagonal and triangular ones go to ``scipy.linalg.expm`` in
    one call, so its special branches stay the only copy.  Each generic
    slice takes ``pick_pade_structure`` and ``pade_UV_calc``, then its s
    squarings, stacked level by level.  A slice
    the kernels fail on goes back to ``scipy.linalg.expm``, which raises
    its own error.  The workspace is the call's own, so concurrent calls
    need no lock."""
    stack = a.reshape((-1,) + a.shape[-2:])
    band = (stack != 0).reshape(len(stack), -1) @ _band_columns(a.shape[-1])
    generic = np.logical_and.reduce(band, axis=1)
    rows = generic.nonzero()[0]
    out = np.empty(stack.shape, dtype=stack.dtype)
    if len(rows) < len(stack):
        out[~generic] = scipy.linalg.expm(stack[~generic])
    squarings = []
    work = np.empty((5,) + a.shape[-2:], dtype=a.dtype)
    for row in rows.tolist():
        work[0] = stack[row]
        m, s = pick_pade_structure(work)
        if m < 0 or pade_UV_calc(work, m) != 0:
            out[row] = scipy.linalg.expm(stack[row])
            s = 0
        else:
            out[row] = work[0]
        squarings.append(s)
    for level in range(1, max(squarings, default=0) + 1):
        due = rows[np.asarray(squarings) >= level]
        out[due] = out[due] @ out[due]
    return out.reshape(a.shape)


def mat_exp(x):
    """exp(X) as a GL group element, by ``_expm`` over the flat form (one
    slice per vertex for a function algebra).  Verifies |exp(X)| <=
    e^{|X|}."""
    flat = _expm(x.to_flat())
    if not np.all(np.isfinite(flat)):
        raise NumericFailureError(_EXP_NOT_FINITE)
    mat = MatrixOverAlgebra.from_flat(x.algebra, x.n, flat)
    if _exceeds_exp_bound(x.op_norm(), mat.op_norm()):
        raise NumericFailureError(_EXP_ABOVE_BOUND)
    return GroupElement(mat, validate=False)


def _frobenius(x):
    """The Frobenius norm of each matrix of a stack (..., n, n): the bytes
    of ``np.linalg.norm(x, axis=(-2, -1))``, with no Python in between."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=(-2, -1)))


def unitary_spectrum(m):
    """Eigen-decomposition of a unitary, or of each unitary in a stack along
    the leading axes, through its Schur form: returns (eigenvalues, angles,
    vecs, diagonal) with m = vecs diag(eigenvalues) vecs* wherever the bool
    ``diagonal`` holds.  It fails, matrix by matrix, where the Schur form is
    not diagonal to 1e-8: that input is not unitary.

    This is the one home of the principal branch: angles lie in (-pi, pi]
    and an eigenvalue at -1 is resolved to +pi.
    """
    m = np.asarray(m).astype(np.complex128)
    t, z = scipy.linalg.schur(m, output="complex")
    d = np.diagonal(t, axis1=-2, axis2=-1)
    off = t - d[..., None] * np.eye(t.shape[-1])
    size = np.maximum(1.0, _frobenius(t))
    diagonal = ~(_frobenius(off) > 1e-8 * size)
    theta = np.where(np.abs(d + 1.0) <= 1e-12, np.pi, np.angle(d))
    return d, theta, z, diagonal


def spectral(values, vecs):
    """V f(Lambda) V*, the function f of a normal matrix V Lambda V*, from
    ``values`` = f(Lambda) and ``vecs`` = V, either with leading stack axes
    that broadcast: e^{ia} is ``spectral(np.exp(1j * lam), V)``.  The one
    place the library writes V f(Lambda) V*."""
    return (vecs * values[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


# The eigenvector condition number from which a non-unitary log leaves
# V diag(log w) V^{-1}, whose error grows with cond(V) (Higham, Functions of
# Matrices, SIAM 2008, ch. 4), for the inverse scaling and squaring of
# ``_schur_log``: the rule is ``_eig_logs``'.
EIG_LOG_MAX_COND = 1e6

# scipy's own singular rule for the inverse scaling and squaring log: a
# Schur diagonal entry below it in modulus makes scipy warn
# (``_matfuncs_inv_ssq._logm_force_nonsingular_triangular_matrix``)
SCHUR_LOG_MIN_DIAGONAL = 1e-20


def _eig_logs(stack, w, v):
    """Principal logs of a stack of plain square matrices, given their
    eigenvalues w, which avoid 0 and the closed negative real axis, and
    eigenvectors v: V diag(log w) V^{-1} where cond(V) < EIG_LOG_MAX_COND,
    ``_schur_log`` on the other slices.

    This is the one conditioning rule of a non-unitary log: cond(V) is the
    2-norm condition number ``np.linalg.cond`` gives, and the decision is
    the one it makes.  Since cond(V) <= |V|_F |V^{-1}|_F (for n = 2 the
    bound is cond + 1/cond), a slice whose bound, from one inverse of the
    stack, lies below half of EIG_LOG_MAX_COND is taken with no SVD: the
    factor 2 stands far above the rounding of both the bound and the SVD
    at that size.  ``np.linalg.cond`` judges the others, and the whole
    stack when one V is singular.

    The no-refusal path: when every V is well conditioned, the usual case,
    the logs are one expression over the whole stack, with no gather or
    scatter, and they are real when w and v are.  Otherwise they are
    complex, and each slice keeps the bytes that path gives it."""
    by_eig, inverses = _well_conditioned(v)
    if by_eig.all():
        return (v * np.log(w)[:, None, :]) @ inverses
    logs = np.empty(stack.shape, dtype=np.complex128)
    logs[by_eig] = ((v[by_eig] * np.log(w[by_eig])[:, None, :])
                    @ inverses[by_eig])
    for i in (~by_eig).nonzero()[0].tolist():  # ill-conditioned or defective
        logs[i] = _schur_log(stack[i])
    return logs


def _schur_log(a):
    """The principal log of one plain square matrix by scipy's inverse
    scaling and squaring: ``scipy.linalg.logm`` with no accuracy estimate
    (the round trip judges accuracy), or NaN, a log that did not converge.

    The verdict does not depend on the warning filters: the slice is
    refused before scipy's log is called when the triangular form that
    ``_matfuncs_inv_ssq._logm`` takes (a itself when upper triangular,
    else its complex Schur form, by the same calls) has a diagonal entry
    below SCHUR_LOG_MIN_DIAGONAL in modulus, where scipy would warn; then
    ``_logm`` and ``_maybe_real`` give the bytes ``logm`` returns."""
    if np.array_equal(a, np.triu(a)):
        diagonal = np.diag(a)
    elif np.isrealobj(a):
        t, z = scipy.linalg.schur(a)
        if not np.array_equal(t, np.triu(t)):
            t, z = scipy.linalg.rsf2csf(t, z)
        diagonal = np.diag(t)
    else:
        diagonal = np.diag(scipy.linalg.schur(a, output="complex")[0])
    if np.any(np.abs(diagonal) < SCHUR_LOG_MIN_DIAGONAL):
        return np.nan
    # imported here, as scipy's logm does: it loads scipy.special, several
    # MB that a run with no ill-conditioned slice never needs
    from scipy.linalg._matfuncs_inv_ssq import _logm
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _maybe_real(a, _logm(a))
    except Exception:
        # the log overflowed inside: scipy then raises a ValueError or a
        # bare Exception ("U is not upper triangular")
        return np.nan


def _well_conditioned(v):
    """(by_eig, inverses): per V of a stack, whether
    ``np.linalg.cond(V) < EIG_LOG_MAX_COND``, by the rule of ``_eig_logs``,
    and a stack that holds V^{-1} wherever it does."""
    try:
        inverses = inv_stack(v)
    except np.linalg.LinAlgError:  # a singular V: every slice goes by SVD
        by_eig = np.linalg.cond(v) < EIG_LOG_MAX_COND
        inverses = np.zeros_like(v)
        inverses[by_eig] = inv_stack(v[by_eig])
        return by_eig, inverses
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _frobenius(v) * _frobenius(inverses)
    by_eig = bound < EIG_LOG_MAX_COND / 2
    if not by_eig.all():
        rest = ~by_eig
        by_eig[rest] = np.linalg.cond(v[rest]) < EIG_LOG_MAX_COND
    return by_eig, inverses


def _unitary_logs(stack, per):
    """Principal logs of unitary slices, on the branch of
    ``unitary_spectrum``, and the refusal of each slice that fails to
    diagonalize, by position.  ``per`` (slices to an element) is unused: a
    unitary log costs the same refused or not."""
    d, theta, z, diagonal = unitary_spectrum(stack)
    logs = spectral(np.log(np.abs(d)) + 1j * theta, z)
    return logs, {i: NumericFailureError(_NOT_DIAGONAL)
                  for i in (~diagonal).nonzero()[0].tolist()}


_FLOAT_MAX = float(np.finfo(np.float64).max)


def _general_logs(stack, per):
    """Principal logs of slices, ``per`` to an element, and the refusal of
    each slice with 0 or a point of the closed negative real axis in its
    spectrum, by position.  Every slice of a refused element is left at 0.
    0 is in it when |lambda| < max(1, |lambda|_max) / the largest float.
    A stack with no refused slice and one kind of spectrum, real or
    complex, goes to ``_eig_logs`` whole, and its reasons are an empty
    dict."""
    w, v = eig_stack(stack)
    size = np.abs(w)
    scale = np.maximum(1.0, np.maximum.reduce(size, axis=-1, keepdims=True))
    singular = size < scale / _FLOAT_MAX
    refused = singular | ((w.real <= 0)
                          & (np.abs(w.imag) <= DEFAULT_TOL * scale))
    # eig makes a real stack complex once one slice has a complex
    # eigenvalue; a real spectrum keeps the real arithmetic that eig gives
    # it alone
    mixed = stack.dtype == np.float64 and w.dtype == np.complex128
    if not (mixed or refused.any()):
        return _eig_logs(stack, w, v), {}
    singular = np.logical_or.reduce(singular, axis=-1)
    refused = np.logical_or.reduce(refused, axis=-1)
    reasons = {i: SpectrumOnCutError(
        "singular input: 0 is in the spectrum" if singular[i] else
        "spectrum touches the negative real axis; principal log undefined")
        for i in refused.nonzero()[0].tolist()}
    logs = np.zeros(stack.shape, dtype=np.complex128)
    dropped = refused.reshape(-1, per).any(axis=1)
    if dropped.all():
        return logs, reasons
    take = ~np.repeat(dropped, per)
    if mixed:
        real = take & ~np.any(w.imag, axis=-1)
        logs[real] = _eig_logs(stack[real], w[real].real, v[real].real)
        take &= ~real
    logs[take] = _eig_logs(stack[take], w[take], v[take])
    return logs, reasons


def _principal_logs(stack, unitary):
    """Principal logs of a stack of elements, each a stack of plain square
    matrices: shape (m, S, N, N).  Returns the logs, the verdicts and the
    stack with each non-finite element replaced by the identity.  A verdict
    is None, or the error that refuses the element: "non-finite input" for
    a NaN or infinite entry, else that of its first refused slice, else, on
    a float64 stack, "no real logarithm" for a log with an imaginary part
    above 1e-9.  A refused element takes no log (its entries are left at
    0), and the logs of a float64 stack are real.

    Elements where ``unitary`` (a bool per element) holds take the branch
    of ``unitary_spectrum``.  The others are refused when 0 is in the
    spectrum of a slice or the spectrum touches the closed negative real
    axis.
    """
    count, per = stack.shape[:2]
    finite = np.isfinite(stack)
    if finite.all():
        verdicts = [None] * count
    else:
        finite = finite.reshape(count, -1).all(axis=-1)
        stack = np.where(_each(finite, stack), stack, np.eye(stack.shape[-1]))
        verdicts = [None if ok else NumericFailureError("non-finite input")
                    for ok in finite.tolist()]
    slices = stack.reshape((-1,) + stack.shape[-2:])
    units = np.count_nonzero(unitary)
    if units in (0, count):
        branch = _unitary_logs if units else _general_logs
        logs, reasons = branch(slices, per)
    else:
        logs = np.zeros(slices.shape, dtype=np.complex128)
        reasons = {}
        unitary = np.asarray(unitary)
        for chosen, branch in ((unitary, _unitary_logs),
                               (~unitary, _general_logs)):
            index = np.repeat(chosen, per).nonzero()[0]
            logs[index], part = branch(slices[index], per)
            reasons.update((index[i], error) for i, error in part.items())
    finite = np.isfinite(logs)
    if not finite.all():
        for i in (~finite.all(axis=(-2, -1))).nonzero()[0].tolist():
            reasons.setdefault(i, NumericFailureError(
                "matrix logarithm did not converge"))
    for i in sorted(reasons):
        if verdicts[i // per] is None:
            verdicts[i // per] = reasons[i]
    logs = logs.reshape(stack.shape)
    if stack.dtype == np.float64 and logs.dtype == np.complex128:
        imag = np.maximum.reduce(np.abs(logs.imag).reshape(count, -1),
                                 axis=-1)
        _refuse(verdicts, imag > 1e-9,
                lambda t: SpectrumOnCutError(_NO_REAL_LOG))
        logs = logs.real
    if any(verdicts):  # an error is true, None is false
        logs[[v is not None for v in verdicts]] = 0.0
    return logs, verdicts, stack


def mat_log(g):
    """Principal logarithm of a group element.

    Unitary elements are always accepted (ties at -1 resolve to +pi); other
    elements must have spectrum avoiding the closed negative real half-line.
    The round trip exp(log g) = g is verified to 1e-9 relative.  Over a
    function algebra, the first refused vertex names the reason.
    """
    mat = g.matrix
    unitary = g.group_tag == "U" or g.is_unitary()
    flat = mat.to_flat()
    logs, (refused,), _ = _principal_logs(
        flat.reshape((1, -1) + flat.shape[-2:]), [unitary])
    if refused is not None:
        raise refused
    out = MatrixOverAlgebra.from_flat(mat.algebra, mat.n,
                                      logs.reshape(flat.shape))
    back = mat_exp(out)
    err = (back.matrix - mat).op_norm()
    if _misses_round_trip(err, mat.op_norm()):
        raise _round_trip_error(err)
    return out


# ---------------------------------------------------------------------------
# the same, over a stack of elements, with a verdict per element


def _refuse(verdicts, failed, error):
    """Refuse, with ``error(t)``, each element t where ``failed`` holds and
    that no earlier check refused; nothing is done when nothing failed."""
    for t in failed.nonzero()[0].tolist():
        if verdicts[t] is None:
            verdicts[t] = error(t)


def _each(mask, stack):
    """A per-element mask shaped to broadcast against a stack."""
    return mask.reshape(mask.shape + (1,) * (stack.ndim - 1))


def mat_exps(algebra, n, flats):
    """``mat_exp`` of each matrix in a stack given in flat form, shape
    (m,) + the ``stack_to_flat`` shape, with its checks element by element.

    Returns the exponentials in the same form (a non-finite one replaced by
    the identity), and per element None, or the error ``mat_exp`` raises on
    that element.  The norms of the matrices and of their exponentials are
    one ``op_norms`` call, each the bytes of its own.
    """
    count = len(flats)
    verdicts = [None] * count
    exps = _expm(flats)
    finite = np.isfinite(exps)
    if not finite.all():
        finite = finite.reshape(count, -1).all(axis=-1)
        _refuse(verdicts, ~finite,
                lambda t: NumericFailureError(_EXP_NOT_FINITE))
        ident = stack_to_flat(algebra, algebra.identity_data(n))
        exps = np.where(_each(finite, exps), exps, ident)
    norms = op_norms(algebra.norm(stack_from_flat(
        algebra, n, np.concatenate([flats, exps]))))
    _refuse(verdicts, _exceeds_exp_bound(norms[:count], norms[count:]),
            lambda t: NumericFailureError(_EXP_ABOVE_BOUND))
    return exps, verdicts


def stacked_logs(algebra, n, flats, unitary):
    """The principal log of each element of a stack given in flat form,
    shape (m,) + the ``stack_to_flat`` shape, with every refusal of
    ``mat_log`` that comes before its round trip, the refusal of non-finite
    input included; ``round_trips`` takes the rest of its checks.

    ``unitary`` says every element is tagged U; otherwise each one is
    tested as ``GroupElement.is_unitary`` tests it.  Returns (logs,
    verdicts, targets): the logs in flat form, per element None or the
    error that refuses it, and the stack with each non-finite element
    replaced by the identity, for ``round_trips`` to measure against (the
    matrix-kind norm of a NaN fails in svd).  Entries of a refused element
    mean nothing.

    The path of a stack with no refused slice, finite entries and every
    eigenvector matrix well conditioned (see ``_eig_logs``) builds no
    matrix object, no reasons and no mask over the stack: its cost is the
    eig, two inverses and a few whole-stack ufunc calls.
    """
    count = len(flats)
    if unitary:
        unit = np.ones(count, dtype=bool)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = flats.conj().swapaxes(-1, -2) @ flats
            res = stack_from_flat(algebra, n, gram) - algebra.identity_data(n)
            finite = np.isfinite(res)
            if finite.all():
                unit = op_norms(algebra.norm(res)) <= DEFAULT_TOL
            else:
                unit = finite.reshape(count, -1).all(axis=-1)
                res = np.where(_each(unit, res), res, 0.0)
                unit &= op_norms(algebra.norm(res)) <= DEFAULT_TOL
    logs, verdicts, targets = _principal_logs(
        flats.reshape((count, -1) + flats.shape[-2:]), unit)
    return logs.reshape(flats.shape), verdicts, targets.reshape(flats.shape)


def round_trips(algebra, n, logs, targets):
    """The round trip of ``mat_log`` over a stack: ``mat_exps`` of logs in
    flat form, and the refusal of each log whose exponential misses its
    target g by more than 1e-9 (1 + |g|).  Returns (exps, verdicts) as
    ``mat_exps`` does."""
    count = len(logs)
    exps, verdicts = mat_exps(algebra, n, logs)
    data = stack_from_flat(algebra, n, targets)
    norms = op_norms(algebra.norm(np.concatenate([
        stack_from_flat(algebra, n, exps) - data, data])))
    err = norms[:count]
    _refuse(verdicts, _misses_round_trip(err, norms[count:]),
            lambda t: _round_trip_error(err[t]))
    return exps, verdicts


# ---------------------------------------------------------------------------
# JSON serialization


def _value_to_json(value):
    v = np.asarray(value)
    if np.iscomplexobj(v):
        return np.stack([v.real, v.imag], axis=-1).tolist()
    return v.tolist()


def finite_floats(values, what):
    """``values`` as a float array.  ValueError naming ``what`` unless they
    are a (non-ragged) array of finite real numbers: a string, bool, null or
    object among them is a wrong type, never read as a number."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting
        array = None
    if array is None or array.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be an array of numbers, not "
                         f"{values!r:.40}")
    array = array.astype(float, copy=False)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{what} must be finite")
    return array


def _value_from_json(obj, algebra):
    arr = finite_floats(obj, "values")
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


def json_fields(doc, what, *keys):
    """The values of ``keys`` in the JSON object ``doc``, in order.
    ValueError naming ``what`` when ``doc`` is not an object or lacks a key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {doc!r:.40}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} lacks the key {key!r}")
    return [doc[key] for key in keys]


def algebra_from_json(doc):
    (kind,) = json_fields(doc, "the algebra", "kind")
    if kind == MATRIX:
        return matrix_algebra(*json_fields(doc, "a matrix algebra", "k"))
    if kind == FUNCTIONS:
        (vertices,) = json_fields(doc, "a function algebra", "vertices")
        return function_algebra(vertices, doc.get("edges", []))
    return BanachAlgebra(kind)


def matrix_to_json(x):
    return {
        "algebra": algebra_to_json(x.algebra),
        "n": x.n,
        "entries": _value_to_json(x.data),
    }


def matrix_from_json(doc):
    algebra_doc, n, entries = json_fields(doc, "a matrix", "algebra", "n",
                                          "entries")
    algebra = algebra_from_json(algebra_doc)
    x = MatrixOverAlgebra(algebra, _value_from_json(entries, algebra))
    if x.n != n:
        raise ValueError(f"entries are {x.n}x{x.n} but n is {n}")
    return x


def group_to_json(g):
    doc = matrix_to_json(g.matrix)
    doc["group_tag"] = g.group_tag
    return doc


def group_from_json(doc):
    return GroupElement(matrix_from_json(doc), doc.get("group_tag", "GL"))
