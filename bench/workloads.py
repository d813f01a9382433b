"""The benchmark's three workloads.

Each workload turns a seed into a list of items (``generate``), runs one
item through the library's public API (``run``), and checks the outputs
with arithmetic of its own (``check``): certificate residuals are recomputed
with ``scipy.linalg.expm`` on the flat factors, norms and lower bounds are
recomputed from the raw entry arrays, and reference values come from the
generator, never from the library.  Every item of a workload makes the same
calls, so per-item times are not a mix of two populations.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from lielength import algebra, circle, explength, schatten

TOL = 1e-9


# ---------------------------------------------------------------------------
# norms and certificates, recomputed from the documented data layout:
# scalars (n, n), matrix(k) entries (n, n, k, k), function samples (n, n, V)


def flat(m):
    """The plain square matrix (or per-vertex stack) that m acts as."""
    data, kind = m.data, m.algebra.kind
    if kind == algebra.MATRIX:
        n, k = data.shape[0], data.shape[2]
        return data.transpose(0, 2, 1, 3).reshape(n * k, n * k)
    if kind == algebra.FUNCTIONS:
        return data.transpose(2, 0, 1)
    return data


def flat_op_norm(kind, n, f):
    """Max over columns of the summed entry norms, from the flat layout."""
    if kind == algebra.MATRIX:
        k = f.shape[-1] // n
        blocks = f.reshape(n, k, n, k).transpose(0, 2, 1, 3)
        entries = np.linalg.norm(blocks, ord=2, axis=(2, 3))
    elif kind == algebra.FUNCTIONS:
        entries = np.abs(f).max(axis=0)
    else:
        entries = np.abs(f)
    return float(entries.sum(axis=0).max())


def op_norm(m):
    return flat_op_norm(m.algebra.kind, m.n, flat(m))


def lower_bound(g):
    """max(0, log|g|, log|g^-1|): the rigorous log-norm lower bound."""
    kind, n, f = g.algebra.kind, g.n, flat(g.matrix)
    norms = (flat_op_norm(kind, n, f), flat_op_norm(kind, n, np.linalg.inv(f)))
    return max(0.0, *(math.log(x) for x in norms))


def bracket_failures(label, bracket, g, budget):
    """Residual of the certificate against g, its sum of norms against the
    reported upper bound, and the order of the bracket."""
    kind, n, target = g.algebra.kind, g.n, flat(g.matrix)
    product = np.broadcast_to(np.eye(target.shape[-1]), target.shape)
    for x in bracket.certificate.factors:
        product = product @ scipy.linalg.expm(flat(x))
    residual = flat_op_norm(kind, n, product - target)
    allowed = budget.residual_tol * (1.0 + flat_op_norm(kind, n, target))
    fails = []
    if not residual <= allowed:
        fails.append(f"{label}: certificate residual {residual:.3g} > {allowed:.3g}")
    total = sum(op_norm(x) for x in bracket.certificate.factors)
    if not abs(total - bracket.upper) <= TOL * (1.0 + total):
        fails.append(f"{label}: upper {bracket.upper!r} is not the certificate "
                     f"sum {total!r}")
    if not bracket.lower <= bracket.upper + TOL:
        fails.append(f"{label}: lower {bracket.lower!r} > upper {bracket.upper!r}")
    if not lower_bound(g) <= bracket.upper + TOL:
        fails.append(f"{label}: upper {bracket.upper!r} below the log-norm bound")
    return fails


def bracket_values(bracket):
    return [bracket.lower, bracket.upper]


def certificate_bytes(bracket):
    return b"".join(x.data.tobytes() for x in bracket.certificate.factors)


def pack(values):
    return struct.pack(f"<{len(values)}d", *values)


def _group(alg, flat_values, n):
    mat = algebra.MatrixOverAlgebra.from_flat(alg, n, np.asarray(flat_values))
    return algebra.GroupElement(mat, "GL", validate=False)


def _random_gl(n, rng):
    """Random invertible complex n-by-n element, as ``lielength el/rel
    --group gl<n>`` samples them."""
    alg = algebra.scalar_complex()
    while True:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x *= 0.7
        if np.min(np.abs(np.linalg.eigvals(x))) > 0.05:
            return _group(alg, x, n)


# ---------------------------------------------------------------------------
# search: optimized el on a unitary, rel then el on GL2, el on GL3


@dataclass
class SearchItem:
    index: int
    unitary: object
    exact: float
    gl2: object
    gl3: object


class Search:
    name = "search"
    pass_size = 30

    def __init__(self):
        self.budget = explength.EstimateBudget()

    def generate(self, seed):
        rng = np.random.default_rng([seed, 1])
        items = []
        for i in range(self.pass_size):
            k = 2 + i % 5
            a = schatten.random_selfadjoint(
                k, rng, operator_norm=rng.uniform(0.3, math.pi))
            lam, vecs = np.linalg.eigh(a)
            u = (vecs * np.exp(1j * lam)) @ vecs.conj().T
            mat = algebra.MatrixOverAlgebra(algebra.matrix_algebra(k),
                                            u[None, None])
            unitary = algebra.GroupElement(mat, "U", validate=False)
            items.append(SearchItem(i, unitary, float(np.max(np.abs(lam))),
                                    _random_gl(2, rng), _random_gl(3, rng)))
        return items

    def run(self, item):
        seed = item.index
        return {
            "u": explength.el_estimate(item.unitary, seed=seed),
            "rel": explength.rel_estimate(item.gl2, seed=seed),
            "gl2": explength.el_estimate(item.gl2, seed=seed),
            "gl3": explength.el_estimate(item.gl3, seed=seed),
        }

    def check(self, item, out):
        fails = []
        for label, g in (("u", item.unitary), ("gl2", item.gl2),
                         ("gl3", item.gl3)):
            fails += bracket_failures(label, out[label], g, self.budget)
        upper = out["u"].upper
        if not item.exact - TOL <= upper <= 1.05 * item.exact + TOL:
            fails.append(f"u: upper {upper!r} outside [exact, 1.05 exact], "
                         f"exact {item.exact!r}")
        if not out["rel"] <= out["gl2"].upper + TOL:
            fails.append(f"gl2: rel {out['rel']!r} > el upper {out['gl2'].upper!r}")
        return fails

    def brackets(self, item, out):
        return [(out["u"].upper, item.exact),
                (out["gl2"].upper, lower_bound(item.gl2)),
                (out["gl3"].upper, lower_bound(item.gl3))]

    def values(self, out):
        return (bracket_values(out["u"]) + [out["rel"]]
                + bracket_values(out["gl2"]) + bracket_values(out["gl3"]))

    def fingerprint(self, out):
        return pack(self.values(out)) + b"".join(
            certificate_bytes(out[k]) for k in ("u", "gl2", "gl3"))


# ---------------------------------------------------------------------------
# function_fields: quick el and rel on three GL2 fields over a path graph


@dataclass
class FieldItem:
    index: int
    smooth: object
    smooth_log_norm: float
    phase: object
    diagonal: object
    closed_form: float


class FunctionFields:
    name = "function_fields"
    pass_size = 40
    vertices = 25

    def __init__(self):
        self.budget = explength.EstimateBudget(optimize=False)

    def generate(self, seed):
        rng = np.random.default_rng([seed, 2])
        v = self.vertices
        alg = algebra.function_algebra(v, [(i, i + 1) for i in range(v - 1)])
        s = np.linspace(0.0, 1.0, v)
        items = []
        for i in range(self.pass_size):
            # exp(X(v)) with X smooth along the path and spectral norm <= r,
            # so the principal log recovers X at every vertex
            a, b = rng.standard_normal((2, 2, 2, 2)) @ [1.0, 1j]
            x = a + np.sin(math.pi * s + rng.uniform(0, 2 * math.pi))[:, None, None] * b
            top = max(np.linalg.norm(m, 2) for m in x)
            x *= rng.uniform(0.3, 0.8) / top
            smooth = _group(alg, scipy.linalg.expm(x), 2)
            x_norm = flat_op_norm(algebra.FUNCTIONS, 2, x)

            # P diag(rho e^{i theta(v)}, sigma) P^-1 with theta = pi exactly
            # at a middle vertex: the spectrum meets the cut there.  With
            # rho in [2.25, 2.5] the straight path from 1 crosses 0 at the
            # same step of every subdivision in every item.
            cut = v // 2 + int(rng.integers(-2, 3))
            theta = math.pi + (np.arange(v) - cut) * (0.8 * math.pi / v)
            rho, sigma = rng.uniform(2.25, 2.5), rng.uniform(0.8, 1.25)
            lam = rho * np.exp(1j * theta)
            lam[cut] = -rho
            p = np.eye(2) + 0.2 * (rng.standard_normal((2, 2, 2)) @ [1.0, 1j])
            p_inv = np.linalg.inv(p)
            phase = _group(alg, [p @ np.diag([z, sigma]) @ p_inv for z in lam], 2)

            d = np.exp(rng.uniform(-1.5, 1.5)
                       + 0.5 * np.sin(3.0 * s + rng.uniform(0, 2 * math.pi)))
            diag = np.zeros((v, 2, 2))
            diag[:, 0, 0], diag[:, 1, 1] = d, 1.0 / d
            diagonal = _group(alg, diag, 2)
            items.append(FieldItem(i, smooth, x_norm, phase, diagonal,
                                   float(np.max(np.abs(np.log(d))))))
        return items

    def run(self, item):
        out = {}
        for label in ("smooth", "phase", "diagonal"):
            g = getattr(item, label)
            out[label] = (
                explength.el_estimate(g, budget=self.budget, seed=item.index),
                explength.rel_estimate(g, budget=self.budget, seed=item.index))
        return out

    def check(self, item, out):
        fails = []
        for label, (bracket, rel) in out.items():
            fails += bracket_failures(label, bracket, getattr(item, label),
                                      self.budget)
            if not rel <= bracket.upper + TOL:
                fails.append(f"{label}: rel {rel!r} > el upper {bracket.upper!r}")
        smooth = out["smooth"][0]
        if not smooth.upper <= item.smooth_log_norm * (1 + TOL) + TOL:
            fails.append(f"smooth: upper {smooth.upper!r} above |X| "
                         f"{item.smooth_log_norm!r}")
        diagonal = out["diagonal"][0]
        for end in ("lower", "upper"):
            value = getattr(diagonal, end)
            if not abs(value - item.closed_form) <= 1e-6:
                fails.append(f"diagonal: {end} {value!r} misses the closed "
                             f"form {item.closed_form!r}")
        return fails

    def brackets(self, item, out):
        return [(out["smooth"][0].upper, lower_bound(item.smooth)),
                (out["phase"][0].upper, lower_bound(item.phase)),
                (out["diagonal"][0].upper, item.closed_form)]

    def values(self, out):
        return [x for bracket, rel in out.values()
                for x in bracket_values(bracket) + [rel]]

    def fingerprint(self, out):
        return pack(self.values(out)) + b"".join(
            certificate_bytes(bracket) for bracket, _ in out.values())


# ---------------------------------------------------------------------------
# circle_schatten: cel on a grid, a wound ring, and a Schatten set


def grid_edges(rows, cols):
    def at(r, c):
        return r * cols + c
    return ([(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
            + [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)])


def offset_norm(lift):
    """min over integers k of max |lift + k|, by scanning every k that can
    reach the minimum."""
    lo, hi = float(lift.min()), float(lift.max())
    return min(max(abs(lo + k), abs(hi + k))
               for k in range(math.floor(-hi) - 1, math.ceil(-lo) + 2))


@dataclass
class CircleItem:
    index: int
    phase: np.ndarray
    cel: float
    ring_phase: np.ndarray
    elements: list
    selfadjoints: list


class CircleSchatten:
    name = "circle_schatten"
    pass_size = 32
    rows = cols = 128
    ring_vertices = 12
    schatten_dim = 6
    schatten_set = 64
    kernel_index = 1
    chain_step = 1.0

    def __init__(self):
        self.context = schatten.SchattenContext(self.schatten_dim, 2)
        self.edges = grid_edges(self.rows, self.cols)
        self.space = circle.DiscretizedSpace(self.rows * self.cols, self.edges)
        ring = self.ring_vertices
        self.ring_space = circle.DiscretizedSpace(
            ring, [(j, (j + 1) % ring) for j in range(ring)])

    def generate(self, seed):
        rng = np.random.default_rng([seed, 3])
        rows, cols, ring = self.rows, self.cols, self.ring_vertices
        edges = np.array(self.edges)
        r, c = np.divmod(np.arange(rows * cols), cols)
        items = []
        for i in range(self.pass_size):
            lift = rng.uniform(-0.01, 0.01, rows * cols)
            for _ in range(3):
                fr, fc = rng.uniform(-2.0, 2.0, 2)
                lift += np.sin(2 * math.pi * (fr * r / rows + fc * c / cols)
                               + rng.uniform(0, 2 * math.pi))
            # scale so that every edge increment stays below 0.4
            lift *= 0.4 / np.max(np.abs(lift[edges[:, 0]] - lift[edges[:, 1]]))
            lift += rng.uniform(-3.0, 3.0)
            ring_phase = (np.arange(ring) / ring
                          + rng.uniform(-0.02, 0.02, ring)) % 1.0
            selfadjoints = [schatten.random_selfadjoint(
                self.schatten_dim, rng, rng.uniform(0.2, math.pi))
                for _ in range(self.schatten_set)]
            elements = [schatten.PUnitary.from_selfadjoint(a, self.context)
                        for a in selfadjoints]
            items.append(CircleItem(i, lift % 1.0, 2 * math.pi * offset_norm(lift),
                                    ring_phase, elements, selfadjoints))
        return items

    def run(self, item):
        f = circle.CircleFunction(self.space, item.phase)
        cel = circle.cel(f)
        ring = circle.CircleFunction(self.ring_space, item.ring_phase)
        try:
            circle.cel(ring)
            ring_rejected = False
        except circle.WindingError:
            ring_rejected = True
        gram, min_eig = schatten.haagerup_witness(item.elements, self.kernel_index)
        chains = []
        for u, a in zip(item.elements, item.selfadjoints):
            geodesic = schatten.geodesic_chain(u)
            radius = 1.05 * u.dist_to_identity() + 0.1
            proper = schatten.coarse_proper_chain(u, radius, self.chain_step)
            sandwich = schatten.sandwich_check(a, self.context)
            chains.append((geodesic, radius, proper, sandwich))
        return {"cel": cel, "ring_rejected": ring_rejected, "gram": gram,
                "min_eig": min_eig, "chains": chains}

    def check(self, item, out):
        fails = []
        if not abs(out["cel"] - item.cel) <= TOL * (1 + item.cel):
            fails.append(f"cel {out['cel']!r} != 2 pi offset norm {item.cel!r}")
        if not out["ring_rejected"]:
            fails.append("the once-wound ring was not rejected")
        mats = [u.matrix for u in item.elements]
        dist = np.array([[np.linalg.norm(x - y) for y in mats] for x in mats])
        kernel = np.exp(-dist ** 2 / self.kernel_index)
        if not np.max(np.abs(out["gram"] - kernel)) <= TOL:
            fails.append("Gram matrix differs from exp(-|u_i - u_j|_2^2 / n)")
        if not out["min_eig"] >= -1e-8:
            fails.append(f"Gram minimum eigenvalue {out['min_eig']!r} < -1e-8")
        eye = np.eye(self.schatten_dim)
        for j, (u, a, (geodesic, radius, proper, sandwich)) in enumerate(
                zip(mats, item.selfadjoints, out["chains"])):
            d0 = np.linalg.norm(u - eye)
            fails += self._chain_failures(f"geodesic {j}", geodesic.chain, u,
                                          2.0 + TOL, inclusive=True)
            if not sum(geodesic.step_lengths) <= 2.0 * d0 + TOL:
                fails.append(f"geodesic {j}: total above 2 d(u, 1)")
            fails += self._chain_failures(f"proper {j}", proper, u,
                                          self.chain_step, inclusive=False)
            step = self.chain_step
            cap = math.floor(2 * radius / step) + math.floor(math.pi / step) + 2
            if not len(proper) - 1 <= cap:
                fails.append(f"proper {j}: {len(proper) - 1} steps > {cap}")
            lam = np.linalg.eigvalsh(a)
            mid = math.sqrt(np.sum((2 * np.sin(lam / 2)) ** 2))
            rhs = math.sqrt(np.sum(lam ** 2))
            expect = (rhs / 2, mid, rhs)
            if not np.allclose(sandwich, expect, rtol=TOL, atol=TOL):
                fails.append(f"sandwich {j}: {sandwich!r} != {expect!r}")
            if not (sandwich[0] <= sandwich[1] + TOL
                    and sandwich[1] <= sandwich[2] + TOL):
                fails.append(f"sandwich {j}: bounds out of order {sandwich!r}")
        return fails

    @staticmethod
    def _chain_failures(label, chain, u, bound, inclusive):
        fails = []
        mats = [p.matrix for p in chain]
        if not np.allclose(mats[0], np.eye(len(u)), atol=TOL):
            fails.append(f"{label}: chain does not start at 1")
        if not np.allclose(mats[-1], u, atol=TOL):
            fails.append(f"{label}: chain does not end at u")
        for x, y in zip(mats[:-1], mats[1:]):
            step = np.linalg.norm(y - x)
            if not (step <= bound if inclusive else step < bound):
                fails.append(f"{label}: step {step!r} exceeds {bound}")
        return fails

    def brackets(self, item, out):
        """The sandwich bracket [|a|_2 / 2, |a|_2] around d(e^{ia}, 1),
        whose exact value the generator's eigenvalues give."""
        pairs = []
        for a, (_, _, _, sandwich) in zip(item.selfadjoints, out["chains"]):
            lam = np.linalg.eigvalsh(a)
            pairs.append((sandwich[2], math.sqrt(np.sum((2 * np.sin(lam / 2)) ** 2))))
        return pairs

    def values(self, out):
        vals = [out["cel"], out["min_eig"]]
        for geodesic, radius, proper, sandwich in out["chains"]:
            vals += [geodesic.sum_of_steps, radius, float(len(proper))]
            vals += list(sandwich)
        return vals

    def fingerprint(self, out):
        return (pack(self.values(out)) + out["gram"].tobytes()
                + bytes([out["ring_rejected"]]))


WORKLOADS = {w.name: w for w in (Search, FunctionFields, CircleSchatten)}
