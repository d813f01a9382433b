"""Sampled-space coarse-geometry checkers.

A finite point sample with a distance table can only refute a coarse
property or certify it weakly; every certificate emitted here is labeled
with the sample size and radius it was computed from and never claims
anything about the unsampled group.

Chain oracles connect the checkers to live groups: an oracle maps a point id
to a chain of opaque elements from the origin to that point, and
``chain_dist`` evaluates distances between chain elements (chains may pass
through elements outside the sample).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class SampledSpace:
    """Finite metric sample: point ids, symmetric distance table, origin."""

    ids: list
    dist: np.ndarray
    origin: object

    def __post_init__(self):
        self.dist = np.asarray(self.dist, dtype=float)
        n = len(self.ids)
        if self.dist.shape != (n, n):
            raise ValueError("distance table shape mismatch")
        if not np.all(np.isfinite(self.dist)):
            raise ValueError("distances must be finite")
        if self.origin not in self.ids:
            raise ValueError("origin must be one of the point ids")
        self._index = {p: k for k, p in enumerate(self.ids)}
        if np.any(np.abs(np.diag(self.dist)) > 1e-12):
            raise ValueError("dist(x, x) must be 0")
        if np.max(np.abs(self.dist - self.dist.T)) > 1e-9:
            raise ValueError("distance table must be symmetric")
        self.check_triangle()

    def check_triangle(self):
        d = self.dist
        n = d.shape[0]
        for i in range(n):
            through = d[i][None, :] + d[i][:, None]
            if np.any(d > through + 1e-9):
                raise ValueError("triangle inequality fails on the sample")
        return True

    def d(self, a, b):
        return float(self.dist[self._index[a], self._index[b]])

    def to_origin(self, a):
        return self.d(a, self.origin)

    @classmethod
    def from_points(cls, ids, metric, origin):
        n = len(ids)
        dist = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                dist[i, j] = dist[j, i] = metric(ids[i], ids[j])
        return cls(list(ids), dist, origin)

    def to_json(self):
        return {"ids": [str(p) for p in self.ids],
                "origin": str(self.origin),
                "dist": self.dist.tolist()}

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["point_a", "point_b", "distance"])
            for i, a in enumerate(self.ids):
                for j, b in enumerate(self.ids):
                    if i < j:
                        writer.writerow([a, b, self.dist[i, j]])

    @classmethod
    def read_csv(cls, path, origin=None):
        rows = []
        with open(path) as fh:
            for row in csv.DictReader(fh):
                rows.append((row["point_a"], row["point_b"],
                             float(row["distance"])))
        ids = sorted({r[0] for r in rows} | {r[1] for r in rows})
        index = {p: k for k, p in enumerate(ids)}
        dist = np.zeros((len(ids), len(ids)))
        for a, b, value in rows:
            dist[index[a], index[b]] = dist[index[b], index[a]] = value
        return cls(ids, dist, origin if origin is not None else ids[0])


@dataclass
class CoarseMapSample:
    """Sampled map between two spaces: every domain point mapped once."""

    domain: SampledSpace
    codomain: SampledSpace
    pairs: list

    def __post_init__(self):
        mapped = [a for a, _ in self.pairs]
        if sorted(map(str, mapped)) != sorted(map(str, self.domain.ids)):
            raise ValueError("every domain point must be mapped exactly once")

    def distance_pairs(self):
        """(d_X(x, y), d_Y(f(x), f(y))) over unordered point pairs."""
        out = []
        for k, (a, fa) in enumerate(self.pairs):
            for b, fb in self.pairs[k + 1:]:
                out.append((self.domain.d(a, b), self.codomain.d(fa, fb)))
        return out


@dataclass
class CoarseProperReport:
    """Weak certificate: every sampled point within the radius reached the
    origin through a chain of short steps."""

    ok: bool
    max_chain_steps: int
    failures: list
    sample_size: int
    radius: float
    step_bound: float

    @property
    def label(self):
        return (f"sampled at {self.sample_size} points, "
                f"radius {self.radius:g}")


def check_coarsely_proper(space, radius, step, chain_fn, chain_dist):
    """Verify, for each sampled point within ``radius`` of the origin, an
    oracle chain whose steps are all below ``step``.

    Returns a report carrying the max chain length used (the k witnessing
    the sampled property) or the failing points.  Oracle exceptions
    propagate to the caller.
    """
    max_steps = 0
    failures = []
    checked = 0
    for p in space.ids:
        if space.to_origin(p) >= radius or p == space.origin:
            continue
        checked += 1
        chain = chain_fn(p)
        steps = [chain_dist(chain[i], chain[i + 1])
                 for i in range(len(chain) - 1)]
        bad = [s for s in steps if not s < step]
        if bad:
            failures.append((p, f"step {max(bad):g} >= {step:g}"))
        else:
            max_steps = max(max_steps, len(steps))
    return CoarseProperReport(not failures, max_steps, failures,
                              checked, radius, step)


@dataclass
class GeodesicReport:
    ok: bool
    smallest_constant: float
    worst_pair: tuple
    sample_size: int
    radius: float

    @property
    def label(self):
        return (f"sampled at {self.sample_size} points, "
                f"radius {self.radius:g}")


def check_large_scale_geodesic(space, constant, chain_fn, chain_dist,
                               pairs=None):
    """Verify the two chain inequalities for sampled pairs: step lengths at
    most ``constant`` and d(g, h) <= constant * (sum of steps).

    Reports the smallest admissible constant found on the sample; success
    at a constant implies success at any larger one.
    """
    if pairs is None:
        pairs = [(a, b) for i, a in enumerate(space.ids)
                 for b in space.ids[i + 1:]]
    needed = 0.0
    worst = None
    for a, b in pairs:
        chain = chain_fn(a, b)
        steps = [chain_dist(chain[i], chain[i + 1])
                 for i in range(len(chain) - 1)]
        d_ab = space.d(a, b)
        if not steps:
            pair_needed = 0.0 if d_ab == 0 else math.inf
        else:
            total = sum(steps)
            ratio = 0.0 if d_ab == 0 else (
                math.inf if total == 0 else d_ab / total)
            pair_needed = max(max(steps), ratio)
        if pair_needed > needed:
            needed = pair_needed
            worst = (a, b)
    radius = float(np.max(space.dist)) if len(space.ids) > 1 else 0.0
    return GeodesicReport(needed <= constant + 1e-9, needed, worst,
                          len(space.ids), radius)


@dataclass
class QuasiIsometryFit:
    constant: float
    additive: float
    refuted: bool
    trend: list

    def as_pair(self):
        return self.constant, self.additive


def _required_additive(pairs, k):
    need = 0.0
    for dx, dy in pairs:
        need = max(need, dy - k * dx, dx / k - dy)
    return max(0.0, need)


def fit_quasi_isometry(sample):
    """Fit constants (K, L) with d_X/K - L <= d_Y <= K d_X + L over the
    sampled pairs.

    The additive constant is forced per K; the fit returns the smallest
    K >= 1 (searched over the finite breakpoint set of pairwise ratios)
    whose forced L is minimal, so isometric samples give exactly (1, 0)
    and pure c-scalings give (c, 0).
    """
    pairs = sample.distance_pairs()
    if not pairs:
        return QuasiIsometryFit(1.0, 0.0, False, [])
    candidates = {1.0}
    for dx, dy in pairs:
        if dx > 0 and dy > 0:
            candidates.add(max(dy / dx, 1.0))
            candidates.add(max(dx / dy, 1.0))
    grid = sorted(candidates)
    forced = [(k, _required_additive(pairs, k)) for k in grid]
    best_l = min(l for _, l in forced)
    k_star, l_star = next((k, l) for k, l in forced if l <= best_l + 1e-12)
    trend = _additive_trend(pairs, k_star)
    refuted = _is_expanding(trend)
    return QuasiIsometryFit(k_star, l_star, refuted, trend)


def _additive_trend(pairs, k):
    """Forced additive constant restricted to pairs within eight growing
    radii; an unbounded upward trend refutes the quasi-isometry ansatz."""
    if not pairs:
        return []
    top = max(dx for dx, _ in pairs)
    if top == 0:
        return []
    edges = [top * (i + 1) / 8 for i in range(8)]
    out = []
    for edge in edges:
        inside = [p for p in pairs if p[0] <= edge]
        if inside:
            out.append((edge, _required_additive(inside, k)))
    return out


def _is_expanding(trend):
    if len(trend) < 3:
        return False
    values = [l for _, l in trend]
    increasing = all(values[i] <= values[i + 1] + 1e-12
                     for i in range(len(values) - 1))
    return increasing and values[-1] > 2.0 * max(values[0], 1e-12)


@dataclass
class CoarseModuli:
    """Empirical non-decreasing envelopes rho_1 <= image distance <= rho_2
    per domain-distance bin."""

    bin_edges: list
    lower: list
    upper: list
    expansive: bool


def fit_coarse_moduli(sample, bin_width=None):
    """Monotone envelopes of image distances per domain-distance bin.

    ``lower`` is the largest non-decreasing minorant of the per-bin minima
    (suffix minima) and ``upper`` the smallest non-decreasing majorant of
    the per-bin maxima (prefix maxima).  The expansiveness flag records
    whether the lower envelope keeps growing through the sampled range.
    """
    pairs = sample.distance_pairs()
    if not pairs:
        return CoarseModuli([], [], [], False)
    top = max(dx for dx, _ in pairs)
    if bin_width is None:
        bin_width = top / 20.0 if top > 0 else 1.0
    n_bins = max(1, int(math.ceil(top / bin_width))) if top > 0 else 1
    mins = [math.inf] * n_bins
    maxs = [-math.inf] * n_bins
    for dx, dy in pairs:
        b = min(n_bins - 1, int(dx / bin_width)) if top > 0 else 0
        mins[b] = min(mins[b], dy)
        maxs[b] = max(maxs[b], dy)
    occupied = [i for i in range(n_bins) if mins[i] != math.inf]
    edges = [(i + 0.5) * bin_width for i in occupied]
    raw_min = [mins[i] for i in occupied]
    raw_max = [maxs[i] for i in occupied]
    lower = list(raw_min)
    for i in range(len(lower) - 2, -1, -1):
        lower[i] = min(lower[i], lower[i + 1])
    upper = list(raw_max)
    for i in range(1, len(upper)):
        upper[i] = max(upper[i], upper[i - 1])
    expansive = bool(lower) and lower[-1] > lower[0] and \
        lower[-1] == max(lower)
    return CoarseModuli(edges, lower, upper, expansive)
