"""Sampled metric spaces and coarse fits of maps between them.

A finite point sample with a distance table can only refute a coarse
property or fit it weakly; a quasi-isometry fit or a moduli envelope holds
for the sampled pairs and never claims anything about the unsampled group.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import finite_floats


@dataclass
class SampledSpace:
    """Finite metric sample: point ids, symmetric distance table, origin."""

    ids: list
    dist: np.ndarray
    origin: object

    def __post_init__(self):
        try:
            self._index = {p: k for k, p in enumerate(self.ids)}
        except TypeError:  # not a list, or an id that is not hashable
            self._index = None
        if self._index is None or len(self._index) < len(self.ids):
            raise ValueError(f"ids must be distinct scalars, not "
                             f"{self.ids!r:.40}")
        n = len(self.ids)
        self.dist = finite_floats(self.dist, "distances")
        if self.dist.shape != (n, n):
            raise ValueError("distance table shape mismatch")
        if self.origin not in self.ids:
            raise ValueError("origin must be one of the point ids")
        if np.any(np.abs(np.diag(self.dist)) > 1e-12):
            raise ValueError("dist(x, x) must be 0")
        # the rounding allowed a table: 1e-9 (1 + its largest distance)
        self._slack = 1e-9 * (1.0 + float(np.max(np.abs(self.dist))))
        if np.max(np.abs(self.dist - self.dist.T)) > self._slack:
            raise ValueError("distance table must be symmetric")
        self.check_triangle()

    def check_triangle(self):
        for row in self.dist:
            if np.any(self.dist > row[None, :] + row[:, None] + self._slack):
                raise ValueError("triangle inequality fails on the sample")
        return True

    def d(self, a, b):
        return float(self.dist[self._index[a], self._index[b]])

    @classmethod
    def from_points(cls, ids, metric, origin):
        n = len(ids)
        dist = np.zeros((n, n))
        for i, j in itertools.combinations(range(n), 2):
            dist[i, j] = dist[j, i] = metric(ids[i], ids[j])
        return cls(list(ids), dist, origin)


@dataclass
class CoarseMapSample:
    """Sampled map between two spaces: every domain point mapped once."""

    domain: SampledSpace
    codomain: SampledSpace
    pairs: list

    def __post_init__(self):
        if not (isinstance(self.pairs, (list, tuple)) and all(
                isinstance(p, (list, tuple)) and len(p) == 2
                for p in self.pairs)):
            raise ValueError(f"pairs must be a list of [point, image] pairs, "
                             f"not {self.pairs!r:.40}")
        for a, fa in self.pairs:
            if a not in self.domain.ids:
                raise ValueError(f"{a!r} is not a domain point")
            if fa not in self.codomain.ids:
                raise ValueError(f"{a!r} maps to {fa!r}, which is not a "
                                 "codomain point")
        self._x, self._y = (np.array(
            [space._index[p[side]] for p in self.pairs], dtype=np.intp)
            for side, space in enumerate((self.domain, self.codomain)))
        if sorted(self._x) != list(range(len(self.domain.ids))):
            raise ValueError("every domain point must be mapped exactly once")

    def distance_pairs(self):
        """Two float arrays (d_X(x, y), d_Y(f(x), f(y))) over the unordered
        pairs of ``pairs``, in ``itertools.combinations`` order, read from
        the tables at the positions of the points and of their images."""
        i, j = np.triu_indices(len(self.pairs), 1)
        return (self.domain.dist[self._x[i], self._x[j]],
                self.codomain.dist[self._y[i], self._y[j]])


@dataclass
class QuasiIsometryFit:
    constant: float
    additive: float
    refuted: bool
    trend: list

    def as_pair(self):
        return self.constant, self.additive


def _required_additive(dx, dy, k):
    """The least L >= 0 with dx/k - L <= dy <= k dx + L on every pair.  At
    k = inf a pair with dx = 0 gives inf * 0 = NaN, which ``fmax`` skips."""
    with np.errstate(invalid="ignore"):
        return max(0.0, float(np.fmax(dy - k * dx, dx / k - dy).max()))


def fit_quasi_isometry(sample):
    """Fit constants (K, L) with d_X/K - L <= d_Y <= K d_X + L over the
    sampled pairs.

    The additive constant is forced per K; the fit returns the smallest
    K >= 1 (searched over the finite breakpoint set of pairwise ratios)
    whose forced L is minimal, so isometric samples give exactly (1, 0)
    and pure c-scalings give (c, 0).  Rounding is monotone, so the forced
    L never grows with K: that K is found by bisection.  A K past the float
    range (inf) refutes the fit.
    """
    dx, dy = sample.distance_pairs()
    if not dx.size:
        return QuasiIsometryFit(1.0, 0.0, False, [])
    both = (dx > 0) & (dy > 0)
    with np.errstate(over="ignore"):  # a ratio past the float range is inf
        ratios = np.concatenate([[1.0], dy[both] / dx[both],
                                 dx[both] / dy[both]])
    grid = np.unique(np.maximum(ratios, 1.0)).tolist()
    forced = functools.partial(_required_additive, dx, dy)
    least = forced(grid[-1])
    # grid[-1] satisfies the key, so the bisection need not evaluate it
    k_star = grid[bisect.bisect_left(grid, True, hi=len(grid) - 1,
                                     key=lambda k: forced(k) <= least + 1e-12)]
    trend = _additive_trend(dx, dy, k_star)
    return QuasiIsometryFit(k_star, forced(k_star),
                            k_star == math.inf or _is_expanding(trend), trend)


def _additive_trend(dx, dy, k):
    """Forced additive constant restricted to pairs within eight growing
    radii; an unbounded upward trend refutes the quasi-isometry ansatz.
    ``dx`` is not empty."""
    top = float(dx.max())
    if top == 0:
        return []
    out = []
    for edge in (top * (i + 1) / 8 for i in range(8)):
        inside = dx <= edge
        if inside.any():
            out.append((edge, _required_additive(dx[inside], dy[inside], k)))
    return out


def _is_expanding(trend):
    values = [l for _, l in trend]
    return (len(values) >= 3 and values[-1] > 2.0 * max(values[0], 1e-12)
            and all(a <= b + 1e-12 for a, b in itertools.pairwise(values)))


@dataclass
class CoarseModuli:
    """Empirical non-decreasing envelopes rho_1 <= image distance <= rho_2
    per domain-distance bin."""

    bin_edges: list
    lower: list
    upper: list
    expansive: bool


def fit_coarse_moduli(sample):
    """Monotone envelopes of image distances per domain-distance bin, the
    bins of width top / 20, never below the least positive float, for the
    largest domain distance top (1 if 0).

    ``lower`` is the largest non-decreasing minorant of the per-bin minima
    (suffix minima) and ``upper`` the smallest non-decreasing majorant of
    the per-bin maxima (prefix maxima).  The expansiveness flag records
    whether the lower envelope grows through the sampled range.
    """
    dx, dy = sample.distance_pairs()
    if not dx.size:
        return CoarseModuli([], [], [], False)
    top = float(dx.max())
    bin_width = max(top / 20.0, math.ulp(0.0)) if top > 0 else 1.0
    n_bins = max(1, int(math.ceil(top / bin_width)))
    bins = np.minimum(n_bins - 1, (dx / bin_width).astype(int))
    mins, maxs = np.full(n_bins, math.inf), np.full(n_bins, -math.inf)
    np.minimum.at(mins, bins, dy)
    np.maximum.at(maxs, bins, dy)
    occupied = np.flatnonzero(mins < math.inf)
    lower = np.minimum.accumulate(mins[occupied][::-1])[::-1].tolist()
    upper = np.maximum.accumulate(maxs[occupied]).tolist()
    return CoarseModuli(((occupied + 0.5) * bin_width).tolist(), lower,
                        upper, lower[-1] > lower[0])
