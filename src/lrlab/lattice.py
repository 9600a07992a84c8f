"""Finite lattice graphs with certified growth constants.

Every experiment in this package runs on a finite graph equipped with its
shortest-path metric.  Locality estimates depend on the graph only through
two growth constants: a surface constant ``c_surface`` controlling sphere
cardinalities, |S_y(R)| <= c_surface * R^(D-1) for R >= 1, and a volume
constant ``c_volume`` controlling ball cardinalities,
|B_y(R)| <= c_volume * (R+1)^D for R >= 0.  Both are certified here by
exhaustive enumeration, so downstream bound evaluations never rely on an
asymptotic claim that the concrete graph might miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .registry import Entry, lookup, registry

__all__ = [
    "LatticeGraph",
    "GrowthCertificate",
    "LATTICES",
    "build_lattice",
    "certify_growth",
    "fatten",
    "site_set",
    "set_distance",
    "set_diameter",
    "f_alpha_norm",
]

# Convergence target for the analytic-mode tail of f_alpha_norm.
_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class LatticeGraph:
    """Finite graph with an all-pairs shortest-path table.

    ``dim`` is the growth dimension used in the regularity inequalities,
    fixed by the family (1 for paths and rings, 2 for square patches and
    tori), not inferred from the metric.
    """

    family: str
    n_sites: int
    dim: int
    dist: np.ndarray  # (n_sites, n_sites) int array of graph distances
    labels: tuple = ()  # coordinate labels for 2-d families, else empty

    def __post_init__(self):
        d = self.dist
        if d.shape != (self.n_sites, self.n_sites):
            raise ValueError("distance table shape mismatch")
        if not np.array_equal(d, d.T) or np.any(np.diag(d) != 0):
            raise ValueError("distance table is not a metric table")

    @property
    def vertices(self):
        return tuple(range(self.n_sites))

    def distance(self, x, y):
        return int(self.dist[x, y])

    def diameter(self):
        return int(self.dist.max())

    def sphere(self, y, radius):
        """Vertices at graph distance exactly ``radius`` from y."""
        return tuple(np.flatnonzero(self.dist[y] == radius))

    def ball(self, y, radius):
        """Vertices at graph distance at most ``radius`` from y."""
        return tuple(np.flatnonzero(self.dist[y] <= radius))


@dataclass(frozen=True)
class GrowthCertificate:
    """Minimal growth constants valid for one concrete graph."""

    c_surface: float
    c_volume: float
    dim: int
    # (site, radius) where the surface / volume ratio is attained
    surface_witness: tuple = field(default=(0, 1))
    volume_witness: tuple = field(default=(0, 0))


def _grid(periodic: bool):
    """Builder of the graph on an integer grid of the given extents, the
    distance summed over axes and wrapped around on a periodic one."""

    def build(family, extents):
        axes = [a.ravel() for a in np.meshgrid(*(np.arange(n) for n in extents), indexing="ij")]
        dist = np.zeros((axes[0].size,) * 2, dtype=np.int64)
        for coord, n in zip(axes, extents):
            gap = np.abs(coord[:, None] - coord[None, :])
            dist += np.minimum(gap, n - gap) if periodic else gap
        labels = tuple(zip(*(a.tolist() for a in axes))) if len(extents) > 1 else ()
        return LatticeGraph(family, axes[0].size, len(extents), dist, labels)

    return build


def _extent_at_least(least: int):
    def check(v):
        if int(v["n"]) < least:
            yield "n", "too few vertices for this family"

    return check


# the lattice families; ``n`` is the extent of every axis, so a family of
# dimension D has n**D sites, and build(family, extents) -> LatticeGraph
_N = {"n": (int, None)}
LATTICES = registry(
    Entry("path", _N, _extent_at_least(1), _grid(False), "lattice family", {"dim": 1}),
    Entry("ring", _N, _extent_at_least(3), _grid(True), "lattice family", {"dim": 1}),
    Entry("square_patch", _N, _extent_at_least(1), _grid(False), "lattice family", {"dim": 2}),
    Entry("square_torus", _N, _extent_at_least(3), _grid(True), "lattice family", {"dim": 2}),
)


def build_lattice(family: str, size) -> LatticeGraph:
    """Construct one of the ``LATTICES`` families: the open ``path`` and
    ``square_patch`` and the periodic ``ring`` and ``square_torus``.

    ``size`` is the extent of every axis, or for the square families a
    (w, h) pair of extents.
    """
    fam = lookup(LATTICES, family, "lattice family")
    extents = [fam.require({"n": n})["n"] for n in np.broadcast_to(size, fam.traits["dim"])]
    return fam.build(family, extents)


def certify_growth(g: LatticeGraph) -> GrowthCertificate:
    """Smallest constants satisfying the sphere and ball inequalities.

    Enumerates every center and every radius up to the eccentricity; beyond
    it spheres are empty and ball ratios only decrease, so the enumeration
    is exhaustive.  The surface constant is floored at 1 so that the
    single-vertex graph, where every sphere is empty, still certifies.
    """
    d = g.dim
    c_surface, surf_wit = 1.0, (0, 1)
    c_volume, vol_wit = 1.0, (0, 0)
    for y in range(g.n_sites):
        row = g.dist[y]
        ecc = int(row.max())
        counts = np.bincount(row, minlength=ecc + 1)
        balls = np.cumsum(counts)
        for radius in range(1, ecc + 1):
            ratio = counts[radius] / radius ** (d - 1)
            if ratio > c_surface:
                c_surface, surf_wit = float(ratio), (y, radius)
        for radius in range(ecc + 1):
            ratio = balls[radius] / (radius + 1) ** d
            if ratio > c_volume:
                c_volume, vol_wit = float(ratio), (y, radius)
    cert = GrowthCertificate(c_surface, c_volume, d, surf_wit, vol_wit)
    # Volume regularity is implied by surface regularity with this margin;
    # a violation would mean the enumeration above is wrong.
    if c_volume > max(1.0, c_surface / d) + 1e-12:
        raise AssertionError("volume constant exceeds its surface-derived bound")
    return cert


def site_set(g: LatticeGraph, sites) -> tuple:
    """Canonical (sorted, duplicate-free) vertex subset of ``g``."""
    out = tuple(sorted({int(s) for s in sites}))
    for s in out:
        if not 0 <= s < g.n_sites:
            raise ValueError(f"vertex {s} not in graph with {g.n_sites} sites")
    return out


def fatten(g: LatticeGraph, region, margin: int) -> tuple:
    """All vertices within graph distance ``margin`` of ``region``."""
    region = site_set(g, region)
    if not region:
        raise ValueError("cannot fatten the empty set")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    hit = (g.dist[list(region)] <= margin).any(axis=0)
    return tuple(np.flatnonzero(hit))


def set_distance(g: LatticeGraph, region_a, region_b) -> int:
    """min over x in A, y in B of d(x, y); 0 if the sets intersect."""
    a = site_set(g, region_a)
    b = site_set(g, region_b)
    if not a or not b:
        raise ValueError("set distance needs two nonempty sets")
    return int(g.dist[np.ix_(a, b)].min())


def set_diameter(g: LatticeGraph, region) -> int:
    region = site_set(g, region)
    if not region:
        raise ValueError("diameter of the empty set is undefined")
    return int(g.dist[np.ix_(region, region)].max())


def f_alpha_norm(g: LatticeGraph, alpha: float, mode: str = "exact") -> float:
    """Largest row sum of the decay kernel (d(x,z)+1)^(-alpha).

    mode "exact" sums the kernel on the concrete graph.  mode "analytic"
    returns the growth-certificate upper bound
    c_surface * sum_{r>=0} (r+1)^(dim-1-alpha), with the series tail bounded
    by integral comparison and added to the partial sum, so the returned
    value always dominates the exact one.
    """
    if alpha <= g.dim:
        raise ValueError("decay exponent must exceed the graph dimension")
    if mode == "exact":
        kernel = (g.dist + 1.0) ** (-float(alpha))
        return float(kernel.sum(axis=1).max())
    if mode == "analytic":
        c_surface = certify_growth(g).c_surface
        s = alpha + 1 - g.dim  # series is sum_{k>=1} k^(-s), s > 1
        total = 0.0
        k = 0
        chunk = 50_000
        while True:
            js = np.arange(k + 1, k + chunk + 1, dtype=np.float64)
            total += float(np.sum(js**-s))
            k += chunk
            # two-sided integral bracket for the remainder (j^-s is convex):
            # midpoint rule gives the upper end, trapezoid the lower one
            upper = (k + 0.5) ** (1 - s) / (s - 1)
            lower = (k + 1.0) ** (1 - s) / (s - 1) + 0.5 * (k + 1.0) ** -s
            if c_surface * (upper - lower) < _TAIL_TOL:
                return float(c_surface * (total + upper))
            if k > 50_000_000:
                raise RuntimeError("tail summation failed to converge")
    raise ValueError(f"unknown mode {mode!r}")
