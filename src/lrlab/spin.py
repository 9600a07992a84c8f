"""Spin-lattice side of the story: tensor-factor algebras, the partial-trace
conditional expectation, and the support-size improvement trick.

For spin systems every pair of disjointly supported operators commutes, so
the conditional expectation approximates time-evolved observables without
any parity bookkeeping.  Telescoping the expectation over the sites of a
region converts any Lieb-Robinson curve evaluated at unit support size
into one scaling with min{|X|, |Y|} (single trick) or with a pairwise
distance sum (double trick).  The same route is blocked for fermions: odd
disjoint operators anticommute instead, and their commutators start at the
trivial bound; this module ends with the concrete demonstration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundCurve, BoundParams, curve, delta_cap
from .dynamics import CommutatorSeries, commutator_norms
from .fock import build_context, dim_cap, ladder, number_operator
from .interactions import decay_norm, model
from .lattice import (
    LatticeGraph,
    build_lattice,
    set_distance,
    site_set,
)
from .linalg import op_norm

__all__ = [
    "SpinContext",
    "spin_context",
    "site_operator",
    "spin_conditional_expectation",
    "localization_defect",
    "telescoping_terms",
    "telescoping_localization",
    "spin_bound_params",
    "random_spin_chain",
    "ising_chain",
    "commutator_series",
    "trick_bound",
    "fermionic_obstruction_demo",
]


@dataclass(frozen=True)
class SpinContext:
    """Tensor-product bookkeeping: one ``local_dim`` factor per site."""

    graph: LatticeGraph
    local_dim: int
    dim: int

    @property
    def n_sites(self) -> int:
        return self.graph.n_sites


def spin_context(graph: LatticeGraph, local_dim: int = 2) -> SpinContext:
    if local_dim < 2:
        raise ValueError("local dimension must be at least 2")
    dim = local_dim**graph.n_sites
    cap = dim_cap()
    if dim > cap:
        raise ValueError(f"spin dimension {dim} exceeds the cap {cap}")
    return SpinContext(graph=graph, local_dim=local_dim, dim=dim)


def site_operator(ctx: SpinContext, site: int, m) -> np.ndarray:
    """Embed a single-factor matrix at one site (identity elsewhere)."""
    m = np.asarray(m, dtype=np.complex128)
    s = ctx.local_dim
    if m.shape != (s, s):
        raise ValueError("matrix must act on one local factor")
    if not 0 <= site < ctx.n_sites:
        raise ValueError("site out of range")
    left = s**site
    right = s ** (ctx.n_sites - site - 1)
    return np.kron(np.kron(np.eye(left), m), np.eye(right)).astype(np.complex128)


def spin_conditional_expectation(ctx: SpinContext, region, matrix) -> np.ndarray:
    """Normalized partial trace over the factors outside ``region``,
    re-embedded at the original positions.

    This is the unit-preserving completely positive projection onto the
    subalgebra of the region: it fixes operators on the region, has norm
    one, and composes over intersections.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (ctx.dim, ctx.dim):
        raise ValueError("matrix does not live on this spin context")
    x = site_set(ctx.graph, region)
    n = ctx.n_sites
    if len(x) == n:
        return matrix.copy()
    s = ctx.local_dim
    rest = [z for z in range(n) if z not in set(x)]
    t = matrix.reshape((s,) * (2 * n))
    # row index of site z is z, column index is n + z; tracing a factor
    # means tying its row to its column
    idx = list(range(2 * n))
    for c in rest:
        idx[n + c] = idx[c]
    out_idx = [z for z in x] + [n + z for z in x]
    reduced = np.einsum(t, idx, out_idx) / float(s ** len(rest))
    if not x:
        return np.eye(ctx.dim, dtype=np.complex128) * complex(reduced)
    # re-embed with identity factors on the traced sites
    eye = np.eye(s, dtype=np.complex128)
    operands = [reduced, out_idx]
    for c in rest:
        operands.extend([eye, [c, n + c]])
    operands.append(list(range(2 * n)))
    return np.einsum(*operands).reshape(ctx.dim, ctx.dim)


def localization_defect(ctx: SpinContext, y_region, matrix) -> float:
    """|| (id - E_{complement of Y})(A) ||, the part of A touching Y."""
    y = site_set(ctx.graph, y_region)
    keep = tuple(z for z in ctx.graph.vertices if z not in set(y))
    return float(op_norm(np.asarray(matrix) - spin_conditional_expectation(ctx, keep, matrix)))


def telescoping_terms(ctx: SpinContext, y_order, matrix) -> list:
    """Per-step norms of the telescoping of id - E_{complement of Y}.

    Step j applies the expectation away from the first j-1 sites composed
    with (id - expectation away from site j); the steps sum to the full
    defect operator, and each is dominated by the single-site defect of
    its own site because the expectation has norm one.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    y = [int(z) for z in y_order]
    if len(set(y)) != len(y):
        raise ValueError("enumeration must not repeat sites")
    all_sites = set(ctx.graph.vertices)
    out = []
    removed: list = []
    for z in y:
        single = matrix - spin_conditional_expectation(
            ctx, tuple(all_sites - {z}), matrix
        )
        step = spin_conditional_expectation(ctx, tuple(all_sites - set(removed)), single)
        out.append(float(op_norm(step)))
        removed.append(z)
    return out


def telescoping_localization(ctx: SpinContext, y_region, matrix) -> float:
    """Sum of single-site defects over Y; certified to dominate the joint
    defect || (id - E_{complement of Y})(A) ||."""
    y = site_set(ctx.graph, y_region)
    matrix = np.asarray(matrix, dtype=np.complex128)
    total = sum(localization_defect(ctx, (z,), matrix) for z in y)
    joint = localization_defect(ctx, y, matrix) if y else 0.0
    if joint > total + 1e-10:
        raise AssertionError("telescoping domination failed; expectation is broken")
    return float(total)


# ---------------------------------------------------------------------------
# spin models and their decay norms


def spin_bound_params(
    graph: LatticeGraph,
    term_norms: dict,
    alpha: float,
    size_x: int = 1,
    size_y: int = 1,
) -> BoundParams:
    """Curve parameters for a spin interaction given as {support: norm}.

    Spin curves use the unweighted decay norm in place of the
    size-weighted one (the support-size factor is restored by the trick),
    so both norm slots carry the same value.
    """
    if alpha <= graph.dim:
        raise ValueError("decay exponent must exceed the lattice dimension")
    na = decay_norm(graph, term_norms.items(), alpha)
    return BoundParams.from_norms(graph, alpha, na, na, size_x, size_y)


def _unit_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = 0.5 * (m + m.conj().T)
    return m / op_norm(m)


def random_spin_chain(
    ctx: SpinContext,
    rng: np.random.Generator,
    alpha: float,
    strength: float = 1.0,
    field_strength: float = 0.5,
):
    """Random two-site couplings with (1+d)^(-alpha) norms plus site fields.

    Returns (hamiltonian, term_norms): every kept pair carries a random
    two-factor hermitian of exactly the target norm, so the decay norms
    computed from ``term_norms`` are sharp.
    """
    g = ctx.graph
    s = ctx.local_dim
    h = np.zeros((ctx.dim, ctx.dim), dtype=np.complex128)
    term_norms: dict = {}
    verts = list(g.vertices)
    for i, x in enumerate(verts):
        for y in verts[i + 1 :]:
            target = strength / (1.0 + g.distance(x, y)) ** alpha
            pair = np.kron(_unit_hermitian(rng, s), _unit_hermitian(rng, s))
            pair = pair / op_norm(pair)
            term = _embed_pair(ctx, x, y, pair) * target
            h += term
            term_norms[(x, y)] = target
    if field_strength:
        for z in verts:
            f = field_strength * _unit_hermitian(rng, s)
            h += site_operator(ctx, z, f)
            term_norms[(z,)] = float(op_norm(f))
    return h, term_norms


def _embed_pair(ctx: SpinContext, x: int, y: int, pair: np.ndarray) -> np.ndarray:
    """Embed a two-factor matrix at sites x < y (identity elsewhere)."""
    s = ctx.local_dim
    n = ctx.n_sites
    t = pair.reshape(s, s, s, s)  # rows (x, y), cols (x, y)
    idx = [x, y, n + x, n + y]
    eye = np.eye(s, dtype=np.complex128)
    operands = [t, idx]
    for z in range(n):
        if z not in (x, y):
            operands.extend([eye, [z, n + z]])
    operands.append(list(range(2 * n)))
    return np.einsum(*operands).reshape(ctx.dim, ctx.dim)


def ising_chain(ctx: SpinContext, coupling: float = 1.0, transverse: float = 0.7):
    """Nearest-neighbor zz coupling with a transverse field.

    Returns (hamiltonian, term_norms); local dimension must be 2.
    """
    if ctx.local_dim != 2:
        raise ValueError("the ising chain needs two-level sites")
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
    g = ctx.graph
    h = np.zeros((ctx.dim, ctx.dim), dtype=np.complex128)
    term_norms: dict = {}
    for x in g.vertices:
        for y in g.vertices:
            if x < y and g.distance(x, y) == 1:
                h += coupling * _embed_pair(ctx, x, y, np.kron(sz, sz))
                term_norms[(x, y)] = abs(coupling)
    for z in g.vertices:
        h += transverse * site_operator(ctx, z, sx)
        if transverse:
            term_norms[(z,)] = abs(transverse)
    return h, term_norms


def commutator_series(
    graph: LatticeGraph,
    h: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    x_region,
    y_region,
    times,
) -> CommutatorSeries:
    """Exact ||[tau_t(A), B]|| over a time grid by ``commutator_norms``.

    Representation-agnostic; the regions only set the reported distance
    and sizes.  ||A|| and ||B|| come from the same charge-sector blocks as
    the sweep, and ``info`` records its route, unitarity residual and
    sector sizes.
    """
    x = site_set(graph, x_region)
    y = site_set(graph, y_region)
    times = np.asarray(list(times), dtype=float)
    vals, info, (norm_a, norm_b) = commutator_norms(h, a, b, times)
    dist = 0 if set(x) & set(y) else set_distance(graph, x, y)
    return CommutatorSeries(
        times=times,
        values=vals,
        distance=dist,
        size_x=len(x),
        size_y=len(y),
        norm_a=norm_a,
        norm_b=norm_b,
        flags=(),
        info=info,
    )


# ---------------------------------------------------------------------------
# the support-size trick


def trick_bound(
    graph: LatticeGraph,
    x_region,
    y_region,
    f: BoundCurve,
    mode: str = "single",
) -> BoundCurve:
    """Convert a unit-support-size curve into a region-level spin bound.

    ``single``: 2 min{|X|, |Y|} f(r, dt); ``double``: 4 sum over pairs
    (x, y) of f(d(x, y), dt), with the pairwise distances baked in.  Both
    stay capped at the trivial bound.  The input curve must be built for
    unit support sizes; anything else double-counts the region factors.
    """
    x = site_set(graph, x_region)
    y = site_set(graph, y_region)
    if not x or not y:
        raise ValueError("both regions must be nonempty")
    if mode == "single":
        m = min(len(x), len(y))

        def raw(r, dt):
            return delta_cap(2.0 * m * f(r, dt))

        label = f"trick_single(min={m}, {f.label})"
    elif mode == "double":
        dists = [graph.distance(a, b) for a in x for b in y]

        def raw(r, dt):
            return delta_cap(4.0 * sum(f(d, dt) for d in dists))

        label = f"trick_double(pairs={len(dists)}, {f.label})"
    else:
        raise ValueError("mode must be 'single' or 'double'")
    return BoundCurve(label, raw, {"mode": mode, "x": x, "y": y, "base": f.label})


# ---------------------------------------------------------------------------
# why none of this works for fermions


def fermionic_obstruction_demo(times=(0.0, 0.1, 0.25, 0.5)) -> dict:
    """Concrete failure of the parity-free trick input for fermions.

    Three exhibits on small chains: (i) disjoint odd operators whose
    commutator starts at norm 2 at t = 0, with the product-form value
    confirmed by direct matrices; (ii) the even-odd pair that does
    commute, as the parity-restricted theory predicts; (iii) the measured
    odd-probe commutator crossing above the even-restricted trick curve,
    next to the complement-sum fallback that replaces the trick for
    fermions.  "sweep" holds the odd probe's sweep info.
    """
    times = tuple(float(t) for t in times)
    # (i) dimension-4 oracle: two modes, disjoint singletons
    pair = build_context(build_lattice("path", 2))
    a0 = ladder(pair, 0).matrix
    a1 = ladder(pair, 1).matrix
    comm_norm = float(op_norm(a0 @ a1 - a1 @ a0))
    prod_norm = float(op_norm(a0 @ a1))
    even_odd = float(op_norm(number_operator(pair, [0]).matrix @ a1 - a1 @ number_operator(pair, [0]).matrix))

    # (iii) odd probe against the even-restricted trick curve on a chain
    g = build_lattice("path", 8)
    ctx = build_context(g)
    hopping = model("long_range_hopping", ctx, J=1.0, alpha_tb=4.0)
    phi = hopping.interaction.sample(0.0)
    # single-site supports: the parameters are already at unit size
    p = BoundParams.from_interaction(phi, alpha=3.0, support_x=(0,), support_y=(7,))
    f = curve(p, "finite_range", max_range=float(g.diameter()))
    trick = trick_bound(g, (0,), (7,), f, mode="single")
    h = hopping.hamiltonian(0.0)
    probe = commutator_series(
        g, h, ladder(ctx, 0).matrix, ladder(ctx, 7).matrix, (0,), (7,), times
    )
    curve_vals = np.array([trick(probe.distance, t) for t in times])
    measured = probe.values / (probe.norm_a * probe.norm_b)
    excess = measured - curve_vals

    # the fallback sum that replaces the trick for fermionic systems:
    # every complement site contributes a unit-size curve term
    radius = 3
    x_r = [z for z in g.vertices if g.distance(0, z) <= radius]
    outside = [z for z in g.vertices if z not in x_r]
    fallback = {
        t: float(sum(f(g.distance(0, zz), t) for zz in outside)) for t in times
    }

    return {
        "commutator_norm": comm_norm,
        "product_norm": prod_norm,
        "product_identity_gap": abs(comm_norm - 2.0 * prod_norm),
        "even_odd_commutator": even_odd,
        "times": times,
        "measured_odd": measured,
        "even_trick_curve": curve_vals,
        "max_excess": float(excess.max()),
        "excess_at_zero": float(excess[0]),
        "fallback_radius": radius,
        "fallback_sites": tuple(outside),
        "fallback_sum": fallback,
        "sweep": dict(probe.info),
    }
