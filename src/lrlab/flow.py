"""Quasi-local inverse of the Heisenberg generator and spectral flow.

The inverse takes an operator A with Bohr frequencies (eigenvalue gaps of H
connecting its matrix blocks) of magnitude at least ``gap`` and returns J(A)
with -i[H, J(A)] = A.  Frequencies below ``soft`` are annihilated and the
crossover is an infinitely flat mollified step, which is what keeps the
time-domain representation

    J(A) = integral W(t) e^{iHt} A e^{-iHt} dt

quasi-local: the weight W is odd, bounded by 1/2, and decays faster than
any inverse power.  Its frequency profile is  W^(omega) =
-i chi(|omega|) / (sqrt(2 pi) omega)  with chi the mollified step, so the
eigenbasis filter is  phi(omega) = (i/omega) chi(|omega|).

Spectral flow: for a differentiable gapped family H(s) with spectral
projector P(s), both generator choices

    kato generator        D = i [P'(s), P(s)]
    hastings generator    D = -J_{H(s)}(H'(s))

satisfy P'(s) = -i[D(s), P(s)], so the unitary solving U' = -i D U
transports P(0) to P(s).  The hastings generator is the one with certified
quasi-locality; the kato generator is the exact reference construction.

Every decomposition here runs on numpy's LAPACK, as everywhere in lrlab
(see ``linalg``): interleaving it with scipy's separately bundled
OpenBLAS makes the two thread pools compete for the cores.  The kato
generator takes one ``eigh`` per sample.

Sector route: the inverse (so the hastings generator), the extraction,
the kato generator and ``sector_gap`` diagonalise H (from dim 32 on) once
per sector of the first charge it conserves exactly (particle number,
else parity; ``fock._charge_sectors``) and filter block pair by block
pair, skipping pairs where the input or the kernel is identically zero; a
generic dense H is the one-sector case, bit for bit a single ``eigh``.
The generators then conserve the same charge exactly, so
``automorphic_deviation``'s transport (``dynamics.Propagator``) steps
block by block and its deviation norms are per block too.
``gap_analysis`` stays dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import sici

from .dynamics import Propagator, StepperSettings
from .fock import FockContext, LocalOperator, _charge_sectors, expectation_block
from .interactions import Interaction
from .lattice import fatten
from .linalg import op_norm

__all__ = [
    "smooth_step",
    "WeightFunction",
    "build_weight_spectrum",
    "GapReport",
    "sector_gap",
    "GapAnalysis",
    "gap_analysis",
    "inverse_liouvillian",
    "layer_split",
    "local_decomposition",
    "extract_interaction",
    "kato_generator",
    "hastings_generator",
    "automorphic_deviation",
]

WINDOW_EDGE_TOL = 1e-9  # closest an eigenvalue may sit to a gap_analysis window boundary


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, flat at both ends."""
    x = np.asarray(x, dtype=float)

    def bump(y):
        out = np.zeros_like(y)
        pos = y > 0
        with np.errstate(over="ignore"):
            out[pos] = np.exp(-1.0 / y[pos])
        return out

    lo = bump(x)
    hi = bump(1.0 - x)
    out = np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, lo / np.where(lo + hi > 0, lo + hi, 1.0)))
    return out if out.ndim else float(out)


class WeightFunction:
    """Mollified inverse-frequency weight for one gap value.

    ``0 <= soft < gap``: the filter is exactly i/omega above ``gap``,
    exactly zero below ``soft``, and interpolates smoothly in between.
    With ``soft = 0`` the annihilation window degenerates to the single
    frequency 0, which is the right choice for flow generators.
    """

    def __init__(self, gap: float, soft: float = 0.0):
        if gap <= 0:
            raise ValueError("gap must be positive")
        soft = float(soft)
        if not 0.0 <= soft < gap:
            raise ValueError("need gap > soft >= 0")
        self.gap = float(gap)
        self.soft = soft
        # composite Gauss-Legendre on [soft, gap] for the
        # (1 - chi(omega)) sin(omega t)/omega part; 6 panels of 16 nodes keep
        # the oscillatory integrand resolved at large |t|
        x, w = leggauss(16)
        edges = np.linspace(self.soft, self.gap, 6 + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mids = 0.5 * (edges[1:] + edges[:-1])
        self._nodes = (mids[:, None] + half[:, None] * x[None, :]).ravel()
        scale = (half[:, None] * w[None, :]).ravel()
        self._coeff = scale * (1.0 - self.chi(self._nodes)) / self._nodes

    @property
    def time_scale(self) -> float:
        """Frequency scale that sets the decay horizon of W(t)."""
        return self.soft if self.soft > 0 else 0.5 * self.gap

    def chi(self, omega):
        """Mollified step in |omega|: 0 below soft, 1 above gap."""
        om = np.abs(np.asarray(omega, dtype=float))
        return smooth_step((om - self.soft) / (self.gap - self.soft))

    def filter_at(self, omega):
        """Eigenbasis filter phi(omega) = (i/omega) chi(|omega|)."""
        om = np.asarray(omega, dtype=float)
        chi = self.chi(om)
        safe = np.where(chi > 0, om, 1.0)
        out = 1j * chi / safe
        return out if out.ndim else complex(out)

    def spectrum(self, omega):
        """Frequency profile W^(omega) = -i chi(|omega|) / (sqrt(2 pi) omega)."""
        om = np.asarray(omega, dtype=float)
        chi = np.asarray(self.chi(om))
        safe = np.where(chi > 0, om, 1.0)
        out = np.asarray(-1j * chi / (math.sqrt(2.0 * math.pi) * safe))
        return out if out.ndim else complex(out)

    def time_value(self, t):
        """W(t), the odd time-domain weight; |W| <= 1/2."""
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        si = sici(self.soft * at)[0]
        inner = np.sin(np.multiply.outer(at, self._nodes)) @ self._coeff
        out = np.sign(t) * (0.5 - (si + inner) / math.pi)
        return out if out.ndim else float(out)

    def filter_numeric(self, omega, horizon: float, density: float = 8.0):
        """Filter recovered from the time-domain form by quadrature:
        integral_0^T 2i W(t) sin(omega t) dt, Gauss-Legendre panels."""
        om = np.asarray(omega, dtype=float)
        max_om = float(np.abs(om).max(initial=0.0))
        n_panels = max(1, int(math.ceil(horizon * max(density, max_om))))
        x, w = leggauss(8)
        edges = np.linspace(0.0, horizon, n_panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mids = 0.5 * (edges[1:] + edges[:-1])
        ts = (mids[:, None] + half[:, None] * x[None, :]).ravel()
        ws = (half[:, None] * w[None, :]).ravel()
        wt = self.time_value(ts) * ws
        # sum_k 2i W(t_k) w_k sin(om t_k), vectorized over the omega array
        return 2j * np.tensordot(wt, np.sin(np.multiply.outer(ts, om)), axes=(0, 0))


def build_weight_spectrum(
    gap: float, soft: float = 0.0, shape: str = "mollifier"
) -> WeightFunction:
    """Weight for a family with spectral gap ``gap`` and annihilation
    window ``[-soft, soft]``.  Only the infinitely flat mollified step is
    implemented as the crossover shape."""
    if shape != "mollifier":
        raise ValueError(f"unknown crossover shape {shape!r}")
    return WeightFunction(gap, soft)


@dataclass
class GapReport:
    eigenvalues: np.ndarray
    sector_dim: int
    gap: float
    projector: np.ndarray


def sector_gap(h, sector_dim: int = 1) -> GapReport:
    """Spectral gap between the lowest ``sector_dim`` levels and the rest."""
    spec = _Spectrum(h)
    k, evals, inside = spec.lowest(sector_dim)
    held = [np.count_nonzero(inside[r]) for r in spec.span]
    proj = spec.sectors.assemble(
        ((i, i), v[:, :c] @ v[:, :c].conj().T) for i, (v, c) in enumerate(zip(spec.vecs, held)) if c
    )
    return GapReport(
        eigenvalues=evals,
        sector_dim=k,
        gap=float(evals[k] - evals[k - 1]),
        projector=proj,
    )


@dataclass
class GapAnalysis:
    """Spectral-window report: the cluster inside [f_minus, f_plus]."""

    f_minus: float
    f_plus: float
    eigenvalues: np.ndarray
    selected: np.ndarray  # boolean mask, True on the in-window levels
    rank: int
    gap: float  # distance from the cluster to the rest of the spectrum
    diameter: float  # spread of the cluster
    projector: np.ndarray


def gap_analysis(h, f_minus: float, f_plus: float) -> GapAnalysis:
    """Select the part of the spectrum inside an energy window.

    The window must separate cleanly: an eigenvalue within ``WINDOW_EDGE_TOL``
    of either boundary is an error, as are an empty selection and a
    selection leaving no complement.
    """
    hm = _as_matrix(h)
    if not f_minus < f_plus:
        raise ValueError("window must be nonempty (f_minus < f_plus)")
    evals, vecs = np.linalg.eigh(hm)
    near = min(
        float(np.abs(evals - f_minus).min()),
        float(np.abs(evals - f_plus).min()),
    )
    if near <= WINDOW_EDGE_TOL:
        raise ValueError("window boundary touches the spectrum")
    inside = (evals > f_minus) & (evals < f_plus)
    if not inside.any():
        raise ValueError("no spectrum inside the window")
    if inside.all():
        raise ValueError("window covers the whole spectrum, no complement")
    sel = evals[inside]
    rest = evals[~inside]
    proj = vecs[:, inside] @ vecs[:, inside].conj().T
    return GapAnalysis(
        f_minus=float(f_minus),
        f_plus=float(f_plus),
        eigenvalues=evals,
        selected=inside,
        rank=int(inside.sum()),
        gap=float(np.abs(sel[:, None] - rest[None, :]).min()),
        diameter=float(sel.max() - sel.min()),
        projector=proj,
    )


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, LocalOperator):
        return x.matrix
    return np.asarray(x, dtype=np.complex128)


class _Spectrum:
    """Eigendecomposition of a Hermitian H, one ``eigh`` per charge sector.

    The sectors are those of the first charge H conserves exactly
    (``fock._charge_sectors``: particle number, else parity, else the whole
    space, which is also the rule below dim 32).  Sector k holds the
    eigenvectors ``vecs[k]``; ``evals`` lists the eigenvalues sector by
    sector, sector k at ``span[k]``.  The dense route is the one-sector
    case.
    """

    def __init__(self, h):
        h = _as_matrix(h)
        self.dim = h.shape[0]
        self.sectors = _charge_sectors(h)
        evals, self.vecs = zip(*(np.linalg.eigh(b) for b in self.sectors.blocks(h)))
        self.evals = np.concatenate(evals)
        edges = np.cumsum([0] + self.sizes)
        self.span = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]

    @property
    def sizes(self) -> list:
        return list(self.sectors.sizes)

    def bohr(self) -> np.ndarray:
        """Bohr frequencies E_i - E_j, levels in sector order."""
        return self.evals[:, None] - self.evals[None, :]

    def lowest(self, count):
        """(count, the eigenvalues in ascending order, the mask in sector
        order of the lowest ``count`` levels); both parts must be nonempty."""
        count = int(count)
        if not 0 < count < self.dim:
            raise ValueError("sector must be a proper nonempty subset of the spectrum")
        order = np.argsort(self.evals, kind="stable")
        inside = np.zeros(self.dim, dtype=bool)
        inside[order[:count]] = True
        return count, self.evals[order], inside

    def transform(self, a: np.ndarray, kernel, live=None) -> np.ndarray:
        """V_k kernel(V_k^dagger A_kl V_l, span[k], span[l]) V_l^dagger over
        the sector pairs (k, l), skipping those where A_kl is exactly 0 and,
        given the boolean pair matrix ``live``, those where it is False."""

        def block(k, l):
            vk, vl = self.vecs[k], self.vecs[l]
            x = vk.conj().T @ self.sectors.block(a, k, l) @ vl
            return vk @ kernel(x, self.span[k], self.span[l]) @ vl.conj().T

        reach = self.sectors.reach(a)
        pairs = zip(*np.nonzero(reach if live is None else reach & live))
        return self.sectors.assemble(((k, l), block(k, l)) for k, l in pairs)

    def apply_filter(self, a: np.ndarray, f: np.ndarray) -> np.ndarray:
        """V (f o V^dagger A V) V^dagger for a filter f on ``bohr()``."""
        return self.transform(a, lambda x, rows, cols: f[rows, cols] * x)


def inverse_liouvillian(
    h,
    a,
    weight: WeightFunction,
    method: str = "eigenbasis",
    horizon: float | None = None,
    density: float = 8.0,
):
    """J(A) with -i[H, J(A)] = A on Bohr frequencies above the weight's gap.

    Returns (matrix, info).  The eigenbasis route applies the filter to the
    energy-difference matrix exactly.  The time-domain route integrates the
    weighted Heisenberg orbit with Gauss-Legendre panels up to ``horizon``
    and reports a refinement budget (difference against a longer, denser
    quadrature) in info["budget"]; the identity can only hold up to that
    budget plus the truncated tail.  info["sectors"] lists the sizes of
    H's charge sectors; one entry means the dense route.
    """
    spec = _Spectrum(h)
    am = _as_matrix(a)
    om = spec.bohr()
    info: dict = {"method": method, "sectors": spec.sizes}
    if method == "eigenbasis":
        info["budget"] = 0.0
        # the exact filter, evaluated only on the sector pairs A reaches
        kernel = lambda x, rows, cols: weight.filter_at(om[rows, cols]) * x  # noqa: E731
        return spec.transform(am, kernel), info
    if method == "time_domain":
        t_max = 100.0 / weight.time_scale if horizon is None else float(horizon)
        f = weight.filter_numeric(om, t_max, density)
        f_ref = weight.filter_numeric(om, 1.5 * t_max, 1.5 * density)
        info["budget"] = float(np.abs(f - f_ref).max()) * float(op_norm(am))
        info["horizon"] = t_max
        f = f_ref
    else:
        raise ValueError("method must be 'eigenbasis' or 'time_domain'")
    return spec.apply_filter(am, f), info


def layer_split(ctx: FockContext, matrix, base, max_layers: int | None = None):
    """Split an operator into layers anchored on a base region.

    Layer 0 is the conditional expectation onto the base; layer j is the
    difference of expectations onto the base fattened by j and j-1.  The
    layers sum to the operator exactly (the final fattening covers every
    site) and layer j is supported on the j-fattened region.  Each layer is
    stored as its block on that region.  The full matrix is read once, for
    the largest region; each smaller region's block is the partial trace of
    the next larger one (E_R = E_R E_R' for R inside R').
    """
    g = ctx.graph
    m = _as_matrix(matrix)
    base = tuple(sorted(set(int(x) for x in base)))
    if not base:
        raise ValueError("base region must be nonempty")
    regions = [base]
    while set(regions[-1]) != set(g.vertices) and (
        max_layers is None or len(regions) <= max_layers
    ):
        regions.append(fatten(g, base, len(regions)))
    blocks = [expectation_block(ctx, regions[-1], m)]
    for small, big in zip(regions[-2::-1], regions[:0:-1]):
        blocks.insert(0, expectation_block(ctx, small, blocks[0], within=big))
    pieces = [LocalOperator.from_block(ctx, blocks[0], base)]
    for small, big, inner, outer in zip(regions, regions[1:], blocks, blocks[1:]):
        layer = outer.copy()
        LocalOperator.from_block(ctx, -inner, small).add_to(layer, big)
        pieces.append(LocalOperator.from_block(ctx, layer, big))
    return pieces


def local_decomposition(
    ctx: FockContext,
    h,
    op: LocalOperator,
    weight: WeightFunction,
    max_layers: int | None = None,
):
    """Quasi-local layers of the filtered image of a local term.

    Applies the inverse to ``op`` and splits the result into conditional-
    expectation layers anchored on the term's support; without truncation
    the layers sum to J(op) exactly.
    """
    if not isinstance(op, LocalOperator):
        raise TypeError("need a LocalOperator (the support anchors the layers)")
    jm, _ = inverse_liouvillian(h, op.matrix, weight)
    return layer_split(ctx, jm, op.support, max_layers)


def extract_interaction(
    ctx: FockContext,
    h,
    phi: Interaction,
    weight: WeightFunction,
) -> Interaction:
    """Quasi-local interaction representing A -> J_H(A) term by term.

    Each interaction term Phi(Z) maps to J(Phi(Z)), decomposed into layers
    anchored on Z; layers supported on the same region accumulate, so the
    assembled result equals J applied to the assembled input.  Negating
    the assembled sum gives the hastings flow generator when ``phi``
    samples the s-derivative of the family.
    """
    spec = _Spectrum(h)
    f = weight.filter_at(spec.bohr())
    acc: dict = {}
    for term in phi.terms.values():
        jm = spec.apply_filter(term.matrix, f)
        for piece in layer_split(ctx, jm, term.support):
            key = piece.support
            acc[key] = acc.get(key, 0.0) + piece.block
    out = Interaction(ctx)
    for key, b in sorted(acc.items()):
        b = 0.5 * (b + b.conj().T)  # symmetrize away quadrature roundoff
        out.add_term(key, LocalOperator.from_block(ctx, b, key))
    return out


def kato_generator(h_fn, s: float, sector_dim: int = 1, step: float = 1e-4) -> np.ndarray:
    """Exact-diagonalization flow generator D = i[P'(s), P(s)].

    H' uses a fourth-order central difference of ``h_fn``, so the family
    must be evaluable slightly outside the endpoints.  H(s) is diagonalised
    once (numpy's ``eigh``, like every decomposition in lrlab; see
    ``linalg``) and P' is formed in its eigenbasis: with P the lowest
    ``sector_dim`` levels, P'_ij = H'_ij / (E_i - E_j) for i in P and j
    not, H'_ij / (E_j - E_i) for j in P and i not, and 0 otherwise, so a
    pair of charge sectors is skipped unless one holds a level of P and the
    other a level outside it.  A sector whose gap E_k - E_{k-1} is not
    positive raises ValueError.
    """

    def at(x):
        return _as_matrix(h_fn(x))

    h_dot = (
        at(s - 2 * step) - 8.0 * at(s - step) + 8.0 * at(s + step) - at(s + 2 * step)
    ) / (12.0 * step)
    spec = _Spectrum(at(s))
    k, evals, inside = spec.lowest(sector_dim)
    if not evals[k] - evals[k - 1] > 0:
        raise ValueError("sector is not separated from the rest of the spectrum")
    om = spec.bohr()
    held = np.array([np.count_nonzero(inside[r]) for r in spec.span])
    rest = np.array(spec.sizes) - held
    live = np.outer(held > 0, rest > 0) | np.outer(rest > 0, held > 0)

    def kernel(h_eig, rows, cols):
        # i[P', P]_ij = i P'_ij (p_j - p_i) = i H'_ij / (E_j - E_i) across
        # the sector boundary, and 0 within either block
        cross = inside[rows][:, None] != inside[cols][None, :]
        d = np.zeros_like(h_eig)
        d[cross] = 1j * h_eig[cross] / -om[rows, cols][cross]
        return d

    return spec.transform(h_dot, kernel, live)


def hastings_generator(h, h_prime, weight: WeightFunction) -> np.ndarray:
    """Quasi-local flow generator D = -J_{H(s)}(H'(s))."""
    out, _ = inverse_liouvillian(h, h_prime, weight)
    return -out


def automorphic_deviation(
    h_fn,
    d_fn,
    sector_dim: int = 1,
    s_grid=None,
    settings: StepperSettings | None = None,
) -> dict:
    """max_s || P(s) - U(s) P(0) U(s)^dagger || along the flow.

    The instantaneous projectors come from exact diagonalization; U solves
    the flow equation for the supplied generator.  Small deviation is the
    automorphic-equivalence statement made quantitative.  Each norm is
    taken block by block on the charge sectors the difference conserves,
    and "sectors" reports the sizes of the sectors the transport ran on
    (``Propagator.sectors``; one entry means the dense route).
    """
    s_grid = np.linspace(0.0, 1.0, 11) if s_grid is None else np.asarray(s_grid, float)
    prop = Propagator(d_fn, settings)
    us = prop.grid(s_grid)
    projectors = [sector_gap(h_fn(float(s)), sector_dim).projector for s in s_grid]
    per = []
    for p_s, u in zip(projectors, us):
        diff = p_s - u @ projectors[0] @ u.conj().T
        per.append(_charge_sectors(diff).norm(diff))
    per = np.array(per)
    return {
        "deviation": float(per.max()),
        "per_time": per,
        "times": s_grid,
        "worst_defect": prop.worst_defect,
        "worst_unitarity": prop.worst_unitarity,
        "sectors": prop.sectors,
    }
