"""Local perturbations perturb locally.

A gapped family H(s) = H_0 + s W with W supported on a region X moves its
spectral-window expectation values only weakly far from X: the flow
generator for the family is quasi-local around X, so truncating it away
from an observable region Y changes the transported projector by at most
the truncation defect, and measured differences |Tr(P(1)A) - Tr(P(0)A)|
decay in the distance d(X, supp A).  This module builds perturbed
families, truncates flow generators onto the complement of an observable
region, and fits the measured decay exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flow import WeightFunction, gap_analysis, hastings_generator
from .fock import LocalOperator, conditional_expectation, number_operator, build_context
from .interactions import MODELS, Interaction, Model, model
from .lattice import build_lattice, set_distance, site_set
from .linalg import is_hermitian, op_norm
from .registry import Entry

__all__ = [
    "perturbed_family",
    "CHAIN",
    "perturbed_atomic_chain",
    "localized_generator",
    "LpplReport",
    "LpplError",
    "lppl_measure",
]

FIT_FLOOR = 1e-13


class LpplError(ValueError):
    """The measurement could not be completed.  ``report`` holds the
    measured differences, with the reason among its findings, when only
    the tail fit failed, and is None when the window did."""

    def __init__(self, reason: str, report: "LpplReport | None" = None):
        super().__init__(reason)
        self.report = report


def _trace_product(p: np.ndarray, a: np.ndarray) -> complex:
    """Tr(P A) as an elementwise sum, without forming the product."""
    return np.einsum("ij,ji->", p, a)


def perturbed_family(phi: Interaction, w: LocalOperator, onsite: dict | None = None) -> Model:
    """Family H(s) = H_0 + s W with exact derivative W.

    The perturbation must be even and self-adjoint so every H(s) is a
    legitimate fermionic Hamiltonian.
    """
    if not isinstance(w, LocalOperator):
        raise TypeError("the perturbation must be a LocalOperator")
    if not w.support:
        raise ValueError("the perturbation needs a declared support")
    if not is_hermitian(w.block):
        raise ValueError("the perturbation must be self-adjoint")
    if w.parity != "even" and w.norm() > 1e-12:
        raise ValueError("the perturbation must be even")
    return model("local_perturbation", phi.ctx, phi=phi, w=w, onsite=onsite or {})


def _chain_check(v, fitted: bool):
    """The chain's rules; ``fitted``: its response gets a tail fit."""
    n, site, strength, step = int(v["n"]), int(v["site"]), float(v["strength"]), float(v["field_step"])
    yield from MODELS["atomic_limit"].check({"alpha_tb": v["alpha_tb"]}, 1, None)  # on a path
    far = max(site, n - 1 - site)
    if not 0 <= site < n:
        yield "site", "perturbed site must lie on the chain"
    elif fitted and strength > 0 and far < 4:
        reason = "the tail fit needs sites at distances 2, 3 and 4 from the perturbed site"
        yield "site", f"{reason}; the farthest is at distance {far}"
    if strength < 0:
        yield "strength", "must be nonnegative"
    elif strength >= 0.7 * step:
        reason = "perturbation strength risks a level crossing in the window; keep it below"
        yield "strength", f"{reason} 0.7 * field_step = {0.7 * step:g}"


# the chain of ``perturbed_atomic_chain``, the lppl config's ``chain``
CHAIN = Entry(
    "chain",
    {
        "n": (int, 8), "site": (int, 0), "alpha_tb": (float, 4.0), "hop": (float, 0.5),
        "base_field": (float, 4.0), "field_step": (float, 1.0), "strength": (float, 0.5),
    },
    _chain_check,
)


def perturbed_atomic_chain(**chain):
    """Staggered-field chain with long-range hopping, perturbed at one site.

    ``chain`` takes the parameters of ``CHAIN``, each defaulting there.
    Returns (family, window).  The site fields grow linearly away from the
    perturbed site, so the energy window isolates the single orbital
    anchored there; the window tracks it for every s in [0, 1].
    """
    v = CHAIN.require(chain, False)
    site, base_field, step, strength = v["site"], v["base_field"], v["field_step"], v["strength"]
    g = build_lattice("path", v["n"])
    ctx = build_context(g)
    mu = [base_field + step * g.distance(site, z) for z in g.vertices]
    base = model("atomic_limit", ctx, mu=mu, J=v["hop"], alpha_tb=v["alpha_tb"])
    w = strength * number_operator(ctx, [site])
    family = perturbed_family(base.interaction.sample(0.0), w, onsite=base.onsite)
    window = (base_field - 0.8 * step, base_field + strength + 0.25 * step)
    return family, window


def localized_generator(ctx, h, w, weight: WeightFunction, observable_region):
    """Flow generator truncated onto the complement of the observable region.

    Returns (matrix, defect): the conditional expectation of the hastings
    generator onto the sites outside ``observable_region`` and the norm of
    what the truncation removed.  An empty region truncates nothing.  The
    truncated generator is even and supported away from the observables,
    so the flow it generates leaves every observable on the region fixed.
    """
    g_full = hastings_generator(h, w, weight)
    y = site_set(ctx.graph, observable_region)
    if not y:
        return g_full, 0.0
    keep = tuple(z for z in ctx.graph.vertices if z not in set(y))
    g_loc = conditional_expectation(ctx, keep, g_full)
    return g_loc, float(op_norm(g_loc - g_full))


@dataclass
class LpplReport:
    """Measured response of a spectral window to a local perturbation."""

    x_region: tuple
    s_grid: np.ndarray
    gaps: np.ndarray
    rank: int
    distances: np.ndarray  # sorted distinct probe distances
    differences: np.ndarray  # per-distance envelope, normalized by ||A||
    per_probe: list
    slope: float | None
    intercept: float | None
    residual: float | None
    fit_distances: np.ndarray
    tail_monotone: bool
    findings: tuple = field(default_factory=tuple)


def lppl_measure(
    family: Model,
    window,
    probes=None,
    s_grid=None,
) -> LpplReport:
    """Differences |Tr(P(1)A) - Tr(P(0)A)| against distance from the
    perturbation, with a power-law fit of the tail.

    The window must select a cluster of constant rank along the whole
    path; a window that does not separate or changes rank raises
    ``LpplError``.  The fit regresses log |difference| on log(1 + d) over
    the distances d >= 2 whose differences exceed ``FIT_FLOOR``; fewer than
    3 usable distances raise ``LpplError`` with the measured report unless
    every difference is at the floor (nothing moved, nothing to fit).  A
    non-monotone tail is reported as a finding, not an error.
    """
    ctx = family.ctx
    g = ctx.graph
    f_minus, f_plus = float(window[0]), float(window[1])
    dphi = family.interaction.derivative(0.0)
    x_region = tuple(sorted({z for key in dphi.terms for z in key}))
    if not x_region:
        raise ValueError("the perturbation has no declared support")

    s_grid = np.linspace(0.0, 1.0, 5) if s_grid is None else np.asarray(s_grid, float)
    gaps, ranks = [], set()
    for k, s in enumerate(s_grid):  # keeps only the end projectors, the ones read below
        try:
            rep = gap_analysis(family.hamiltonian(float(s)), f_minus, f_plus)
        except ValueError as err:  # the window does not separate the spectrum
            raise LpplError(f"{err} at s = {s:g}") from err
        gaps.append(rep.gap)
        ranks.add(rep.rank)
        if k == 0:
            p0 = rep.projector
    p1 = rep.projector
    if len(ranks) != 1:
        raise LpplError(f"window rank changes along the path: {sorted(ranks)}")
    (rank,) = ranks

    if probes is None:
        probes = [number_operator(ctx, [z]) for z in g.vertices]

    findings = []
    per_probe = []
    cap = 2.0 * rank  # normalized trace-difference bound for any projector pair
    by_distance: dict = {}
    for a in probes:
        norm = a.norm()
        if norm <= 0.0:
            findings.append(f"probe on {a.support} has zero norm; skipped")
            continue
        am = a.matrix
        diff = abs(_trace_product(p1, am) - _trace_product(p0, am)) / norm
        if diff > cap + 1e-9:
            raise AssertionError("difference exceeds the rank cap; projectors are broken")
        dist = None
        if a.support:
            dist = 0 if set(a.support) & set(x_region) else set_distance(g, x_region, a.support)
            by_distance[dist] = max(by_distance.get(dist, 0.0), float(diff))
        per_probe.append({"support": a.support, "distance": dist, "difference": float(diff)})

    distances = np.array(sorted(by_distance), dtype=int)
    envelope = np.array([by_distance[d] for d in distances])

    tail = distances >= 2
    usable = tail & (envelope > FIT_FLOOR)
    slope = intercept = residual = unfit = None
    fit_d = distances[usable]
    tail_monotone = bool(np.all(np.diff(envelope[tail]) <= 1e-15)) if tail.any() else True
    if envelope.size == 0 or envelope.max() <= FIT_FLOOR:
        findings.append("all differences at the numerical floor; nothing to fit")
    elif int(usable.sum()) < 3:
        unfit = "fewer than 3 usable distances for the tail fit"
        findings.append(unfit)
    else:
        xs = np.log1p(fit_d.astype(float))
        ys = np.log(envelope[usable])
        coef, res, *_ = np.linalg.lstsq(np.stack([xs, np.ones_like(xs)], axis=1), ys, rcond=None)
        slope, intercept = float(coef[0]), float(coef[1])
        pred = coef[0] * xs + coef[1]
        residual = float(np.sqrt(np.mean((ys - pred) ** 2)))
        if not tail_monotone:
            findings.append("tail envelope is not monotone; the fit may be unstable")

    report = LpplReport(
        x_region=x_region,
        s_grid=s_grid,
        gaps=np.array(gaps),
        rank=rank,
        distances=distances,
        differences=envelope,
        per_probe=per_probe,
        slope=slope,
        intercept=intercept,
        residual=residual,
        fit_distances=fit_d,
        tail_monotone=tail_monotone,
        findings=tuple(findings),
    )
    if unfit:
        raise LpplError(unfit, report)
    return report
