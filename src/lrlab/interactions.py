"""Interactions: term dictionaries, decay norms, and the model zoo.

An interaction maps finite site sets to even self-adjoint operators.  Its
strength is graded by the weighted norm

    sup_z  sum_{Z containing z}  |Z|^n  ||Phi(Z)||  (diam Z + 1)^alpha,

finite exactly when term norms decay at least like (diam+1)^(-alpha).
Locality estimates consume this norm together with the lattice decay-kernel
norm; the propagation speed they produce is

    v  = 2 e ||F_alpha|| ||Phi||_alpha
    nu = max(v, ||Phi||_{alpha,1}).

Time-dependent families are affine paths t -> phi0 + t phi1: a model
assembles H0 and H1 once and forms each H(t) by one axpy, a path whose
phi1 holds no nonzero block is constant, and since the norm is convex
along a segment its time supremum sits at an interval endpoint.

``MODELS`` is the one list of the zoo: per model an ``Entry`` holding
the parameter names with their types and defaults, the admissibility
check and the builder.  ``model`` builds through it and the config
validator checks against it, so the two cannot disagree about a model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import FockContext, LocalOperator, ladder, number_operator
from .lattice import LatticeGraph, set_diameter, site_set
from .linalg import is_hermitian
from .registry import Entry, lookup, registry

__all__ = [
    "Interaction",
    "TimeDependentInteraction",
    "Model",
    "decay_norm",
    "interaction_norm",
    "time_sup_norm",
    "assemble",
    "lr_velocity",
    "MODELS",
    "model",
    "hop_term",
    "random_two_body",
]

SELF_ADJOINT_TOL = 1e-12


class Interaction:
    """Finite collection of even self-adjoint terms keyed by site sets."""

    def __init__(self, ctx: FockContext, terms: dict | None = None):
        self.ctx = ctx
        self.terms: dict[tuple, LocalOperator] = {}
        self._norms: dict[tuple, float] = {}
        if terms:
            for key, op in terms.items():
                self.add_term(key, op)

    def add_term(self, sites, op: LocalOperator):
        key = site_set(self.ctx.graph, sites)
        if not key:
            raise ValueError("interaction terms need a nonempty site set")
        if not set(op.support) <= set(key):
            raise ValueError(f"term support {op.support} escapes its key {key}")
        if op.parity != "even":
            raise ValueError("interaction terms must be parity even")
        if not is_hermitian(op.block, SELF_ADJOINT_TOL):
            raise ValueError("interaction terms must be self-adjoint")
        if key in self.terms:
            self.terms[key] = self.terms[key] + op
            self._norms.pop(key, None)
        else:
            self.terms[key] = op

    def term_norm(self, key) -> float:
        if key not in self._norms:
            self._norms[key] = self.terms[key].norm()
        return self._norms[key]

    def __add__(self, other: "Interaction") -> "Interaction":
        out = Interaction(self.ctx)
        for key, op in self.terms.items():
            out.add_term(key, op)
        for key, op in other.terms.items():
            out.add_term(key, op)
        return out

    def scale(self, factor) -> "Interaction":
        factor = complex(factor)
        if factor.imag != 0:
            raise ValueError("scale factor must be real")
        out = Interaction(self.ctx)
        for key, op in self.terms.items():
            out.add_term(key, factor.real * op)
        return out

    def __len__(self):
        return len(self.terms)


class TimeDependentInteraction:
    """Affine interaction path t -> phi0 + t phi1 on ``interval``.

    ``sample(t)`` is phi0 itself when the path is constant, that is when
    phi1 holds no nonzero block; ``derivative(t)`` is phi1.
    """

    def __init__(self, phi0: Interaction, phi1: Interaction | None = None, interval=(0.0, 1.0)):
        self.phi0 = phi0
        self.phi1 = Interaction(phi0.ctx) if phi1 is None else phi1
        self.interval = tuple(interval)

    @classmethod
    def constant(cls, phi: Interaction, interval=(0.0, 1.0)):
        return cls(phi, None, interval)

    @property
    def is_constant(self) -> bool:
        return not any(op.block.any() for op in self.phi1.terms.values())

    def sample(self, t: float) -> Interaction:
        return self.phi0 if self.is_constant else self.phi0 + self.phi1.scale(t)

    def derivative(self, t: float) -> Interaction:
        return self.phi1


@dataclass
class Model:
    """A named system: interaction path plus a static on-site part.

    H(t) = H0 + t H1, with H0 the assembled phi0 and on-site terms and H1
    the assembled phi1, both built once per ``max_range`` cut (H1 not at
    all for a constant path).
    """

    name: str
    ctx: FockContext
    interaction: TimeDependentInteraction
    onsite: dict = field(default_factory=dict)  # site -> LocalOperator
    params: dict = field(default_factory=dict)
    _parts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def hamiltonian(self, t: float, max_range=None) -> np.ndarray:
        if max_range not in self._parts:
            path = self.interaction
            h1 = None if path.is_constant else assemble(path.phi1, None, max_range)
            self._parts[max_range] = (assemble(path.phi0, self.onsite, max_range), h1)
        h0, h1 = self._parts[max_range]
        return h0.copy() if h1 is None else h0 + t * h1


def decay_norm(graph: LatticeGraph, term_norms, alpha: float, weight: int = 0) -> float:
    """sup_z sum_{Z ni z} |Z|^weight ||Phi(Z)|| (diam Z + 1)^alpha.

    ``term_norms`` yields (support, norm) pairs, supports as canonical
    site tuples; fermionic and spin interactions both reduce to this.
    """
    if weight < 0:
        raise ValueError("weight must be a nonnegative integer")
    per_site = np.zeros(graph.n_sites)
    for key, nrm in term_norms:
        d = set_diameter(graph, key)
        contrib = len(key) ** weight * float(nrm) * (d + 1.0) ** alpha
        for z in key:
            per_site[z] += contrib
    return float(per_site.max(initial=0.0))


def interaction_norm(phi: Interaction, alpha: float, weight: int = 0) -> float:
    """sup_z sum_{Z ni z} |Z|^weight ||Phi(Z)|| (diam Z + 1)^alpha."""
    norms = ((key, phi.term_norm(key)) for key in phi.terms)
    return decay_norm(phi.ctx.graph, norms, alpha, weight)


def time_sup_norm(phi_t: TimeDependentInteraction, alpha: float, weight: int = 0) -> float:
    """Supremum of the interaction norm over the interval.

    Exact from the two endpoints: every term norm is convex along the
    affine path, and so are their weighted sums and the sup over sites.
    """
    return max(interaction_norm(phi_t.sample(t), alpha, weight) for t in phi_t.interval)


def assemble(phi: Interaction, onsite: dict | None = None, max_range=None) -> np.ndarray:
    """Sum of all terms with diameter strictly below ``max_range``.

    ``max_range=None`` keeps everything.  On-site terms are always kept;
    they sit at diameter zero and do not count against the range cut.
    Each term's block is scattered straight into the result, so the only
    dim x dim array built is the result itself.
    """
    ctx = phi.ctx
    out = np.zeros((ctx.dim, ctx.dim), dtype=np.complex128)
    for key, op in phi.terms.items():
        if max_range is not None and set_diameter(ctx.graph, key) >= max_range:
            continue
        op.add_to(out)
    for op in (onsite or {}).values():
        op.add_to(out)
    return out


def lr_velocity(phi, alpha: float) -> tuple[float, float]:
    """Propagation speed pair (v, nu) for an interaction or a path."""
    from .bounds import BoundParams  # bounds builds on this module

    p = BoundParams.from_interaction(phi, alpha)
    return p.speed, p.speed_max


# ---------------------------------------------------------------------------
# model zoo


def _pair_sites(g: LatticeGraph):
    for x in range(g.n_sites):
        for y in range(x + 1, g.n_sites):
            yield x, y


def hop_term(ctx: FockContext, x: int, y: int) -> LocalOperator:
    """a_x* a_y + a_y* a_x."""
    ax, ay = ladder(ctx, x), ladder(ctx, y)
    return ax.adjoint() @ ay + ay.adjoint() @ ax


def _couplings(coupling):
    """Builder of the constant model coupling(ctx, x, y) J / (1 + d(x, y))^alpha_tb
    on every pair of sites."""

    def build(ctx, v, rng):
        g, phi = ctx.graph, Interaction(ctx)
        for x, y in _pair_sites(g):
            c = v["J"] / (1.0 + g.distance(x, y)) ** v["alpha_tb"]
            phi.add_term((x, y), c * coupling(ctx, x, y))
        return phi, None, {}

    return build


def _atomic_limit(ctx, v, rng):
    g, mu = ctx.graph, v["mu"]
    fields = [float(mu)] * g.n_sites if np.isscalar(mu) else [float(m) for m in mu]
    if len(fields) != g.n_sites:
        raise ValueError("one field per site required")
    hops = _couplings(hop_term)(ctx, v, rng)[0] if v["J"] != 0.0 else Interaction(ctx)
    return hops, None, {z: fields[z] * number_operator(ctx, [z]) for z in g.vertices}


def _random(ctx, v, rng):
    if rng is None:
        raise ValueError("the random_two_body model needs rng")
    return random_two_body(ctx, rng, **v), None, {}


def _admissible(v, dim, n_sites):
    """alpha_tb above the lattice dimension, and a list of fields mu one per site."""
    if v["alpha_tb"] is not None and float(v["alpha_tb"]) <= dim:
        yield "alpha_tb", f"term decay must exceed the lattice dimension D={dim}"
    if "mu" in v and n_sites is not None and np.ndim(v["mu"]) and len(v["mu"]) != n_sites:
        yield "mu", f"need one field per lattice site, got {len(v['mu'])} for {n_sites} sites"


# the model zoo: build(ctx, values, rng) returns the path's phi0 and phi1
# (None: constant) and the on-site terms; check(values, dim, n_sites) yields
# (parameter, reason) pairs for values that cannot be built, or would not
# decay, on a lattice of dimension dim with n_sites sites (None: unknown)
_JA, _ONSITE = {"J": (float, None), "alpha_tb": (float, None)}, {"onsite": (dict, {})}
_ATOMIC = {"mu": (float | list[float], None), "J": (float, 0.0), "alpha_tb": (float, 4.0)}
_RANDOM = {"alpha_tb": (float, 3.0), "strength": (float, 1.0), "pair_fraction": (float, 1.0)}
_DENSITY = lambda ctx, x, y: number_operator(ctx, [x]) @ number_operator(ctx, [y])  # noqa: E731
MODELS = registry(
    Entry("zero", {}, build=lambda ctx, v, rng: (Interaction(ctx), None, {}), noun="model"),
    Entry("long_range_hopping", _JA, _admissible, _couplings(hop_term), "model"),
    Entry("long_range_density", _JA, _admissible, _couplings(_DENSITY), "model"),
    Entry("atomic_limit", _ATOMIC, _admissible, _atomic_limit, "model"),
    Entry("random_two_body", _RANDOM, _admissible, _random, "model"),
    Entry(
        "interpolation", {"phi_a": (Interaction, None), "phi_b": (Interaction, None), **_ONSITE},
        build=lambda ctx, v, rng: (v["phi_a"], v["phi_b"] + v["phi_a"].scale(-1.0), dict(v["onsite"])),
        noun="model",
    ),
    Entry(
        "local_perturbation", {"phi": (Interaction, None), "w": (LocalOperator, None), **_ONSITE},
        build=lambda ctx, v, rng: (v["phi"], Interaction(ctx, {v["w"].support: v["w"]}), dict(v["onsite"])),
        noun="model",
    ),
)


def model(name: str, ctx: FockContext, **params) -> Model:
    """Build a model of ``MODELS``; missing parameters take their defaults.

    ``rng`` reaches the random model only, and keywords a model does not
    take are ignored.
    """
    kind = lookup(MODELS, name, "model")
    values = kind.values(params)
    phi0, phi1, onsite = kind.build(ctx, values, params.get("rng"))
    return Model(name, ctx, TimeDependentInteraction(phi0, phi1), onsite, values)


def random_two_body(
    ctx: FockContext,
    rng: np.random.Generator,
    alpha_tb: float,
    strength: float = 1.0,
    pair_fraction: float = 1.0,
) -> Interaction:
    """Random even two-body interaction with (1+d)^(-alpha_tb) term norms.

    Each kept pair receives a random combination of the seven even
    self-adjoint generators of its two-mode algebra (densities, exchange,
    and pairing quadratures), rescaled to the target norm.
    """
    g = ctx.graph
    phi = Interaction(ctx)
    for x, y in _pair_sites(g):
        if pair_fraction < 1.0 and rng.random() > pair_fraction:
            continue
        ax, ay = ladder(ctx, x), ladder(ctx, y)
        nx, ny = ax.adjoint() @ ax, ay.adjoint() @ ay
        hop = ax.adjoint() @ ay
        pair = ax.adjoint() @ ay.adjoint()
        basis = [
            nx,
            ny,
            nx @ ny,
            hop + hop.adjoint(),
            1j * (hop - hop.adjoint()),
            pair + pair.adjoint(),
            1j * (pair - pair.adjoint()),
        ]
        coeffs = rng.standard_normal(len(basis))
        term = basis[0] * coeffs[0]
        for c, b in zip(coeffs[1:], basis[1:]):
            term = term + c * b
        norm = term.norm()
        if norm < 1e-12:
            continue
        target = strength / (1.0 + g.distance(x, y)) ** alpha_tb
        phi.add_term((x, y), (target / norm) * term)
    return phi
