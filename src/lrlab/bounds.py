"""Certified locality-bound curves for long-range interacting fermions.

All curves bound the normalized commutator ||[tau_{t,s}(A), B]|| with
||A|| = ||B|| = 1, one of the two operators parity even, A supported on X
and B on Y at graph distance r, |t - s| = dt.  Values are always capped at
the trivial bound 2.

Curve families, from crude to sharp:

* finite range: for dynamics truncated to terms of diameter < R, the
  commutator is bounded by cap(2 min(|X|,|Y|) exp(v dt - r/R)) with
  v = 2 e ||F_alpha|| ||Phi||_alpha; a tighter variant replaces the
  exponential cap with (exp(I) - 1) exp(-r/R) for disjoint supports.
* split range: a free split radius R' trades the finite-range leakage
  against a volume term and an integrated tail term; every constant in the
  tail term is explicit (see ``tail_split_constant``).
* power split at R' = r^sigma: the closed-form specialization whose
  leading term is the stretched exponential exp(nu dt - r^(1-sigma)).
* iterated: the split-range improvement step applied repeatedly, with the
  kernel norm ||lambda||, i.e. the largest row sum of the current curve
  over the concrete lattice, evaluated exactly (or through its continuum
  majorant built from shell sums and stretched-tail integrals).  The
  exported curve is the pointwise minimum of every produced level over a
  sigma schedule, so deeper iterations can only improve it.

The iteration requires the split radius to stay strictly above 1; radii
r^sigma <= 1 fall back to the finite-range value, which the trivial cap
absorbs at small r anyway.

``CURVE_FAMILIES`` is the one list of families: per family an ``Entry``
holding the parameter names with their types and defaults, the
admissibility check, the builder and whether its curve is certified.
``curve`` builds through it and ``curve_problems`` checks a spec against
it without computing anything, so the config validator and the runner
cannot disagree about a family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import CommutatorSeries
from .interactions import (
    Interaction,
    TimeDependentInteraction,
    interaction_norm,
    time_sup_norm,
)
from .lattice import LatticeGraph, certify_growth, f_alpha_norm
from .registry import Entry, lookup, registry

__all__ = [
    "BoundParams",
    "BoundCurve",
    "delta_cap",
    "shell_sum_constant",
    "stretched_tail_constant",
    "stretched_tail_integral",
    "tail_split_constant",
    "finite_range_bound",
    "finite_range_tight_bound",
    "split_range_bound",
    "power_split_bound",
    "stretched_light_cone_bound",
    "BoundIteration",
    "iterate_bound",
    "CURVE_FAMILIES",
    "curve",
    "curve_problems",
    "certify",
    "CertificateReport",
]

TRIVIAL_CAP = 2.0
SPLIT_RADIUS_MIN = 1.0 + 1e-9
HEAD_GRID = 256  # Riemann cells on the head interval of the continuum norm


def _exp(x: float) -> float:
    # exp that saturates instead of overflowing; results this large are
    # always consumed through min(..., cap)
    return math.exp(min(x, 690.0))


def delta_cap(u: float) -> float:
    """min(u, 2): any commutator of unit-norm operators is at most 2."""
    if u < 0:
        raise ValueError("cap argument must be nonnegative")
    return min(u, TRIVIAL_CAP)


def shell_sum_constant(dim: int, c_surface: float) -> float:
    """Constant turning shell sums into integrals: sum_{1<=d<=R} f(d) |S(d)|
    <= const * integral_{1/2}^{R} f(q) q^(dim-1) dq for non-increasing f."""
    return 2.0**dim * c_surface


def stretched_tail_constant(mu: float, nu: float) -> float:
    """Constant in the stretched-exponential tail integral bound."""
    if nu <= 0:
        raise ValueError("stretch exponent must be positive")
    return (1.0 / nu) * max(1.0, math.e * math.gamma((mu + 1.0) / nu))


def stretched_tail_integral(mu: float, nu: float, rho: float) -> float:
    """Upper bound for integral_rho^inf exp(-x^nu) x^mu dx, rho > 0."""
    if rho <= 0:
        raise ValueError("lower limit must be positive")
    c = stretched_tail_constant(mu, nu)
    return c * math.exp(-(rho**nu)) * (1.0 + rho ** (mu - nu + 1.0))


def tail_split_constant(dim: int, c_surface: float) -> float:
    """Explicit constant for the integrated-tail term of the split bound.

    Derivation sketch: substitute q = R'x in
    integral_rho^inf (q+1)^(dim-1) exp(-q/R') dq, bound (R'x+1)^(dim-1)
    by R'^(dim-1) (x+1)^(dim-1), expand (x+1)^(dim-1) <= 2^(dim-1)
    (x^(dim-1) + 1), and apply the stretched-tail integral with nu = 1.
    Collecting everything against (rho + R')^(dim-1) R' exp(-rho/R') gives
    2^dim c_surface (2 C_tail(dim-1, 1) + 1).
    """
    return 2.0**dim * c_surface * (2.0 * stretched_tail_constant(dim - 1, 1.0) + 1.0)


@dataclass(frozen=True)
class BoundParams:
    """Everything a bound curve needs to know about one instance."""

    alpha: float
    dim: int
    c_surface: float
    c_volume: float
    speed: float  # v = 2 e ||F_alpha|| ||Phi||_alpha
    speed_max: float  # nu = max(speed, ||Phi||_{alpha,1})
    norm_alpha: float
    norm_alpha_weighted: float  # ||Phi||_{alpha,1}
    f_norm: float
    size_x: int = 1
    size_y: int = 1

    @property
    def min_size(self) -> int:
        return min(self.size_x, self.size_y)

    @classmethod
    def from_norms(
        cls,
        graph: LatticeGraph,
        alpha: float,
        norm_alpha: float,
        norm_alpha_weighted: float,
        size_x: int = 1,
        size_y: int = 1,
    ) -> "BoundParams":
        """Growth constants, ||F_alpha|| and the speed pair from the decay norms."""
        growth = certify_growth(graph)
        f = f_alpha_norm(graph, alpha, "exact")
        v = 2.0 * math.e * f * norm_alpha
        return cls(
            alpha=alpha,
            dim=graph.dim,
            c_surface=growth.c_surface,
            c_volume=growth.c_volume,
            speed=v,
            speed_max=max(v, norm_alpha_weighted),
            norm_alpha=norm_alpha,
            norm_alpha_weighted=norm_alpha_weighted,
            f_norm=f,
            size_x=size_x,
            size_y=size_y,
        )

    @classmethod
    def from_interaction(
        cls, phi, alpha: float, support_x=(0,), support_y=(0,)
    ) -> "BoundParams":
        if isinstance(phi, TimeDependentInteraction):
            ctx, norm = phi.phi0.ctx, time_sup_norm
        elif isinstance(phi, Interaction):
            ctx, norm = phi.ctx, interaction_norm
        else:
            raise TypeError("need an Interaction or TimeDependentInteraction")
        na, na1 = norm(phi, alpha, 0), norm(phi, alpha, 1)
        return cls.from_norms(
            ctx.graph, alpha, na, na1, len(tuple(support_x)), len(tuple(support_y))
        )


# ---------------------------------------------------------------------------
# closed-form curve families


def finite_range_bound(p: BoundParams, r: float, dt: float, max_range: float) -> float:
    """cap(2 min(|X|,|Y|) exp(v dt - r / R)) for diameter-<R dynamics."""
    if max_range < 1:
        raise ValueError("range must be at least 1")
    if r < 0 or dt < 0:
        raise ValueError("distance and time must be nonnegative")
    return delta_cap(2.0 * p.min_size * _exp(p.speed * dt - r / max_range))


def finite_range_tight_bound(
    p: BoundParams, r: float, dt: float, max_range: float, integral: float | None = None
) -> float:
    """2 min(|X|,|Y|) (exp(I) - 1) exp(-r/R), disjoint supports only.

    ``integral`` is the time integral of the instantaneous speed; it
    defaults to its upper bound v * dt.
    """
    if max_range < 1:
        raise ValueError("range must be at least 1")
    if r < 1:
        raise ValueError("this variant needs disjoint supports (r >= 1)")
    if dt < 0:
        raise ValueError("time must be nonnegative")
    i_val = p.speed * dt if integral is None else float(integral)
    return 2.0 * p.min_size * (_exp(i_val) - 1.0) * math.exp(-r / max_range)


def split_range_bound(p: BoundParams, r: float, dt: float, split_range: float) -> float:
    """Three-term bound with a free split radius R' >= 1.

    leading exponential
      + volume term        2 c_volume ||Phi||_{a,1} dt (R'+1)^-a (r+1)^D
      + integrated tail    C_tail ||Phi||_{a,1} dt (R'+1)^-a (r+R')^(D-1) R'
                           exp(v dt - r/R')
    The value at r = 0 is the trivial bound.
    """
    if split_range < 1:
        raise ValueError("split radius must be at least 1")
    if dt < 0 or r < 0:
        raise ValueError("distance and time must be nonnegative")
    if r < 1:
        return TRIVIAL_CAP * p.min_size
    d, a = p.dim, p.alpha
    w = p.norm_alpha_weighted * dt * (split_range + 1.0) ** (-a)
    lead = _exp(p.speed * dt - r / split_range)
    volume = 2.0 * p.c_volume * w * (r + 1.0) ** d
    tail = (
        tail_split_constant(d, p.c_surface)
        * w
        * (r + split_range) ** (d - 1)
        * split_range
        * lead
    )
    return 2.0 * p.min_size * (lead + volume + tail)


def power_split_bound(p: BoundParams, r: float, dt: float, sigma: float) -> float:
    """Split bound at R' = r^sigma, collected into two closed-form terms."""
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie strictly between 0 and 1")
    if dt < 0 or r < 0:
        raise ValueError("distance and time must be nonnegative")
    if r < 1:
        return TRIVIAL_CAP * p.min_size
    d, a = p.dim, p.alpha
    big_c = max(
        2.0 * p.c_volume,
        2.0 ** (d * (1.0 - sigma)) * tail_split_constant(d, p.c_surface),
    )
    lead = _exp(p.speed * dt - r ** (1.0 - sigma))
    rest = big_c * p.norm_alpha_weighted * dt * (r + 1.0) ** (d - a * sigma) * (1.0 + lead)
    return 2.0 * p.min_size * (lead + rest)


def sigma_window(p: BoundParams) -> tuple[float, float]:
    """Admissible open interval for the stretch exponent sigma."""
    return ((p.dim + 1.0) / (p.alpha + 1.0), 1.0)


def stretched_light_cone_bound(
    p: BoundParams, r: float, dt: float, sigma: float, constant: float
) -> float:
    """Closed-form stretched-exponential curve with caller-supplied base
    constant (the sharp value is not exhibited in closed form; certified
    evaluations should use the iterated curve instead)."""
    lo, hi = sigma_window(p)
    if not lo < sigma < hi:
        raise ValueError(f"sigma must lie in ({lo}, {hi})")
    if dt < 0 or r < 0:
        raise ValueError("distance and time must be nonnegative")
    if r < 1:
        return TRIVIAL_CAP * p.min_size
    d = p.dim
    nu_dt = p.speed_max * dt
    lead = _exp(nu_dt - r ** (1.0 - sigma))
    try:
        c_sigma = (
            constant
            * (sigma - lo) ** -2.0
            * (1.0 / (1.0 - sigma))
            * math.gamma(d / (1.0 - sigma))
        )
        rest = c_sigma * (r + 1.0) ** (-sigma * p.alpha) * nu_dt * (
            1.0 + nu_dt ** (d / (1.0 - sigma))
        )
    except OverflowError:
        # sigma near 1 or near lo: the term is beyond floating point, and
        # the trivial cap takes over, except at dt = 0 where it vanishes
        rest = math.inf if nu_dt > 0 else 0.0
    return 2.0 * p.min_size * (lead + rest)


# ---------------------------------------------------------------------------
# the iteration engine


class BoundIteration:
    """Pointwise improvement iteration for one instance at fixed dt.

    Level 0 is the finite-range curve family lambda(r, R) (normalized so the
    commutator bound is min(|X|,|Y|) ||A|| ||B|| lambda).  One step maps the
    family at level n to

        lambda'(r, R) = cap( 2 exp(v dt - r/R')
                             + 2 dt ||Phi||_{a,1} (R'+1)^-a N_n(R') )

    with split radius R' = r^sigma, applied only when 1 < R' < R; otherwise
    the finite-range value at range R is kept.  N_n(R') is the kernel norm
    of level n at parameter R', i.e. the largest row sum of lambda_n(d(x,z), R')
    over the lattice, computed exactly by default or through the continuum
    majorant (shell-sum constant, monotone upper Riemann head, stretched
    tail) when ``norm_route="continuum"``.
    """

    def __init__(
        self,
        p: BoundParams,
        graph: LatticeGraph,
        dt: float,
        schedule,
        norm_route: str = "exact",
    ):
        if dt < 0:
            raise ValueError("time must be nonnegative")
        if norm_route not in ("exact", "continuum"):
            raise ValueError("norm_route must be 'exact' or 'continuum'")
        for s in schedule:
            if not 0.0 < s < 1.0:
                raise ValueError("every sigma must lie strictly between 0 and 1")
        self.p = p
        self.graph = graph
        self.dt = float(dt)
        self.schedule = tuple(float(s) for s in schedule)
        self.norm_route = norm_route
        self.diam = graph.diameter()
        # per-site histogram of distances: hist[x, d] = |{z : d(x,z) = d}|
        self.hist = np.stack(
            [np.bincount(graph.dist[x], minlength=self.diam + 1) for x in range(graph.n_sites)]
        ).astype(float)
        self._value_cache: dict = {}
        self._norm_cache: dict = {}
        self.norm_pairs: list = []  # (level, R, exact, continuum) when both computed

    @property
    def depth(self) -> int:
        return len(self.schedule)

    # -- curve family -------------------------------------------------

    def value(self, level: int, r: float, max_range: float) -> float:
        """lambda_level(r, R); R may be math.inf for the full dynamics."""
        key = (level, float(r), float(max_range))
        out = self._value_cache.get(key)
        if out is not None:
            return out
        p = self.p
        base = delta_cap(
            2.0 * _exp(p.speed * self.dt - (0.0 if math.isinf(max_range) else r / max_range))
        )
        if level == 0:
            out = base
        else:
            sigma = self.schedule[level - 1]
            split = r**sigma if r > 0 else 0.0
            if split <= SPLIT_RADIUS_MIN or split >= max_range:
                out = base
            else:
                first = 2.0 * _exp(p.speed * self.dt - r / split)
                second = (
                    2.0
                    * self.dt
                    * p.norm_alpha_weighted
                    * (split + 1.0) ** (-p.alpha)
                    * self.kernel_norm(level - 1, split)
                )
                out = delta_cap(first + second)
        self._value_cache[key] = out
        return out

    # -- kernel norms ---------------------------------------------------

    def kernel_norm(self, level: int, max_range: float) -> float:
        key = (level, float(max_range), self.norm_route)
        out = self._norm_cache.get(key)
        if out is None:
            if self.norm_route == "exact":
                out = self.lattice_norm(level, max_range)
            else:
                out = self.continuum_norm(level, max_range)
            self._norm_cache[key] = out
        return out

    def lattice_norm(self, level: int, max_range: float) -> float:
        """sup_x sum_z lambda_level(d(x,z), R), summed on the real lattice."""
        vals = np.array(
            [self.value(level, d, max_range) for d in range(self.diam + 1)]
        )
        return float((self.hist @ vals).max())

    def continuum_norm(self, level: int, max_range: float) -> float:
        """Lattice-independent upper estimate of the kernel norm.

        Level 0 uses the closed form 6 C_shell C_tail(D-1,1) R^D (1+(v dt)^D).
        Deeper levels bound the row sum by the r = 0 entry (the cap) plus
        the shell-sum constant times a rigorous upper integral of a single
        non-increasing majorant of the level curve: the pointwise max of
        the finite-range form and the improved form, integrated with a
        left-endpoint Riemann sum on a head interval and a stretched-tail
        integral beyond the point where the curve reverts to its
        finite-range branch.

        The improvement amplitude inside the majorant uses the continuum
        estimate at ``max_range`` itself.  This dominates the amplitude at
        every split radius that actually occurs because the level curves
        are non-decreasing in the range parameter (the improvement branch
        switches on at split = range and only ever jumps upward there), so
        kernel norms are non-decreasing in range too, and by induction the
        continuum estimate at the outer range dominates them all.  The
        recursion stays lattice-free.
        """
        p = self.p
        if math.isinf(max_range):
            raise ValueError("continuum estimate needs a finite range")
        c_shell = shell_sum_constant(p.dim, p.c_surface)
        c16 = stretched_tail_constant(p.dim - 1, 1.0)
        if level == 0:
            return (
                6.0
                * c_shell
                * c16
                * max_range**p.dim
                * (1.0 + (p.speed * self.dt) ** p.dim)
            )

        sigma = self.schedule[level - 1]
        inner = self.continuum_norm(level - 1, max_range)
        amp = 2.0 * self.dt * p.norm_alpha_weighted * inner

        def majorant(rho):
            # max of two non-increasing branches, so globally monotone;
            # dominates the level curve at every range <= max_range
            improved = 2.0 * np.exp(
                np.minimum(p.speed * self.dt - rho ** (1.0 - sigma), 690.0)
            ) + amp * (rho**sigma + 1.0) ** (-p.alpha)
            base = 2.0 * np.exp(
                np.minimum(p.speed * self.dt - rho / max_range, 690.0)
            )
            return np.minimum(TRIVIAL_CAP, np.maximum(base, improved))

        head_lo = 0.5
        turnoff = max(max_range ** (1.0 / sigma), head_lo)  # beyond: base branch
        total = TRIVIAL_CAP  # the r = 0 row entry

        grid = np.geomspace(head_lo, turnoff, HEAD_GRID + 1)
        weights = (grid[1:] ** p.dim - grid[:-1] ** p.dim) / p.dim
        total += c_shell * float(np.sum(majorant(grid[:-1]) * weights))
        # tail: beyond the turnoff the curve is cap(2 exp(v dt - rho/R))
        tail = (
            2.0
            * _exp(p.speed * self.dt)
            * max_range**p.dim
            * c16
            * math.exp(-turnoff / max_range)
            * (1.0 + (turnoff / max_range) ** (p.dim - 1))
        )
        total += c_shell * tail
        return float(total)

    def compare_norms(self, level: int, max_range: float) -> tuple[float, float]:
        """(exact, continuum) kernel norms; records the pair."""
        exact = self.lattice_norm(level, max_range)
        cont = self.continuum_norm(level, max_range)
        self.norm_pairs.append((level, max_range, exact, cont))
        return exact, cont

    # -- exported curve -------------------------------------------------

    def full_curve_values(self, depth: int | None = None) -> np.ndarray:
        """min over levels 0..depth of the full-dynamics curve, with the
        trivial cap and a monotone non-increasing envelope in r."""
        depth = self.depth if depth is None else depth
        rs = np.arange(self.diam + 1, dtype=float)
        levels = np.stack(
            [
                np.array([self.value(k, r, math.inf) for r in rs])
                for k in range(depth + 1)
            ]
        )
        best = levels.min(axis=0)
        # envelope from the right keeps the curve monotone non-increasing
        return np.maximum.accumulate(best[::-1])[::-1]


@dataclass
class BoundCurve:
    """Evaluable bound on the normalized commutator, capped at 2."""

    label: str
    _raw: object  # callable (r, dt) -> float
    provenance: dict = field(default_factory=dict)

    def __call__(self, r: float, dt: float) -> float:
        return float(min(TRIVIAL_CAP, self._raw(r, dt)))


def iterate_bound(
    p: BoundParams,
    graph: LatticeGraph,
    depth: int = 2,
    sigmas=None,
    schedule=None,
    norm_route: str = "exact",
) -> BoundCurve:
    """Certified iterated curve: pointwise minimum over levels and sigmas.

    ``schedule`` pins one sigma per level; otherwise every sigma in
    ``sigmas`` (default: 16 interior points of the admissible window) is
    run as a constant schedule and the minimum over runs is exported.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if schedule is not None:
        schedules = [tuple(schedule)]
        if len(schedules[0]) != depth:
            raise ValueError("schedule length must equal depth")
    else:
        if sigmas is None:
            lo, hi = sigma_window(p)
            lo = max(lo, 0.0)
            sigmas = lo + (hi - lo) * (np.arange(1, 17) / 17.0)
        schedules = [(float(s),) * depth for s in sigmas]

    engines: dict = {}

    def values_for(dt: float) -> np.ndarray:
        if dt not in engines:
            runs = [
                BoundIteration(p, graph, dt, sched, norm_route) for sched in schedules
            ]
            engines[dt] = np.stack([e.full_curve_values() for e in runs]).min(axis=0)
        return engines[dt]

    diam = graph.diameter()

    def raw(r, dt):
        vals = values_for(float(dt))
        idx = min(int(math.floor(r)), diam)
        return p.min_size * vals[idx]

    return BoundCurve(
        label=f"iterated(depth={depth}, {norm_route})",
        _raw=raw,
        provenance={
            "depth": depth,
            "schedules": schedules,
            "norm_route": norm_route,
            "params": p,
        },
    )


# ---------------------------------------------------------------------------
# the curve-family registry

DIAMETER = "the lattice diameter"  # a default resolved against the graph


def _closed_form(name: str, params: dict, check, bound, label: str, **traits) -> Entry:
    """A family evaluated by ``bound(p, r, dt, **values)``, labelled ``name(label)``."""

    def build(p, graph, values, extra):
        return BoundCurve(
            f"{name}({label.format(**values)})",
            lambda r, dt: bound(p, r, dt, **values),
            {**values, "params": p},
        )

    return Entry(name, params, check, build, "family", traits)


def _range_check(v, alpha, dim, distance):
    if v["max_range"] is not None and float(v["max_range"]) < 1:
        yield "max_range", f"max_range must be at least 1 (default: {DIAMETER}), got {v['max_range']}"


def _tight_check(v, alpha, dim, distance):
    yield from _range_check(v, alpha, dim, distance)
    if distance is not None and distance < 1:
        yield None, f"needs disjoint supports (r >= 1), evaluated at r = {distance:g}"


def _split_check(v, alpha, dim, distance):
    if v["split_range"] is None or float(v["split_range"]) <= 0:
        yield "split_range", "needs a positive split_range"
    elif float(v["split_range"]) < 1:
        yield "split_range", f"split_range must be at least 1, got {v['split_range']}"


def _sigma_check(v, alpha, dim, distance):
    lo = (dim + 1.0) / (alpha + 1.0)
    if v["sigma"] is None:
        yield "sigma", "needs a sigma"
    elif not lo < float(v["sigma"]) < 1.0:
        yield "sigma", (
            f"sigma {v['sigma']} outside the admissible interval ({lo:.6g}, 1) set by"
            f" (D+1)/(alpha+1) with D={dim}, alpha={alpha:g}"
        )


def _stretched_check(v, alpha, dim, distance):
    yield from _sigma_check(v, alpha, dim, distance)
    if v["constant"] is None:
        yield "constant", "needs a constant"
    elif float(v["constant"]) <= 0:
        yield "constant", f"constant must be positive, got {v['constant']}"


def _depth_check(v, alpha, dim, distance):
    if int(v["depth"]) < 1:
        yield "depth", "depth must be at least 1"


def _iterated(p, graph, values, extra):
    if graph is None:
        raise ValueError("the iterated family needs the lattice graph")
    return iterate_bound(p, graph, **values, **extra)


_RANGE, _R = {"max_range": (float, DIAMETER)}, "R={max_range:g}"
CURVE_FAMILIES = registry(
    _closed_form("finite_range", _RANGE, _range_check, finite_range_bound, _R),
    _closed_form("finite_range_tight", _RANGE, _tight_check, finite_range_tight_bound, _R),
    _closed_form(
        "split_range", {"split_range": (float, None)}, _split_check, split_range_bound,
        "R'={split_range:g}",
    ),
    _closed_form(
        "power_split", {"sigma": (float, None)}, _sigma_check, power_split_bound,
        "sigma={sigma:g}",
    ),
    # its constant is the caller's, not a proven one
    _closed_form(
        "stretched", {"sigma": (float, None), "constant": (float, None)}, _stretched_check,
        stretched_light_cone_bound, "sigma={sigma:g}", certified=False,
    ),
    Entry("iterated", {"depth": (int, 2)}, _depth_check, _iterated, "family"),
)


def _given(fam: Entry, opt: dict, graph: LatticeGraph | None) -> dict:
    """``opt`` over the lattice diameter (None: no graph) for the parameters
    that default to it."""
    diam = None if graph is None else graph.diameter()
    return {**{k: diam for k, (_, d) in fam.params.items() if d == DIAMETER}, **opt}


def curve(p: BoundParams, family: str, graph: LatticeGraph | None = None, **opt) -> BoundCurve:
    """Build a registered family; missing parameters take their defaults,
    and options outside the registry reach ``iterate_bound`` only."""
    fam = lookup(CURVE_FAMILIES, family, "curve family")
    extra = {k: v for k, v in opt.items() if k not in fam.params}
    return fam.build(p, graph, fam.values(_given(fam, opt, graph)), extra)


def curve_problems(family, opt: dict, alpha, dim, graph=None, distance=None) -> list:
    """Why ``curve(p, family, graph, **opt)`` would fail or raise when
    evaluated down to r = ``distance``; computes nothing."""
    try:
        fam = lookup(CURVE_FAMILIES, family, "curve family")
    except ValueError as err:
        return [str(err)]
    return [reason for _, reason in fam.problems(_given(fam, opt, graph), alpha, dim, distance)]


# ---------------------------------------------------------------------------
# certification


@dataclass
class CertificateReport:
    times: np.ndarray
    measured: np.ndarray  # normalized by ||A|| ||B||
    bounds: dict  # label -> np.ndarray
    distance: int
    slack: float
    ok: bool
    worst_margin: float  # max(measured - tightest bound); <= slack when ok
    tightness: float  # max measured / tightest bound over the grid
    active: list  # label of the tightest curve per grid point

    def rows(self):
        labels = list(self.bounds)
        for k, t in enumerate(self.times):
            yield {
                "time": float(t),
                "measured": float(self.measured[k]),
                **{lab: float(self.bounds[lab][k]) for lab in labels},
                "active": self.active[k],
            }


def certify(
    series: CommutatorSeries, curves, slack: float = 1e-9, t0: float | None = None
) -> CertificateReport:
    """Compare a measured commutator sweep against bound curves.

    Every curve must dominate the normalized measurement at every grid
    point up to ``slack``; the report records margins and which curve is
    tightest where.
    """
    t_ref = series.times[0] if t0 is None else t0
    scale = series.norm_a * series.norm_b
    if scale <= 0:
        raise ValueError("cannot normalize by a zero operator norm")
    measured = series.values / scale
    dts = np.abs(series.times - t_ref)
    bounds = {}
    for c in curves:
        bounds[c.label] = np.array([c(series.distance, dt) for dt in dts])
    stack = np.stack(list(bounds.values()))
    tight = stack.min(axis=0)
    labels = list(bounds)
    active = [labels[i] for i in stack.argmin(axis=0)]
    margin = float((measured - tight).max())
    # zero bounds (e.g. the tight finite-range curve at dt = 0) only count
    # as infinitely slack when the measurement is actually nonzero there
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            tight > 0,
            measured / np.where(tight > 0, tight, 1.0),
            np.where(measured <= slack, 0.0, np.inf),
        )
    return CertificateReport(
        times=series.times.copy(),
        measured=measured,
        bounds=bounds,
        distance=series.distance,
        slack=slack,
        ok=bool(margin <= slack),
        worst_margin=margin,
        tightness=float(np.nanmax(ratio)),
        active=active,
    )
