"""Two-parameter unitary propagators and Heisenberg commutator sweeps.

U(t, s) solves  i dU/dt = H(t) U,  U(s, s) = 1.  Steps use the fourth-order
two-node Gauss (Magnus) exponential rule, whose exponent is Hermitian up to
the factor -i, so every step is exactly unitary; the product of a
segment's steps is snapped back to the unitary group once, by its polar
factor, and the whole interval is re-integrated with doubled resolution
until two successive resolutions agree.  For a time-independent generator the two resolutions
agree exactly and the first check already converges.

The stepper works block by block on the charge sectors of the generator's
first sample (``fock._charge_sectors``: particle number, else parity, else
the whole space, from dim 32 on).  Every later sample is checked to keep
those sectors' exact zeros; the Magnus exponent, its exponential, the
polar snap, the defect and the unitarity residual are then per block, and
so are ``Propagator.grid``'s accumulation and snap.  A sample that
connects two sectors sends the rest of that propagation to the whole
space, the one-sector case of the same code, which is also the dense
route.  ``propagate``'s info lists the sector sizes it ended on.

Heisenberg evolution is tau_{t,s}(A) = U(t,s)* A U(t,s); a sweep records
the operator norm of [tau_{t,s}(A), B] over a time grid together with the
support metadata that locality bounds consume.  A sweep takes one of two
routes.  "magnus" runs the stepper above segment by segment and takes
each commutator norm on the whole space.  "eigh" (``commutator_norms``)
serves a constant H: one ``eigh`` per charge sector, the finest charge H
conserves under which A and B each map sectors one to one, and phases
rotated block by block in the eigenbasis.  Each source sector then feeds
exactly one block of the commutator, so its norm is exactly the largest
block norm.  A probe of no definite charge, or an H that conserves
nothing, runs on one sector: the dense route, by the same code.  Both
routes record the sector sizes in the series' info.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import LocalOperator, _charge_partitions, _charge_sectors, _partition
from .interactions import Model
from .lattice import set_distance
from .linalg import expm_hermitian, is_hermitian, op_norm, polar_unitary

__all__ = [
    "StepperSettings",
    "Propagator",
    "propagate",
    "heisenberg",
    "lr_sweep",
    "commutator_norms",
    "CommutatorSeries",
]


@dataclass(frozen=True)
class StepperSettings:
    tol: float = 1e-10  # agreement between successive resolutions
    target_step_action: float = 0.25  # |dt| * ||H|| per initial step
    max_doublings: int = 12
    herm_tol: float = 1e-10
    unitarity_tol: float = 1e-10


def _check_hermitian(h: np.ndarray, tol: float):
    if not is_hermitian(h, tol):
        raise ValueError("generator sample is not self-adjoint")


_GAUSS_OFFSET = np.sqrt(3.0) / 6.0


def _integrate(
    gen, s: float, t: float, n_steps: int, settings: StepperSettings, sectors=None
):
    """U(t, s) from ``n_steps`` Magnus steps and one polar snap.

    Works block by block on ``sectors``, by default those of the first
    sample.  A sample that connects two of them moves the rest of the
    integration to the whole space: the steps before it are block-diagonal
    exactly, so their product carries over.
    """
    dt = (t - s) / n_steps
    u = None
    for k in range(n_steps):
        t0 = s + k * dt
        h1 = np.asarray(gen(t0 + (0.5 - _GAUSS_OFFSET) * dt), dtype=np.complex128)
        h2 = np.asarray(gen(t0 + (0.5 + _GAUSS_OFFSET) * dt), dtype=np.complex128)
        _check_hermitian(h1, settings.herm_tol)
        _check_hermitian(h2, settings.herm_tol)
        if sectors is None:
            sectors = _charge_sectors(h1)
        if u is None:
            u = [np.eye(size, dtype=np.complex128) for size in sectors.sizes]
        if not (sectors.keeps(h1) and sectors.keeps(h2)):
            u = [sectors.block_diag(u)]
            sectors = _partition(h1.shape[0], "none")
        # Magnus exponent truncated at fourth order; the commutator term is
        # i times a Hermitian matrix, so exp(-i K) is exactly unitary
        u = [
            expm_hermitian(
                0.5 * dt * (a + b) - 1j * (np.sqrt(3.0) / 12.0) * dt**2 * (b @ a - a @ b), -1j
            )
            @ v
            for a, b, v in zip(sectors.blocks(h1), sectors.blocks(h2), u)
        ]
    return sectors.block_diag([polar_unitary(v) for v in u])


def _kept(sectors, u: np.ndarray):
    """``sectors`` if ``u`` keeps them, else the whole space."""
    return sectors if sectors.keeps(u) else _partition(u.shape[0], "none")


def propagate(gen, s: float, t: float, settings: StepperSettings | None = None):
    """Propagator U(t, s) for the time-dependent generator ``gen``.

    Returns (U, info) where info records the accepted resolution, the
    defect between the last two resolutions, the unitarity residual, and
    the sizes of the charge sectors the propagation ran on ("sectors"; one
    entry means the dense route).
    """
    settings = settings or StepperSettings()
    h0 = np.asarray(gen(0.5 * (s + t)), dtype=np.complex128)
    _check_hermitian(h0, settings.herm_tol)
    sectors = _charge_sectors(h0)
    dim = h0.shape[0]
    if t == s:
        return np.eye(dim, dtype=np.complex128), {
            "steps": 0, "defect": 0.0, "unitarity": 0.0, "sectors": list(sectors.sizes),
        }
    scale = max(1.0, sectors.norm(h0))
    n = max(1, int(np.ceil(abs(t - s) * scale / settings.target_step_action)))
    u_prev = _integrate(gen, s, t, n, settings, sectors)
    sectors = _kept(sectors, u_prev)
    for _ in range(settings.max_doublings):
        n *= 2
        u_next = _integrate(gen, s, t, n, settings, sectors)
        sectors = _kept(sectors, u_next)
        defect = max(
            float(np.linalg.norm(a - b, 2))
            for a, b in zip(sectors.blocks(u_next), sectors.blocks(u_prev))
        )
        u_prev = u_next
        if defect <= settings.tol:
            break
    else:
        raise RuntimeError(
            f"propagator failed to reach tol={settings.tol} (last defect {defect})"
        )
    residual = max(
        float(np.abs(b.conj().T @ b - np.eye(b.shape[0])).max()) for b in sectors.blocks(u_prev)
    )
    if residual > settings.unitarity_tol:
        raise RuntimeError(f"unitarity residual {residual} above tolerance")
    return u_prev, {
        "steps": n, "defect": defect, "unitarity": residual, "sectors": list(sectors.sizes),
    }


class Propagator:
    """Cached two-parameter propagator for one generator.

    ``sectors`` holds the sizes of the coarsest charge sectors any
    propagation or grid accumulation ran on (one entry: the dense route).
    """

    def __init__(self, gen, settings: StepperSettings | None = None):
        self.gen = gen
        self.settings = settings or StepperSettings()
        self._cache: dict = {}
        self.worst_defect = 0.0
        self.worst_unitarity = 0.0
        self.sectors = None

    def _record_sectors(self, sizes: list):
        if self.sectors is None or len(sizes) < len(self.sectors):
            self.sectors = sizes

    def u(self, t: float, s: float) -> np.ndarray:
        if (t, s) in self._cache:
            return self._cache[(t, s)]
        if (s, t) in self._cache:
            return self._cache[(s, t)].conj().T
        mat, info = propagate(self.gen, s, t, self.settings)
        self.worst_defect = max(self.worst_defect, info["defect"])
        self.worst_unitarity = max(self.worst_unitarity, info["unitarity"])
        self._record_sectors(info["sectors"])
        self._cache[(t, s)] = mat
        return mat

    def grid(self, times) -> list[np.ndarray]:
        """U(t_k, t_0) for every grid time, built segment by segment.

        The product and its polar snap run block by block on the charge
        sectors of the generator's sample at t_0, and on the whole space
        from the first segment that does not keep them.
        """
        times = list(times)
        if not times:
            return []
        sectors = _charge_sectors(np.asarray(self.gen(times[0])))
        acc = [np.eye(size, dtype=np.complex128) for size in sectors.sizes]
        out = [sectors.block_diag(acc)]
        for t_prev, t in zip(times, times[1:]):
            u = self.u(t, t_prev)
            if not sectors.keeps(u):
                acc = [sectors.block_diag(acc)]
                sectors = _partition(u.shape[0], "none")
            acc = [polar_unitary(b @ a) for b, a in zip(sectors.blocks(u), acc)]
            full = sectors.block_diag(acc)
            self._cache[(t, times[0])] = full
            out.append(full)
        self._record_sectors(list(sectors.sizes))
        return out


def heisenberg(u: np.ndarray, a) -> np.ndarray:
    """tau(A) = U* A U."""
    if isinstance(a, LocalOperator):
        a = a.matrix
    return u.conj().T @ np.asarray(a) @ u


@dataclass
class CommutatorSeries:
    times: np.ndarray
    values: np.ndarray
    distance: int
    size_x: int
    size_y: int
    norm_a: float
    norm_b: float
    flags: tuple = ()
    info: dict = field(default_factory=dict)


# most entries one batch of per-time commutator blocks may hold; the time
# grid is split to stay below it.  2**14 complex entries (256 KB) is the
# size of one dense dim-128 matrix, so the batches raise peak memory no
# higher than the dense per-time loop at dim 128; batches of 2**20 entries
# raised a certify-sweep process's peak RSS by 1.8 MB
_BATCH_ENTRIES = 2**14


def _block_map(sectors, m: np.ndarray) -> dict | None:
    """Source sector -> target sector of the nonzero blocks of ``m``.

    None if a source feeds two targets or a target receives from two
    sources.  Blocks are nonzero if any entry is exactly nonzero.
    """
    target, source = np.nonzero(sectors.reach(m))
    if np.unique(source).size < source.size or np.unique(target).size < target.size:
        return None
    return dict(zip(source.tolist(), target.tolist()))


def _commutator_paths(sectors, a: np.ndarray, b: np.ndarray):
    """Block maps of A and B and the column blocks of [A_t, B] they allow.

    Returns (amap, bmap, paths) with one path (l, target, mid_ab, mid_ba)
    per source sector l whose column block can be nonzero: A_t B runs
    l -> mid_ab -> target and B A_t runs l -> mid_ba -> target, a mid being
    None where that product vanishes.  None if A or B has no block map, if
    the two products of one source land in different sectors, or if two
    sources share a target.
    """
    amap, bmap = _block_map(sectors, a), _block_map(sectors, b)
    if amap is None or bmap is None:
        return None
    paths = []
    for l in range(len(sectors.sizes)):
        mid_ab = bmap.get(l) if bmap.get(l) in amap else None
        mid_ba = amap.get(l) if amap.get(l) in bmap else None
        targets = {amap[mid_ab]} if mid_ab is not None else set()
        if mid_ba is not None:
            targets.add(bmap[mid_ba])
        if len(targets) > 1:
            return None
        if targets:
            paths.append((l, targets.pop(), mid_ab, mid_ba))
    if len({target for _, target, _, _ in paths}) < len(paths):
        return None
    return amap, bmap, paths


def commutator_norms(
    h: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    times,
    unitarity_tol: float = StepperSettings.unitarity_tol,
):
    """||[e^{iHt} A e^{-iHt}, B]|| at every t, by one ``eigh`` per charge sector.

    The sectors are those of the finest charge H conserves exactly
    (``fock._charge_partitions``: particle number, else parity, else the
    whole space, which is also the rule below dim 32) under which A and B
    each map every source sector into at most one target sector, and no
    target receives from two sources; a probe of no definite charge thus
    ends on the whole space, the one-sector case of the same code.

    H is block-diagonal, so A_t = e^{iHt} A e^{-iHt} has A's block map.
    The column block of C = [A_t, B] leaving sector l is A_t B through
    b(l) minus B A_t through a(l); both land in one sector, and distinct
    sources land in distinct sectors.  C*C is therefore block-diagonal and
    ||C|| is exactly the largest norm of these column blocks.  Only the
    nonzero blocks of A and B are rotated into the eigenbasis, and each
    column block is formed for a batch of times at once.  Hermitian pairs
    take the symmetric-eigenvalue fast path on blocks that return to their
    own sector, since i[A_t, B] is then Hermitian.

    Returns (values, info, (||A||, ||B||)), the two norms read off the same
    blocks.  info is the series info of the "eigh" route: the route, the
    defect (0), the unitarity residual of the eigenvectors (above
    ``unitarity_tol`` the sweep raises) and the sector sizes ("sectors";
    one entry means the dense route).
    """
    h, a, b = (np.asarray(m, dtype=np.complex128) for m in (h, a, b))
    for sectors in _charge_partitions(h):
        plan = _commutator_paths(sectors, a, b)
        if plan is not None:
            break
    amap, bmap, paths = plan
    sizes = sectors.sizes
    evals, vecs = zip(*(np.linalg.eigh(blk) for blk in sectors.blocks(h)))
    residual = max(float(np.abs(v.conj().T @ v - np.eye(v.shape[0])).max()) for v in vecs)
    if residual > unitarity_tol:
        raise RuntimeError(f"unitarity residual {residual} above tolerance")

    def rotated(m, block_map):
        return {
            l: vecs[k].conj().T @ sectors.block(m, k, l) @ vecs[l] for l, k in block_map.items()
        }

    at, bt = rotated(a, amap), rotated(b, bmap)
    herm = is_hermitian(a, 1e-12) and is_hermitian(b, 1e-12)
    times = np.asarray(times, dtype=float)
    phase = [np.exp(1j * np.multiply.outer(times, w)) for w in evals]

    def a_t(src, ks):
        """A_t's block leaving sector ``src``, at the times ``ks``."""
        return (phase[amap[src]][ks, :, None] * at[src]) * phase[src][ks, None, :].conj()

    vals = np.zeros_like(times)
    for l, target, mid_ab, mid_ba in paths:
        step = max(1, _BATCH_ENTRIES // (sizes[target] * max(sizes)))
        for lo in range(0, times.size, step):
            ks = slice(lo, lo + step)
            comm = 0.0
            if mid_ab is not None:
                comm = a_t(mid_ab, ks) @ bt[l]
            if mid_ba is not None:
                comm = comm - bt[mid_ba] @ a_t(l, ks)
            if herm and target == l:
                norms = np.abs(np.linalg.eigvalsh(1j * comm)).max(axis=-1)
            else:
                norms = np.linalg.svd(comm, compute_uv=False)[..., 0]
            vals[ks] = np.maximum(vals[ks], norms)
    info = {"route": "eigh", "defect": 0.0, "unitarity": residual, "sectors": list(sizes)}
    probe_norms = tuple(
        max((op_norm(sectors.block(m, k, l)) for l, k in block_map.items()), default=0.0)
        for m, block_map in ((a, amap), (b, bmap))
    )
    return vals, info, probe_norms


def _constant_sample(gen, times: np.ndarray, settings: StepperSettings):
    """The matrix ``gen`` returns on the whole grid, if it is constant there.

    Samples every node the stepper's first two resolutions would use on
    each segment: its start and midpoint, and both Gauss nodes of every
    step at n and at 2n steps, n being the stepper's own step count.  If
    all samples are bitwise equal, both resolutions multiply out to
    exp(-iH(t - s)), which is what the stepper would accept; any mismatch
    returns None.
    """
    # a copy, since a generator may hand out one buffer it overwrites
    h = np.array(gen(times[0]), dtype=np.complex128)
    scale = max(1.0, _charge_sectors(h).norm(h))  # as ``propagate`` computes it
    for s, t in zip(times[:-1], times[1:]):
        n = max(1, int(np.ceil(abs(t - s) * scale / settings.target_step_action)))
        nodes = [s, 0.5 * (s + t)]
        for steps in (n, 2 * n):
            dt = (t - s) / steps
            for k in range(steps):
                t0 = s + k * dt
                nodes += [t0 + (0.5 - _GAUSS_OFFSET) * dt, t0 + (0.5 + _GAUSS_OFFSET) * dt]
        if not all(np.array_equal(gen(node), h) for node in nodes):
            return None
    return h


def lr_sweep(
    model_or_gen,
    a: LocalOperator,
    b: LocalOperator,
    times,
    max_range=None,
    settings: StepperSettings | None = None,
) -> CommutatorSeries:
    """Measured ||[tau_{t,t0}(A), B]|| over a time grid.

    ``model_or_gen`` is a Model (assembled with an optional strict diameter
    cut) or a bare generator callable t -> matrix.  Supports and parities
    are read off the operators; evolving an odd-odd pair is allowed but
    flagged, since no locality guarantee covers it.

    A Model whose path is constant (its phi1 holds no nonzero block), and
    a bare generator that returns the same matrix at every node the
    stepper would sample (``_constant_sample``), take the "eigh" route
    (``commutator_norms``); everything else takes the "magnus" route.  The
    route is recorded in ``info`` beside the defect, the unitarity residual
    and the sizes of the charge sectors the sweep ran on ("sectors"; on the
    "magnus" route those of the propagation, one entry meaning dense).
    """
    settings = settings or StepperSettings()
    times = np.asarray(list(times), dtype=float)
    if isinstance(model_or_gen, Model):
        m = model_or_gen

        def gen(t):
            return m.hamiltonian(t, max_range)

        graph = m.ctx.graph
        h = gen(times[0]) if m.interaction.is_constant and times.size else None
    else:
        gen = model_or_gen
        graph = a.ctx.graph
        h = _constant_sample(gen, times, settings) if times.size else None

    flags = []
    if a.parity != "even" and b.parity != "even":
        flags.append("no-parity-guarantee")
    if set(a.support) & set(b.support):
        dist = 0
    else:
        dist = set_distance(graph, a.support, b.support)

    if h is not None:
        _check_hermitian(h, settings.herm_tol)
        vals, info, _ = commutator_norms(
            h, a.matrix, b.matrix, times - times[0], settings.unitarity_tol
        )
    else:
        prop = Propagator(gen, settings)
        am, bm = a.matrix, b.matrix
        vals = np.empty_like(times)
        for k, u in enumerate(prop.grid(times)):
            evolved = heisenberg(u, am)
            vals[k] = op_norm(evolved @ bm - bm @ evolved)
        info = {
            "route": "magnus", "defect": prop.worst_defect, "unitarity": prop.worst_unitarity,
            "sectors": prop.sectors,
        }
    return CommutatorSeries(
        times=times,
        values=vals,
        distance=dist,
        size_x=len(a.support),
        size_y=len(b.support),
        norm_a=a.norm(),
        norm_b=b.norm(),
        flags=tuple(flags),
        info=info,
    )
