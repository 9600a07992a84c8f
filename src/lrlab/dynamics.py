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
routes: "eigh" diagonalises a constant H once and rotates phases in its
eigenbasis; "magnus" runs the stepper above segment by segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import LocalOperator, _charge_sectors, _partition
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


def commutator_norms(
    h: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    times,
    unitarity_tol: float = StepperSettings.unitarity_tol,
):
    """||[e^{iHt} A e^{-iHt}, B]|| at every t by one diagonalisation of H.

    Returns (values, residual), where residual is the unitarity residual
    of the eigenvectors; above ``unitarity_tol`` the sweep raises.
    Hermitian pairs take the symmetric-eigenvalue fast path, since
    i[A_t, B] is then Hermitian.
    """
    evals, vecs = np.linalg.eigh(np.asarray(h, dtype=np.complex128))
    residual = float(np.abs(vecs.conj().T @ vecs - np.eye(len(evals))).max())
    if residual > unitarity_tol:
        raise RuntimeError(f"unitarity residual {residual} above tolerance")
    at = vecs.conj().T @ np.asarray(a, dtype=np.complex128) @ vecs
    bt = vecs.conj().T @ np.asarray(b, dtype=np.complex128) @ vecs
    herm = is_hermitian(np.asarray(a), 1e-12) and is_hermitian(np.asarray(b), 1e-12)
    times = np.asarray(times, dtype=float)
    vals = np.empty_like(times)
    for k, t in enumerate(times):
        phase = np.exp(1j * evals * t)
        a_t = (phase[:, None] * at) * phase.conj()[None, :]
        comm = a_t @ bt - bt @ a_t
        if herm:
            vals[k] = float(np.abs(np.linalg.eigvalsh(1j * comm)).max())
        else:
            vals[k] = float(op_norm(comm))
    return vals, residual


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
    route is recorded in ``info`` beside the defect and unitarity residual.
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
        vals, residual = commutator_norms(
            h, a.matrix, b.matrix, times - times[0], settings.unitarity_tol
        )
        info = {"route": "eigh", "defect": 0.0, "unitarity": residual}
    else:
        prop = Propagator(gen, settings)
        am, bm = a.matrix, b.matrix
        vals = np.empty_like(times)
        for k, u in enumerate(prop.grid(times)):
            evolved = heisenberg(u, am)
            vals[k] = op_norm(evolved @ bm - bm @ evolved)
        info = {"route": "magnus", "defect": prop.worst_defect, "unitarity": prop.worst_unitarity}
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
