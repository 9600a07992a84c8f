"""Canonical anticommutation algebra on a finite mode set.

Modes are ordered site-major (all spin species of site 0, then site 1, ...)
and mode m occupies bit m of the Fock basis index, so basis state k has
mode m filled iff (k >> m) & 1.  Ladder operators carry the sign string of
the ordered-product convention

    |n> = (a*_0)^{n_0} (a*_1)^{n_1} ... |vac>,

which makes them explicit signed-permutation matrices: no tensor-product
assembly is needed, and the matrices stay sparse.

Moving a mode subset F to the front of the ordered product is a signed
permutation of basis states (``_mode_permutation``).  In the reordered
basis an element of the subalgebra of F is 1 (x) B, with B a 2^|F| x 2^|F|
block on the Fock space of F alone, odd elements included: the modes of F
come first in the product, so no sign string crosses the other modes.
Local operators are stored as that block and the site set it lives on;
the dense matrix is built each time it is asked for, by scattering the
block through the signed permutation of its support, which is cached
per mode layout and shared by every context.  No operator built from a
block keeps its dense matrix.

Particle number is the popcount of the basis index and parity the lowest
bit of that count.  ``_charge_partitions`` lists the sectors of each of
the two that a given matrix conserves exactly, finest first, and
``_charge_sectors`` takes the first; the flow and dynamics modules
diagonalise and propagate block by block on those sectors.

The conditional expectation onto the subalgebra of a site subset X is the
orthogonal projection in the normalized Hilbert-Schmidt inner product.  It
is computed by rotating the X modes to the front, taking the normalized
partial trace over the remaining factor, and rotating back.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .lattice import LatticeGraph, site_set
from .linalg import is_hermitian, op_norm

__all__ = [
    "FockContext",
    "LocalOperator",
    "build_context",
    "dim_cap",
    "ladder",
    "number_operator",
    "parity_class",
    "conditional_expectation",
    "expectation_block",
    "support_of",
    "car_table_residual",
]

DEFAULT_DIM_CAP = 4096
PARITY_TOL = 1e-10
# largest entry a dense matrix may leave off its declared support, relative
# to its own largest entry
SUPPORT_TOL = 1e-10


def dim_cap() -> int:
    """Largest Hilbert-space dimension a context may have (LRLAB_DIM_CAP)."""
    return int(os.environ.get("LRLAB_DIM_CAP", DEFAULT_DIM_CAP))


def _ladder_entries(n_modes: int, mode: int, dagger: bool):
    """(rows, cols, vals) of one ladder operator on ``n_modes`` modes."""
    bit = 1 << mode
    k = np.arange(2**n_modes, dtype=np.int64)
    occupied = (k & bit) != 0
    cols = k[~occupied] if dagger else k[occupied]
    rows = cols ^ bit
    # sign string of the modes below ``mode`` in the ordered product
    below = np.bitwise_count(cols & (bit - 1)).astype(np.int64)
    vals = (1.0 - 2.0 * (below & 1)).astype(np.complex128)
    return rows, cols, vals


def _parity_diagonal(n_modes: int) -> np.ndarray:
    k = np.arange(2**n_modes, dtype=np.int64)
    return 1 - 2 * (np.bitwise_count(k).astype(np.int64) & 1)


@functools.cache
def _mode_permutation(n_modes: int, front) -> tuple[np.ndarray, np.ndarray]:
    """Basis relabeling that moves the modes ``front`` to the low bit positions.

    Returns (index, sign): the reordered-product basis vector m equals
    sign[m] times the standard basis vector index[m].  The sign counts the
    transpositions needed to sort the occupied creation operators back into
    ascending mode order.  Both arrays are read-only, since they are
    cached per (n_modes, front) and shared by every context.
    """
    order = list(front) + [m for m in range(n_modes) if m not in front]
    new = np.arange(2**n_modes, dtype=np.int64)
    index = np.zeros_like(new)
    for pos, mode in enumerate(order):
        index |= ((new >> pos) & 1) << mode
    inversions = np.zeros_like(new)
    for j, mode in enumerate(order):
        # occupied modes placed before ``mode`` although they sort after it
        later = sum(1 << m for m in order[:j] if m > mode)
        if later:
            inversions += ((index >> mode) & 1) * np.bitwise_count(index & later).astype(np.int64)
    sign = 1.0 - 2.0 * (inversions & 1)
    index.setflags(write=False)
    sign.setflags(write=False)
    return index, sign


def _copy_view(m: np.ndarray, index: np.ndarray, lo: int) -> np.ndarray:
    """Strided view of ``m`` on the copies of a ``lo``-dimensional block.

    Entry [a, l, l'] (each multi-index flattened in C order) is
    m[index[a*lo + l], index[a*lo + l']].  A relabeling from
    ``_mode_permutation`` puts each bit of the new index on one bit of the
    old one, so every copy is a strided sub-grid of ``m``, and the copies
    sit along its diagonal.
    """
    n = index.size.bit_length() - 1
    k = lo.bit_length() - 1
    weights = [int(w) for w in index[1 << np.arange(n - 1, -1, -1)]]  # high bit first
    rs, cs = m.strides
    strides = (
        tuple(w * (rs + cs) for w in weights[: n - k])
        + tuple(w * rs for w in weights[n - k :])
        + tuple(w * cs for w in weights[n - k :])
    )
    return np.lib.stride_tricks.as_strided(m, (2,) * (n + k), strides)


def _scatter_add(out: np.ndarray, block: np.ndarray, index: np.ndarray, sign: np.ndarray):
    """out += the embedding of ``block`` under the relabeling (index, sign).

    The embedding is 1 (x) block in the reordered basis: one copy of the
    block per configuration of the modes outside the support, and no two
    entries of the embedding land on the same entry of ``out``.  Sparse
    blocks and blocks with many copies touch only the block's nonzero
    entries; dense blocks with few copies add one signed copy at a time
    through a strided view, so no temporary exceeds one block.
    """
    lo = block.shape[0]
    hi = index.size // lo
    if hi == 1:
        # the support holds every mode, in ascending order: the identity
        out += block
        return
    r, c = np.nonzero(block)
    # an indexed entry costs about eight strided ones
    if hi >= lo or 8 * r.size <= lo * lo + 2048:
        idx = index.reshape(-1, lo)
        sgn = sign.reshape(-1, lo)
        out[idx[:, r], idx[:, c]] += (sgn[:, r] * sgn[:, c]) * block[r, c]
    else:
        view = _copy_view(out, index, lo)
        copies = view.shape[: view.ndim - 2 * (lo.bit_length() - 1)]
        shape = view.shape[len(copies) :]
        for pos, s in zip(np.ndindex(copies), sign.reshape(hi, lo)):
            view[pos] += (np.outer(s, s) * block).reshape(shape)


def _partial_trace(m: np.ndarray, index: np.ndarray, sign: np.ndarray, lo: int) -> np.ndarray:
    """Normalized trace of ``m`` over the copies of a ``lo``-dimensional block.

    The inverse of ``_scatter_add``'s embedding up to the normalization:
    the block of the conditional expectation, in the convention of
    ``LocalOperator.block``.  Only the diagonal copies of ``m`` are read.
    """
    hi = index.size // lo
    if hi == 1:
        return m.copy()
    copies = _copy_view(m, index, lo).reshape(hi, lo, lo)
    s = sign.reshape(hi, lo)
    return np.einsum("al,am,alm->lm", s, s, copies) / hi


def _classify_parity(matrix: np.ndarray, p: np.ndarray, tol: float) -> str:
    twisted = (p[:, None] * matrix) * p[None, :]
    scale = max(1.0, float(np.abs(matrix).max(initial=0.0)))
    if np.abs(twisted - matrix).max(initial=0.0) <= tol * scale:
        return "even"
    if np.abs(twisted + matrix).max(initial=0.0) <= tol * scale:
        return "odd"
    return "mixed"


# below this dimension one dense decomposition costs less than finding and
# looping over sectors: on 2 vCPUs the flow generators and ``sector_gap``
# run about twice as fast dense at dim 8 and 16, within a third of each
# other at dim 32, and 2.5 to 4 times faster by sector at dim 128.  The
# commutator sweep (``dynamics.commutator_norms``, 20 times) is already
# faster by sector at dim 32: 1.0-2.1 ms against 2.3-2.9 ms on one sector
# for long-range hopping by particle number, 2.1-3.0 ms against 3.6-4.5 ms
# for a random two-body H by parity, and 3.6-4.0 ms against 14-15 ms at
# dim 64
_MIN_SECTOR_DIM = 32


class _Sectors:
    """A partition of the basis states into charge sectors.

    ``label[i]`` is the sector of basis state i, and sector k holds the
    states ``index[k]``.  A single sector is the whole space, indexed by a
    full slice, so its block of a matrix is the matrix itself.  Partitions
    are shared per dimension (``_partition``) and never change.
    """

    def __init__(self, label: np.ndarray):
        label.setflags(write=False)
        self.label = label
        count = int(label.max(initial=0)) + 1
        if count == 1:
            self.index = [slice(None)]
            self._rows = self.index
        else:
            self.index = [np.flatnonzero(label == k) for k in range(count)]
            for i in self.index:
                i.setflags(write=False)
            self._rows = [i[:, None] for i in self.index]
        self.sizes = (label.size,) if count == 1 else tuple(i.size for i in self.index)
        self._onehot = np.eye(count, dtype=np.float32)[label]

    def keeps(self, m: np.ndarray) -> bool:
        """Whether every entry of ``m`` between two sectors is exactly 0."""
        return len(self.sizes) == 1 or not m[self.label[:, None] != self.label[None, :]].any()

    def reach(self, m: np.ndarray) -> np.ndarray:
        """Which pairs of sectors an exactly nonzero entry of ``m`` connects."""
        return self._onehot.T @ (m != 0).astype(np.float32) @ self._onehot > 0

    def block(self, m: np.ndarray, k: int, l: int) -> np.ndarray:
        """The block of ``m`` with rows in sector k and columns in sector l."""
        return m[self._rows[k], self.index[l]]

    def blocks(self, m: np.ndarray) -> list:
        """The diagonal blocks of ``m``, sector by sector."""
        return [self.block(m, k, k) for k in range(len(self.sizes))]

    def assemble(self, pieces) -> np.ndarray:
        """The matrix with the given ((k, l), block) pieces between sectors."""
        out = np.zeros((self.label.size,) * 2, dtype=np.complex128)
        for (k, l), block in pieces:
            out[self._rows[k], self.index[l]] = block
        return out

    def block_diag(self, blocks) -> np.ndarray:
        """The matrix with ``blocks[k]`` on sector k and zeros between sectors."""
        return self.assemble(((k, k), b) for k, b in enumerate(blocks))

    def norm(self, m: np.ndarray) -> float:
        """Operator norm of an ``m`` that ``keeps`` the sectors: the largest
        norm of its diagonal blocks, exactly."""
        return max(op_norm(b) for b in self.blocks(m))


@functools.cache
def _partition(dim: int, charge: str) -> _Sectors:
    """The sectors of particle number, parity or, for "none", the whole space."""
    number = np.bitwise_count(np.arange(dim))
    label = {"number": number, "parity": number & 1, "none": np.zeros(dim)}[charge]
    return _Sectors(label.astype(np.intp))


def _charge_partitions(m: np.ndarray):
    """The sectors of each charge ``m`` conserves exactly, finest first.

    The charges are particle number, then parity, then none (the whole
    space, always last); ``m`` conserves one if it never connects two of
    its values, every such entry exactly 0, with no tolerance.  Below
    ``_MIN_SECTOR_DIM`` only the whole space is listed.
    """
    dim = m.shape[0]
    for charge in ("number", "parity") if dim >= _MIN_SECTOR_DIM else ():
        if _partition(dim, charge).keeps(m):
            yield _partition(dim, charge)
    yield _partition(dim, "none")


def _charge_sectors(m: np.ndarray) -> _Sectors:
    """The sectors of the first charge ``m`` conserves exactly."""
    return next(_charge_partitions(m))


@dataclass(frozen=True)
class FockContext:
    """Fock-space bookkeeping for a lattice with ``spins`` species per site."""

    graph: LatticeGraph
    spins: int
    n_modes: int
    dim: int
    _ladder_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def mode_index(self, site: int, spin: int = 0) -> int:
        if not 0 <= spin < self.spins:
            raise ValueError(f"spin {spin} out of range")
        if not 0 <= site < self.graph.n_sites:
            raise ValueError(f"site {site} out of range")
        return site * self.spins + spin

    def modes_of_sites(self, sites) -> tuple:
        out = []
        for s in site_set(self.graph, sites):
            out.extend(s * self.spins + i for i in range(self.spins))
        return tuple(out)

    def occupations(self) -> np.ndarray:
        """(dim, n_modes) array of basis-state occupation bits."""
        k = np.arange(self.dim, dtype=np.int64)
        return ((k[:, None] >> np.arange(self.n_modes)) & 1).astype(np.int8)

    def parity_diagonal(self) -> np.ndarray:
        """Diagonal of the total particle-number parity operator."""
        return _parity_diagonal(self.n_modes)

    def ladder_sparse(self, mode: int, dagger: bool = False):
        """Sparse ladder matrix for one mode, cached."""
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode {mode} out of range")
        key = (mode, bool(dagger))
        if key not in self._ladder_cache:
            rows, cols, vals = _ladder_entries(self.n_modes, mode, dagger)
            self._ladder_cache[key] = scipy.sparse.csr_matrix(
                (vals, (rows, cols)), shape=(self.dim, self.dim)
            )
        return self._ladder_cache[key]

    def embedding(self, sites, within=None) -> tuple[np.ndarray, np.ndarray]:
        """Signed relabeling (index, sign) that embeds blocks on ``sites``
        into the full space, or into blocks on the larger site set
        ``within``.  Shared by every context, cached per mode layout."""
        if within is None:
            n_modes, front = self.n_modes, self.modes_of_sites(sites)
        else:
            modes = self.modes_of_sites(within)
            n_modes = len(modes)
            front = tuple(modes.index(m) for m in self.modes_of_sites(sites))
        return _mode_permutation(n_modes, front)


def build_context(graph: LatticeGraph, spins: int = 1) -> FockContext:
    if spins < 1:
        raise ValueError("need at least one spin species per site")
    n_modes = spins * graph.n_sites
    cap = dim_cap()
    dim = 2**n_modes
    if dim > cap:
        raise ValueError(
            f"Fock dimension 2^{n_modes} = {dim} exceeds the cap {cap}; "
            "raise LRLAB_DIM_CAP to override"
        )
    return FockContext(graph, spins, n_modes, dim)


def parity_class(ctx: FockContext, matrix: np.ndarray, tol: float = PARITY_TOL) -> str:
    """'even', 'odd', or 'mixed' under conjugation by total parity."""
    return _classify_parity(np.asarray(matrix), ctx.parity_diagonal(), tol)


class LocalOperator:
    """Operator on the Fock space, stored as its block on a declared support.

    The support Z is the set of sites whose modes the operator may involve;
    the block is the 2^m x 2^m matrix on the m modes of Z (in ascending
    mode order, same sign convention as the full space).  Products, sums,
    adjoints, scalar multiples, the norm, the parity and the
    self-adjointness check all work on blocks, lifting both operands to
    the union of their supports first, so each costs O(4^|Z|) rather than
    a power of the full dimension.

    Built from a full dim x dim matrix (``LocalOperator(ctx, matrix, Z)``)
    the operator keeps that matrix as ``matrix`` and extracts its block on
    first local use, raising if the matrix does not live on Z.
    ``from_block`` builds one from its block directly; its ``matrix``
    embeds the block anew on every read and is not kept, so a caller that
    reads it repeatedly holds it in a local.
    """

    def __init__(self, ctx: FockContext, matrix, support, parity: str | None = None):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (ctx.dim, ctx.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match Fock dimension {ctx.dim}"
            )
        self.ctx = ctx
        self.support = site_set(ctx.graph, support)
        self._matrix = matrix
        self._block = None
        self._parity = parity

    @classmethod
    def from_block(cls, ctx: FockContext, block, support, parity: str | None = None):
        support = site_set(ctx.graph, support)
        block = np.asarray(block, dtype=np.complex128)
        side = 2 ** (len(support) * ctx.spins)
        if block.shape != (side, side):
            raise ValueError(
                f"block shape {block.shape} does not match the {side}-dimensional"
                f" space of the modes on {support}"
            )
        op = cls.__new__(cls)
        op.ctx = ctx
        op.support = support
        op._matrix = None
        op._block = block
        op._parity = parity
        return op

    @property
    def block(self) -> np.ndarray:
        if self._block is None:
            self._block = self._compress()
        return self._block

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        out = np.zeros((self.ctx.dim, self.ctx.dim), dtype=np.complex128)
        self.add_to(out)
        return out

    @property
    def parity(self) -> str:
        if self._parity is None:
            m = len(self.support) * self.ctx.spins
            self._parity = _classify_parity(self.block, _parity_diagonal(m), PARITY_TOL)
        return self._parity

    def add_to(self, out: np.ndarray, support=None):
        """Add the operator in place into a dim x dim array, or into a
        block on the larger site set ``support``."""
        _scatter_add(out, self.block, *self.ctx.embedding(self.support, support))

    def _compress(self) -> np.ndarray:
        index, sign = self.ctx.embedding(self.support)
        side = 2 ** (len(self.support) * self.ctx.spins)
        head, head_sign = index[:side], sign[:side]
        block = np.outer(head_sign, head_sign) * self._matrix[np.ix_(head, head)]
        residual = self._matrix.copy()
        _scatter_add(residual, -block, index, sign)
        scale = max(1.0, float(np.abs(self._matrix).max(initial=0.0)))
        if np.abs(residual).max(initial=0.0) > SUPPORT_TOL * scale:
            raise ValueError("operator is not supported on its declared site set")
        return block

    def _lift(self, support: tuple) -> np.ndarray:
        """The block on a larger support."""
        if support == self.support:
            return self.block
        side = 2 ** (len(support) * self.ctx.spins)
        out = np.zeros((side, side), dtype=np.complex128)
        self.add_to(out, support)
        return out

    def norm(self) -> float:
        return op_norm(self.block)

    def adjoint(self) -> "LocalOperator":
        return LocalOperator.from_block(
            self.ctx, self.block.conj().T, self.support, self._parity
        )

    def is_self_adjoint(self, tol: float = 1e-12) -> bool:
        return is_hermitian(self.block, tol)

    def _join(self, other, combine):
        support = tuple(sorted(set(self.support) | set(other.support)))
        block = combine(self._lift(support), other._lift(support))
        return LocalOperator.from_block(self.ctx, block, support)

    def __add__(self, other):
        return self._join(other, np.add)

    def __sub__(self, other):
        return self._join(other, np.subtract)

    def __matmul__(self, other):
        return self._join(other, np.matmul)

    def __mul__(self, scalar):
        return LocalOperator.from_block(
            self.ctx, scalar * self.block, self.support, self._parity
        )

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"LocalOperator(support={self.support}, parity={self.parity}, "
            f"dim={self.ctx.dim})"
        )


def ladder(ctx: FockContext, site: int, spin: int = 0, dagger: bool = False) -> LocalOperator:
    """Annihilation (or creation) operator on one site's modes.

    For sparse full-space matrices use ``ctx.ladder_sparse``.
    """
    ctx.mode_index(site, spin)
    block = np.zeros((2**ctx.spins, 2**ctx.spins), dtype=np.complex128)
    rows, cols, vals = _ladder_entries(ctx.spins, spin, dagger)
    block[rows, cols] = vals
    return LocalOperator.from_block(ctx, block, (site,), parity="odd")


def number_operator(ctx: FockContext, sites=None) -> LocalOperator:
    """Total occupation of all modes attached to ``sites`` (default: all)."""
    if sites is None:
        sites = ctx.graph.vertices
    sites = site_set(ctx.graph, sites)
    k = np.arange(2 ** (len(sites) * ctx.spins), dtype=np.int64)
    diag = np.bitwise_count(k).astype(np.complex128)
    return LocalOperator.from_block(ctx, np.diag(diag), sites, parity="even")


# ---------------------------------------------------------------------------
# mode reordering and the conditional expectation


def conditional_expectation(ctx: FockContext, sites, matrix) -> np.ndarray:
    """Hilbert-Schmidt projection onto the subalgebra of the given sites.

    This is the unique conditional expectation compatible with the
    normalized trace: unital, completely positive, norm-nonincreasing, and
    multiplicative over the subalgebra's own factors.
    """
    sites = site_set(ctx.graph, sites)
    block = expectation_block(ctx, sites, matrix)
    if block.shape[0] == ctx.dim:
        return block
    out = np.zeros((ctx.dim, ctx.dim), dtype=np.complex128)
    _scatter_add(out, block, *ctx.embedding(sites))
    return out


def expectation_block(ctx: FockContext, sites, matrix, within=None) -> np.ndarray:
    """Block of the conditional expectation onto ``sites``, on their modes.

    It is the normalized partial trace over the other modes, in the
    convention of ``LocalOperator.block``: ``LocalOperator.from_block(ctx,
    expectation_block(ctx, X, M), X)`` is the conditional expectation of M
    onto X, built without a dim x dim array.  Given ``within``, a site set
    containing ``sites``, ``matrix`` is a block on ``within`` and the trace
    runs over the modes of ``within`` alone; by the tower property this is
    the expectation onto X of the operator that block represents.
    """
    if isinstance(matrix, LocalOperator):
        matrix = matrix.matrix
    matrix = np.asarray(matrix, dtype=np.complex128)
    side = ctx.dim if within is None else 2 ** (len(site_set(ctx.graph, within)) * ctx.spins)
    if matrix.shape != (side, side):
        raise ValueError("matrix does not live on this context's Fock space")
    sites = site_set(ctx.graph, sites)
    index, sign = ctx.embedding(sites, within)
    return _partial_trace(matrix, index, sign, 2 ** (len(sites) * ctx.spins))


def support_of(ctx: FockContext, matrix, tol: float = 1e-10) -> tuple:
    """Smallest site set whose subalgebra contains the operator (within tol).

    Greedily drops sites whose removal leaves the operator fixed by the
    conditional expectation; distances are normalized Hilbert-Schmidt.
    """
    start = None
    if isinstance(matrix, LocalOperator):
        start = matrix.support
        matrix = matrix.matrix
    matrix = np.asarray(matrix, dtype=np.complex128)
    if start is None:
        start = ctx.graph.vertices
    scale = max(1.0, float(np.linalg.norm(matrix)) / np.sqrt(ctx.dim))

    def fixed_by(candidate):
        proj = conditional_expectation(ctx, candidate, matrix)
        return np.linalg.norm(proj - matrix) / np.sqrt(ctx.dim) <= tol * scale

    keep = list(start)
    if not fixed_by(keep):
        raise ValueError("operator is not supported on its declared site set")
    for s in sorted(start):
        trial = [x for x in keep if x != s]
        if fixed_by(trial):
            keep = trial
    return tuple(keep)


def car_table_residual(ctx: FockContext) -> float:
    """Worst Frobenius deviation over the full anticommutation table.

    Checks {a_i, a_j} = 0, {a*_i, a*_j} = 0 and {a_i, a*_j} = delta_ij
    for every mode pair, using the sparse ladder cache.  The Frobenius
    norm dominates the spectral norm, so a small return value certifies
    the relations in operator norm too.
    """

    def fro(m):
        return float(np.sqrt((np.abs(m.data) ** 2).sum())) if m.nnz else 0.0

    eye = scipy.sparse.identity(ctx.dim, dtype=np.complex128, format="csr")
    worst = 0.0
    for i in range(ctx.n_modes):
        ai = ctx.ladder_sparse(i)
        ai_dag = ctx.ladder_sparse(i, dagger=True)
        for j in range(i, ctx.n_modes):
            aj = ctx.ladder_sparse(j)
            aj_dag = ctx.ladder_sparse(j, dagger=True)
            worst = max(worst, fro(ai @ aj + aj @ ai))
            worst = max(worst, fro(ai_dag @ aj_dag + aj_dag @ ai_dag))
            mixed = ai @ aj_dag + aj_dag @ ai
            if i == j:
                mixed = mixed - eye
            worst = max(worst, fro(mixed))
    return worst
