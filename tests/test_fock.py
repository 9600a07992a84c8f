import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab.fock import (
    LocalOperator,
    build_context,
    car_table_residual,
    conditional_expectation,
    ladder,
    number_operator,
    parity_class,
    support_of,
)
from lrlab.lattice import build_lattice
from lrlab.linalg import is_hermitian, op_norm

TOL = 1e-12

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def kron_ladder(n_modes, mode):
    """Reference ladder built by explicit tensor products.

    Mode m sits on bit m of the basis index, i.e. on the m-th factor from
    the right; the sign string covers all lower modes.
    """
    factors = [ID2] * (n_modes - 1 - mode) + [SIGMA_MINUS] + [SIGMA_Z] * mode
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def majorana_basis(n_modes, modes):
    """Self-adjoint generator pair per mode, from the reference ladders."""
    out = []
    for m in modes:
        a = kron_ladder(n_modes, m)
        out.append(a + a.conj().T)
        out.append(-1j * (a - a.conj().T))
    return out


def oracle_expectation(ctx, sites, matrix):
    """Projection onto the sites' subalgebra via the orthonormal basis of
    ordered products of Majorana generators (slow, definitionally direct)."""
    gens = majorana_basis(ctx.n_modes, ctx.modes_of_sites(sites))
    dim = ctx.dim
    out = np.zeros((dim, dim), dtype=complex)
    for picks in itertools.product([0, 1], repeat=len(gens)):
        c = np.eye(dim, dtype=complex)
        for g, take in zip(gens, picks):
            if take:
                c = c @ g
        coeff = np.trace(c.conj().T @ matrix) / dim
        out += coeff * c
    return out


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@pytest.fixture
def ctx4():
    return build_context(build_lattice("path", 4))


def test_ladders_match_kron_reference():
    for spins, n_sites in [(1, 5), (2, 3)]:
        ctx = build_context(build_lattice("path", n_sites), spins=spins)
        for m in range(ctx.n_modes):
            got = ctx.ladder_sparse(m).toarray()
            want = kron_ladder(ctx.n_modes, m)
            assert np.array_equal(got, want)
            got_dag = ctx.ladder_sparse(m, dagger=True).toarray()
            assert np.array_equal(got_dag, want.conj().T)


def test_car_relations_hold_exactly(ctx4):
    assert car_table_residual(ctx4) <= TOL


def test_car_relations_with_spin():
    ctx = build_context(build_lattice("ring", 4), spins=2)
    assert car_table_residual(ctx) <= TOL


def test_context_enforces_dimension_cap(monkeypatch):
    g = build_lattice("path", 13)
    with pytest.raises(ValueError, match="cap"):
        build_context(g)
    monkeypatch.setenv("LRLAB_DIM_CAP", str(2**13))
    ctx = build_context(g)
    assert ctx.dim == 2**13


def test_parity_classification(ctx4):
    a0 = ladder(ctx4, 0)
    assert a0.parity == "odd"
    n0 = a0.adjoint() @ a0
    assert n0.parity == "even"
    assert parity_class(ctx4, a0.matrix + n0.matrix) == "mixed"


def test_number_operator_spectrum(ctx4):
    n = number_operator(ctx4)
    evals = np.linalg.eigvalsh(n.matrix)
    assert set(np.round(evals).astype(int)) == set(range(5))
    assert n.parity == "even"
    n1 = number_operator(ctx4, [1])
    assert n1.support == (1,)
    assert op_norm(n1.matrix) == pytest.approx(1.0)


def test_local_operator_arithmetic(ctx4):
    a0, a2 = ladder(ctx4, 0), ladder(ctx4, 2)
    hop = a0.adjoint() @ a2 + a2.adjoint() @ a0
    assert hop.parity == "even"
    assert hop.support == (0, 2)
    assert hop.is_self_adjoint()
    assert (2.0 * hop).norm() == pytest.approx(2 * hop.norm())
    # disjoint odd operators anticommute, so the product is parity-even
    prod = a0 @ a2
    assert prod.parity == "even"


def test_local_operator_shape_check(ctx4):
    from lrlab.fock import LocalOperator

    with pytest.raises(ValueError, match="shape"):
        LocalOperator(ctx4, np.eye(3), (0,))


def test_conditional_expectation_matches_oracle():
    rng = np.random.default_rng(7)
    for n_sites, sites in [(3, (0,)), (3, (1, 2)), (4, (0, 2)), (4, (1,))]:
        ctx = build_context(build_lattice("path", n_sites))
        a = random_matrix(rng, ctx.dim)
        got = conditional_expectation(ctx, sites, a)
        want = oracle_expectation(ctx, sites, a)
        assert np.abs(got - want).max() < 1e-10


def test_conditional_expectation_with_spin_matches_oracle():
    rng = np.random.default_rng(11)
    ctx = build_context(build_lattice("path", 2), spins=2)
    a = random_matrix(rng, ctx.dim)
    got = conditional_expectation(ctx, [1], a)
    want = oracle_expectation(ctx, [1], a)
    assert np.abs(got - want).max() < 1e-10


def test_conditional_expectation_is_projection(ctx4):
    rng = np.random.default_rng(3)
    a = random_matrix(rng, ctx4.dim)
    e1 = conditional_expectation(ctx4, [0, 1], a)
    e2 = conditional_expectation(ctx4, [0, 1], e1)
    assert np.abs(e1 - e2).max() < TOL
    # unital and trace compatible
    eye = np.eye(ctx4.dim)
    assert np.abs(conditional_expectation(ctx4, [0, 1], eye) - eye).max() < TOL
    assert np.trace(e1) == pytest.approx(np.trace(a))


def test_conditional_expectation_composition(ctx4):
    rng = np.random.default_rng(5)
    a = random_matrix(rng, ctx4.dim)
    via_both = conditional_expectation(
        ctx4, [0, 1], conditional_expectation(ctx4, [1, 2], a)
    )
    direct = conditional_expectation(ctx4, [1], a)
    assert np.abs(via_both - direct).max() < 1e-11


def test_conditional_expectation_empty_intersection(ctx4):
    rng = np.random.default_rng(9)
    a = random_matrix(rng, ctx4.dim)
    e = conditional_expectation(ctx4, [], a)
    assert np.abs(e - np.eye(ctx4.dim) * np.trace(a) / ctx4.dim).max() < TOL


def test_conditional_expectation_fixes_subalgebra(ctx4):
    a0, a1 = ladder(ctx4, 0), ladder(ctx4, 1)
    inside = (a0.adjoint() @ a1 + a1.adjoint() @ a0).matrix
    out = conditional_expectation(ctx4, [0, 1], inside)
    assert np.abs(out - inside).max() < TOL
    # odd element of the subalgebra is fixed too
    out_odd = conditional_expectation(ctx4, [0, 1], a0.matrix)
    assert np.abs(out_odd - a0.matrix).max() < TOL


def test_conditional_expectation_kills_outside_excitation(ctx4):
    a3 = ladder(ctx4, 3)
    out = conditional_expectation(ctx4, [0, 1], a3.matrix)
    assert np.abs(out).max() < TOL


def test_support_recovery(ctx4):
    assert support_of(ctx4, np.eye(ctx4.dim)) == ()
    a0, a2 = ladder(ctx4, 0), ladder(ctx4, 2)
    hop = a0.adjoint() @ a2 + a2.adjoint() @ a0
    assert support_of(ctx4, hop) == (0, 2)
    assert support_of(ctx4, number_operator(ctx4, [1])) == (1,)


def test_support_of_rejects_wrong_declaration(ctx4):
    from lrlab.fock import LocalOperator

    a3 = ladder(ctx4, 3)
    lying = LocalOperator(ctx4, a3.matrix, (0,), parity="odd")
    with pytest.raises(ValueError, match="not supported"):
        support_of(ctx4, lying)


# ---------------------------------------------------------------------------
# local storage: blocks against their dense embeddings


@lru_cache(maxsize=None)
def cached_context(kind, n_sites, spins):
    return build_context(build_lattice(kind, n_sites), spins=spins)


@st.composite
def local_pairs(draw):
    """Two random local operators on one context, with a random scalar.

    Blocks are drawn mixed, even or odd, optionally Hermitian, so every
    parity class and both self-adjointness outcomes occur.  With two
    species per site the lattices have 3 or 4 sites (dim 64 or 256), which
    keeps the dense reference products and norms cheap; 3 sites also puts
    supports that cover the whole lattice in the draw.
    """
    spins = draw(st.sampled_from([1, 2]))
    n_sites = draw(st.sampled_from([5, 6] if spins == 1 else [3, 4]))
    ctx = cached_context(draw(st.sampled_from(["path", "ring"])), n_sites, spins)

    def one():
        sites = draw(st.lists(st.integers(0, n_sites - 1), min_size=1, max_size=3, unique=True))
        m = len(sites) * spins
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        block = random_matrix(rng, 2**m)
        p = 1 - 2 * (np.array([bin(k).count("1") for k in range(2**m)]) & 1)
        kind = draw(st.sampled_from(["mixed", "even", "odd"]))
        if kind != "mixed":
            sign = 1 if kind == "even" else -1
            block = 0.5 * (block + sign * (p[:, None] * block * p[None, :]))
        if draw(st.booleans()):
            block = 0.5 * (block + block.conj().T)
        return LocalOperator.from_block(ctx, block, sites)

    c = draw(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
    return ctx, one(), one(), c


def close(x, y):
    return np.abs(x - y).max() <= 1e-12 * max(1.0, np.abs(y).max())


@settings(max_examples=30, deadline=None)
@given(local_pairs())
def test_block_arithmetic_matches_dense(case):
    ctx, a, b, c = case
    am, bm = a.matrix, b.matrix
    # the embedding lives on the declared support
    assert close(conditional_expectation(ctx, a.support, am), am)
    assert close((a @ b).matrix, am @ bm)
    assert close((a + b).matrix, am + bm)
    assert close((a - b).matrix, am - bm)
    assert close(a.adjoint().matrix, am.conj().T)
    assert close((c * a).matrix, c * am)
    assert (a @ b).support == tuple(sorted(set(a.support) | set(b.support)))
    for op in (a, a @ b, a + b):
        m = op.matrix
        assert op.norm() == pytest.approx(op_norm(m), rel=1e-12, abs=1e-12)
        assert op.parity == parity_class(ctx, m)
        assert is_hermitian(op.block) == is_hermitian(m)


def test_local_ladders_embed_to_the_full_ladders():
    for spins, n_sites in [(1, 5), (2, 3)]:
        ctx = build_context(build_lattice("ring", n_sites), spins=spins)
        for site in range(n_sites):
            for spin in range(spins):
                mode = ctx.mode_index(site, spin)
                for dagger in (False, True):
                    op = ladder(ctx, site, spin, dagger)
                    assert op.block.shape == (2**spins, 2**spins)
                    want = ctx.ladder_sparse(mode, dagger).toarray()
                    assert np.array_equal(op.matrix, want)
        n = number_operator(ctx, [0, 2])
        want = sum(
            ctx.ladder_sparse(m, True).toarray() @ ctx.ladder_sparse(m).toarray()
            for m in ctx.modes_of_sites([0, 2])
        )
        assert np.array_equal(n.matrix, want)


def test_dense_construction_round_trips_and_rejects_wrong_support(ctx4):
    a1, a3 = ladder(ctx4, 1), ladder(ctx4, 3)
    hop = a1.adjoint() @ a3 + a3.adjoint() @ a1
    again = LocalOperator(ctx4, hop.matrix, hop.support)
    assert np.array_equal(again.block, hop.block)
    assert again.parity == "even"
    # kept whole until used locally, then refused rather than projected
    lying = LocalOperator(ctx4, a3.matrix, (0,))
    assert np.array_equal(lying.matrix, a3.matrix)
    with pytest.raises(ValueError, match="not supported"):
        lying.norm()
    with pytest.raises(ValueError, match="shape"):
        LocalOperator.from_block(ctx4, np.eye(4), (0,))


def test_matrix_of_a_block_operator_is_built_per_read_and_not_kept(ctx4):
    hop = ladder(ctx4, 1).adjoint() @ ladder(ctx4, 3)
    first = hop.matrix
    assert hop.matrix is not first
    assert np.array_equal(hop.matrix, first)
    full = LocalOperator(ctx4, first, hop.support)
    assert full.matrix is full.matrix  # built from a matrix: that matrix


def jordan_wigner_embedding(n_modes, modes, block):
    """sum_rc B[r, c] A*_r P A_c from tensor-product ladders: A*_r creates
    the modes of r in ascending order and P projects the modes onto their
    vacuum, so each term is the matrix unit |r><c| on the support."""
    a = [kron_ladder(n_modes, m) for m in modes]
    eye = np.eye(2**n_modes, dtype=complex)
    vacuum = eye
    for x in a:
        vacuum = vacuum @ (eye - x.conj().T @ x)

    def create(r):
        out = eye
        for p, x in enumerate(a):
            if (r >> p) & 1:
                out = out @ x.conj().T
        return out

    creators = [create(r) for r in range(len(block))]
    annihilators = [c.conj().T for c in creators]
    return sum(
        creators[r] @ vacuum @ sum(block[r, c] * annihilators[c] for c in range(len(block)))
        for r in range(len(block))
    )


@pytest.mark.parametrize(
    "sites",
    [(2,), (0, 5), (1, 2, 4), (0, 1, 2, 3), (0, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5)],
    ids=lambda s: f"{len(s)}-sites",
)
def test_scatter_matches_jordan_wigner_at_every_support_size(sites):
    ctx = build_context(build_lattice("path", 6))
    rng = np.random.default_rng(len(sites))
    block = random_matrix(rng, 2 ** len(sites))
    block[0, 1] = 0.0  # zeros in the block stay untouched entries
    want = jordan_wigner_embedding(ctx.n_modes, ctx.modes_of_sites(sites), block)
    op = LocalOperator.from_block(ctx, block, sites)
    assert np.abs(op.matrix - want).max() <= TOL
    base = random_matrix(rng, ctx.dim)
    out = base.copy()
    op.add_to(out)  # adds, never overwrites
    assert np.abs(out - base - want).max() <= TOL
