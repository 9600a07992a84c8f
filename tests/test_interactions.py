import math
import tracemalloc

import numpy as np
import pytest

from lrlab.bounds import BoundParams
from lrlab.fock import build_context, ladder, number_operator
from lrlab.interactions import (
    Interaction,
    TimeDependentInteraction,
    assemble,
    interaction_norm,
    lr_velocity,
    model,
    random_two_body,
    time_sup_norm,
)
from lrlab.lattice import build_lattice, f_alpha_norm
from lrlab.linalg import op_norm


@pytest.fixture
def ctx5():
    return build_context(build_lattice("path", 5))


def unit_hop(ctx, x, y):
    ax, ay = ladder(ctx, x), ladder(ctx, y)
    return ax.adjoint() @ ay + ay.adjoint() @ ax


def test_term_validation(ctx5):
    phi = Interaction(ctx5)
    with pytest.raises(ValueError, match="parity"):
        phi.add_term((0,), ladder(ctx5, 0))
    hop = unit_hop(ctx5, 0, 1)
    with pytest.raises(ValueError, match="escapes"):
        phi.add_term((0,), hop)
    with pytest.raises(ValueError, match="self-adjoint"):
        phi.add_term((0, 1), 1j * hop)
    phi.add_term((0, 1), hop)
    assert len(phi) == 1


def test_norm_single_pair_term(ctx5):
    # one unit-norm term on a distance-1 pair: (1+1)^alpha, doubled by |Z|^1
    phi = Interaction(ctx5, {(0, 1): unit_hop(ctx5, 0, 1)})
    assert phi.term_norm((0, 1)) == pytest.approx(1.0)
    assert interaction_norm(phi, 2.0, 0) == pytest.approx(4.0)
    assert interaction_norm(phi, 2.0, 1) == pytest.approx(8.0)


def test_norm_sums_over_terms_at_a_site(ctx5):
    phi = Interaction(ctx5)
    phi.add_term((0, 1), unit_hop(ctx5, 0, 1))
    phi.add_term((1, 3), unit_hop(ctx5, 1, 3))
    # site 1 carries both: 2^a + 3^a
    a = 3.0
    assert interaction_norm(phi, a) == pytest.approx(2.0**a + 3.0**a)


def test_hopping_model_norms(ctx5):
    m = model("long_range_hopping", ctx5, J=1.0, alpha_tb=2.0)
    phi = m.interaction.sample(0.0)
    # every pair term has norm J/(1+d)^2, so each (diam+1)^2 weight cancels
    for key in phi.terms:
        d = ctx5.graph.distance(*key)
        assert phi.term_norm(key) == pytest.approx(1.0 / (1.0 + d) ** 2)
    assert interaction_norm(phi, 2.0) == pytest.approx(4.0, abs=1e-12)


def test_density_model_is_diagonal(ctx5):
    m = model("long_range_density", ctx5, J=0.5, alpha_tb=3.0)
    h = assemble(m.interaction.sample(0.0))
    assert np.abs(h - np.diag(np.diag(h))).max() == 0.0


def test_atomic_limit_gap(ctx5):
    m = model("atomic_limit", ctx5, mu=4.0, J=0.0)
    h = m.hamiltonian(0.0)
    evals = np.linalg.eigvalsh(h)
    gaps = np.diff(np.unique(np.round(evals, 9)))
    assert evals[0] == pytest.approx(0.0)
    assert gaps[0] == pytest.approx(4.0)


def test_assemble_range_cut(ctx5):
    m = model("long_range_hopping", ctx5, J=1.0, alpha_tb=2.0)
    phi = m.interaction.sample(0.0)
    h_short = assemble(phi, max_range=2)
    # only distance-1 pairs survive a strict diam < 2 cut
    expect = sum(
        (1.0 / 4.0) * unit_hop(ctx5, x, x + 1).matrix for x in range(4)
    )
    assert np.abs(h_short - expect).max() < 1e-12
    assert np.abs(assemble(phi, max_range=None) - assemble(phi)).max() == 0.0


def test_interpolation_is_linear_and_exact_at_endpoints(ctx5):
    phi_a = Interaction(ctx5, {(0, 1): unit_hop(ctx5, 0, 1)})
    phi_b = Interaction(ctx5, {(3, 4): 2.0 * unit_hop(ctx5, 3, 4)})
    m = model("interpolation", ctx5, phi_a=phi_a, phi_b=phi_b)
    mid = m.interaction.sample(0.5)
    assert mid.term_norm((0, 1)) == pytest.approx(0.5)
    assert mid.term_norm((3, 4)) == pytest.approx(1.0)
    d = m.interaction.derivative(0.3)
    assert d.term_norm((0, 1)) == pytest.approx(1.0)
    # norm path is convex, so the time sup sits at an endpoint
    val = time_sup_norm(m.interaction, 2.0, 0)
    assert val == pytest.approx(interaction_norm(phi_b, 2.0))


def test_local_perturbation_path(ctx5):
    phi = Interaction(ctx5, {(0, 1): unit_hop(ctx5, 0, 1)})
    w = number_operator(ctx5, [3])
    m = model("local_perturbation", ctx5, phi=phi, w=w)
    h1 = m.hamiltonian(1.0)
    h0 = m.hamiltonian(0.0)
    assert np.abs((h1 - h0) - w.matrix).max() < 1e-12
    assert m.interaction.derivative(0.7).term_norm((3,)) == pytest.approx(1.0)


def random_paths(ctx, seed):
    """One model of each path kind: constant, interpolation, local perturbation."""
    rng = np.random.default_rng(seed)
    phi_a = random_two_body(ctx, rng, alpha_tb=2.0)
    phi_b = random_two_body(ctx, rng, alpha_tb=2.0, strength=0.6)
    onsite = {z: rng.standard_normal() * number_operator(ctx, [z]) for z in ctx.graph.vertices}
    w = 0.8 * (number_operator(ctx, [1]) @ number_operator(ctx, [2])) + 0.3 * unit_hop(ctx, 1, 2)
    return [
        model("atomic_limit", ctx, mu=[0.4, -0.3, 1.1, 0.2, 0.7], J=0.5, alpha_tb=2.0),
        model("interpolation", ctx, phi_a=phi_a, phi_b=phi_b, onsite=onsite),
        model("local_perturbation", ctx, phi=phi_a, w=w, onsite=onsite),
    ]


def test_model_hamiltonian_matches_assembled_sample(ctx5):
    for m in random_paths(ctx5, 21):
        for cut in (None, 2):
            for t in np.linspace(0.0, 1.0, 11):
                want = assemble(m.interaction.sample(t), m.onsite, cut)
                got = m.hamiltonian(t, cut)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_time_sup_norm_matches_fine_grid(ctx5, seed):
    for m in random_paths(ctx5, seed)[1:]:
        for alpha, weight in ((2.0, 0), (3.0, 1)):
            grid = max(
                interaction_norm(m.interaction.sample(t), alpha, weight)
                for t in np.linspace(0.0, 1.0, 101)
            )
            assert time_sup_norm(m.interaction, alpha, weight) == pytest.approx(grid, rel=1e-12)


def test_velocity_formula(ctx5):
    phi = Interaction(ctx5, {(0, 1): unit_hop(ctx5, 0, 1)})
    alpha = 2.0
    v, nu = lr_velocity(phi, alpha)
    f = f_alpha_norm(ctx5.graph, alpha, "exact")
    assert v == pytest.approx(2.0 * math.e * f * 4.0)
    assert nu == pytest.approx(max(v, 8.0))


def test_velocity_accepts_time_dependent(ctx5):
    phi = Interaction(ctx5, {(0, 1): unit_hop(ctx5, 0, 1)})
    path = TimeDependentInteraction.constant(phi)
    assert lr_velocity(path, 2.0) == pytest.approx(lr_velocity(phi, 2.0))


def test_random_two_body_norm_profile():
    ctx = build_context(build_lattice("ring", 5))
    rng = np.random.default_rng(0)
    phi = random_two_body(ctx, rng, alpha_tb=3.0, strength=0.7)
    assert len(phi) == 10
    for key, op in phi.terms.items():
        d = ctx.graph.distance(*key)
        assert op.parity == "even"
        assert op.is_self_adjoint()
        assert op_norm(op.matrix) == pytest.approx(0.7 / (1 + d) ** 3, rel=1e-9)


def test_random_two_body_reproducible():
    ctx = build_context(build_lattice("path", 4))
    a = random_two_body(ctx, np.random.default_rng(42), 2.0)
    b = random_two_body(ctx, np.random.default_rng(42), 2.0)
    for key in a.terms:
        assert np.array_equal(a.terms[key].matrix, b.terms[key].matrix)


def test_assemble_equals_dense_sum_of_terms():
    ctx = build_context(build_lattice("ring", 5))
    phi = random_two_body(ctx, np.random.default_rng(5), alpha_tb=2.0)
    onsite = {z: (0.5 + z) * number_operator(ctx, [z]) for z in ctx.graph.vertices}
    for cut in (None, 2):
        want = sum(
            op.matrix
            for key, op in phi.terms.items()
            if cut is None or ctx.graph.distance(*key) < cut
        ) + sum(op.matrix for op in onsite.values())
        got = assemble(phi, onsite, max_range=cut)
        assert np.abs(got - want).max() <= 1e-13


def test_twelve_site_model_builds_without_dense_terms():
    # one dense dim-4096 complex matrix alone would take 268 MB
    ctx = build_context(build_lattice("path", 12))
    tracemalloc.start()
    try:
        phi = random_two_body(ctx, np.random.default_rng(1), alpha_tb=3.0)
        params = BoundParams.from_interaction(phi, 3.0)
        hop = model("long_range_hopping", ctx, J=1.0, alpha_tb=3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert len(phi) == 66 and len(hop.interaction.sample(0.0)) == 66
    assert params.norm_alpha > 0


def test_model_registry_defaults_and_missing_parameters(ctx5):
    with pytest.raises(ValueError, match="the long_range_hopping model needs J"):
        model("long_range_hopping", ctx5, alpha_tb=3.0)
    with pytest.raises(ValueError, match="the random_two_body model needs rng"):
        model("random_two_body", ctx5)
    with pytest.raises(ValueError, match="unknown model 'ising'"):
        model("ising", ctx5)
    # defaults are the builder's: alpha_tb 3.0 for random_two_body, 4.0 for atomic_limit
    m = model("random_two_body", ctx5, rng=np.random.default_rng(3))
    phi = random_two_body(ctx5, np.random.default_rng(3), alpha_tb=3.0)
    assert np.array_equal(assemble(m.interaction.phi0), assemble(phi))
    assert model("atomic_limit", ctx5, mu=1.0).params == {"mu": 1.0, "J": 0.0, "alpha_tb": 4.0}
