"""Flow-module tests: mollified step analytics, Fourier consistency of the
time-domain weight (which pins the sign conventions end to end), the inverse
identity on controlled Bohr frequencies, layer decompositions, and transport
of spectral projectors along gapped families with both generators."""

import math

import numpy as np
import pytest

from lrlab.dynamics import Propagator, propagate
from lrlab.flow import (
    WeightFunction,
    automorphic_deviation,
    build_weight_spectrum,
    extract_interaction,
    gap_analysis,
    hastings_generator,
    inverse_liouvillian,
    kato_generator,
    layer_split,
    local_decomposition,
    sector_gap,
    smooth_step,
)
from lrlab.fock import build_context, conditional_expectation, ladder, number_operator
from lrlab.interactions import assemble, model, random_two_body
from lrlab.lattice import build_lattice, fatten
from lrlab.linalg import op_norm


def random_hermitian(rng, dim, scale=1.0):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (m + m.conj().T) / (2.0 * math.sqrt(dim))


# --------------------------------------------------------------------------
# weight analytics


def test_smooth_step_profile():
    assert smooth_step(-1.0) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(2.0) == 1.0
    assert abs(smooth_step(0.5) - 0.5) < 1e-15
    xs = np.linspace(-0.5, 1.5, 201)
    ys = smooth_step(xs)
    assert np.all(np.diff(ys) >= -1e-15)
    # infinitely flat entry and exit (the exit saturates to 1.0 in floats)
    assert smooth_step(0.01) < 1e-40
    assert smooth_step(0.99) > 1.0 - 1e-12


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightFunction(0.0)
    with pytest.raises(ValueError):
        WeightFunction(1.0, soft=1.0)
    with pytest.raises(ValueError):
        WeightFunction(1.0, soft=-0.1)
    # a degenerate annihilation window is allowed
    w = WeightFunction(1.0, 0.0)
    assert w.soft == 0.0 and w.time_scale == 0.5


def test_zero_soft_window():
    w = build_weight_spectrum(1.0, 0.0)
    assert w.chi(0.0) == 0.0
    assert w.chi(1.0) == 1.0
    assert w.filter_at(0.0) == 0.0
    assert abs(w.filter_at(2.0) - 0.5j) < 1e-15
    # W stays odd, bounded, decaying on the gap scale
    ts = np.linspace(-40.0, 40.0, 301)
    vals = w.time_value(ts)
    assert np.allclose(vals, -w.time_value(-ts), atol=1e-14)
    assert np.abs(vals).max() <= 0.5 + 1e-12
    tail = np.abs(w.time_value(np.linspace(120.0, 160.0, 81)))
    assert tail.max() < 2e-3


def test_spectrum_profile():
    w = build_weight_spectrum(1.0, 0.5)
    assert w.spectrum(0.3) == 0.0
    for om in (1.0, 2.0, -2.0):
        want = -1j / (math.sqrt(2.0 * math.pi) * om)
        assert abs(w.spectrum(om) - want) < 1e-15
    oms = np.linspace(-4, 4, 41)
    assert np.allclose(w.spectrum(oms), -w.spectrum(-oms), atol=1e-15)


def test_filter_profile():
    w = build_weight_spectrum(1.0, 0.5)
    assert w.soft == 0.5
    assert w.chi(0.49) == 0.0
    assert w.chi(1.0) == 1.0
    assert w.chi(-3.0) == 1.0
    assert w.filter_at(0.0) == 0.0
    for om in (1.0, 1.7, 4.0):
        assert abs(w.filter_at(om) - 1j / om) < 1e-15
        # conjugate anti-symmetry phi(-om) = conj(phi(om))
        assert abs(w.filter_at(-om) - np.conj(w.filter_at(om))) < 1e-15
    assert np.abs(w.filter_at(np.linspace(-5, 5, 301))).max() <= 1.0 / w.soft + 1e-12


def test_time_weight_odd_and_bounded():
    w = build_weight_spectrum(1.0, 0.5)
    ts = np.linspace(-30.0, 30.0, 501)
    vals = w.time_value(ts)
    assert abs(w.time_value(0.0)) == 0.0
    assert np.allclose(vals, -w.time_value(-ts), atol=1e-14)
    assert np.abs(vals).max() <= 0.5 + 1e-12
    # decays: averaged tail well below the sup
    tail = np.abs(w.time_value(np.linspace(60.0, 80.0, 101)))
    assert tail.max() < 2e-3


def test_fourier_consistency_fixes_signs():
    # quadrature of the time-domain form must reproduce the eigenbasis
    # filter; this validates W, its sign, and the i/omega normalization
    w = build_weight_spectrum(1.0, 0.5)
    oms = np.array([-2.4, -1.0, 1.0, 1.3, 3.0])
    num = w.filter_numeric(oms, horizon=200.0, density=8.0)
    want = w.filter_at(oms)
    assert np.abs(num - want).max() < 5e-6


# --------------------------------------------------------------------------
# the inverse identity


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigenbasis_inverse_identity(seed):
    rng = np.random.default_rng(seed)
    dim = 12
    h = random_hermitian(rng, dim, scale=3.0)
    evals, vecs = np.linalg.eigh(h)
    om = evals[:, None] - evals[None, :]
    cut = np.quantile(np.abs(om[np.abs(om) > 1e-9]), 0.4)
    keep = np.abs(om) >= cut
    a_tilde = random_hermitian(rng, dim) * keep
    a = vecs @ a_tilde @ vecs.conj().T
    w = build_weight_spectrum(cut, 0.5 * cut)
    j, info = inverse_liouvillian(h, a, w)
    assert info["budget"] == 0.0
    residual = op_norm(-1j * (h @ j - j @ h) - a)
    assert residual <= 1e-10 * max(1.0, op_norm(a))


def test_soft_window_annihilation():
    rng = np.random.default_rng(7)
    dim = 10
    h = random_hermitian(rng, dim, scale=2.0)
    evals, vecs = np.linalg.eigh(h)
    om = evals[:, None] - evals[None, :]
    w = build_weight_spectrum(10.0 * float(np.abs(om).max()), 2.0 * float(np.abs(om).max()))
    a = random_hermitian(rng, dim)
    j, _ = inverse_liouvillian(h, a, w)
    assert op_norm(j) <= 1e-14


def test_inverse_is_selfadjoint_and_linear():
    rng = np.random.default_rng(3)
    dim = 8
    h = random_hermitian(rng, dim, scale=2.0)
    w = build_weight_spectrum(0.3, 0.15)
    a = random_hermitian(rng, dim)
    b = random_hermitian(rng, dim)
    ja, _ = inverse_liouvillian(h, a, w)
    jb, _ = inverse_liouvillian(h, b, w)
    jab, _ = inverse_liouvillian(h, 2.0 * a - 0.5 * b, w)
    assert op_norm(ja - ja.conj().T) <= 1e-12
    assert op_norm(jab - (2.0 * ja - 0.5 * jb)) <= 1e-12


def test_time_domain_route_agrees_with_eigenbasis():
    rng = np.random.default_rng(11)
    dim = 8
    h = random_hermitian(rng, dim, scale=2.0)
    a = random_hermitian(rng, dim)
    w = build_weight_spectrum(1.0, 0.5)
    j_spec, _ = inverse_liouvillian(h, a, w)
    j_time, info = inverse_liouvillian(h, a, w, method="time_domain")
    assert info["budget"] <= 1e-5
    assert op_norm(j_time - j_spec) <= 1e-5
    with pytest.raises(ValueError):
        inverse_liouvillian(h, a, w, method="nope")


# --------------------------------------------------------------------------
# layer decomposition and interaction extraction


def test_layer_split_telescopes():
    g = build_lattice("path", 5)
    ctx = build_context(g)
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, ctx.dim)
    pieces = layer_split(ctx, m, (2,))
    total = sum(p.matrix for p in pieces)
    assert op_norm(total - m) <= 1e-12
    assert pieces[0].support == (2,)
    for j, p in enumerate(pieces):
        assert p.support == fatten(g, (2,), j)
    # truncation keeps the early layers only
    short = layer_split(ctx, m, (2,), max_layers=1)
    assert len(short) == 2
    with pytest.raises(ValueError):
        layer_split(ctx, m, ())


@pytest.mark.parametrize("shape, spins, base", [(("path", 5), 1, (2,)), (("ring", 3), 2, (0,))])
def test_layer_split_blocks_match_dense_expectations(shape, spins, base):
    g = build_lattice(*shape)
    ctx = build_context(g, spins)
    m = random_hermitian(np.random.default_rng(6), ctx.dim)
    pieces = layer_split(ctx, m, base)
    prev = None
    for j, piece in enumerate(pieces):
        region = fatten(g, base, j)
        assert piece.support == region
        assert piece.block.shape == (2 ** (len(region) * spins),) * 2
        cur = conditional_expectation(ctx, region, m)
        want = cur if prev is None else cur - prev
        assert np.abs(piece.matrix - want).max() <= 1e-12
        prev = cur
    assert np.abs(prev - m).max() <= 1e-12


def test_extract_interaction_reassembles_generator():
    g = build_lattice("path", 4)
    ctx = build_context(g)
    m = model("long_range_hopping", ctx, J=0.4, alpha_tb=3.0)
    phi = m.interaction.sample(0.0)
    h = assemble(phi) + sum(
        (2.0 + 0.7 * z) * number_operator(ctx, [z]).matrix for z in g.vertices
    )
    w = build_weight_spectrum(0.8, 0.4)
    extracted = extract_interaction(ctx, h, phi, w)
    total = sum(t.matrix for t in extracted.terms.values())
    j_all, _ = inverse_liouvillian(h, assemble(phi), w)
    assert op_norm(total - j_all) <= 1e-10
    for region, term in extracted.terms.items():
        assert term.parity == "even"
        assert set(term.support) <= set(region)


# --------------------------------------------------------------------------
# spectral flow transport


def chain_family(n=4, j_max=0.3):
    """Gapped interpolation: fixed site fields, hopping switched on with s.

    One negative field keeps exactly one mode filled, so the ground
    projector genuinely rotates as the hopping grows.
    """
    g = build_lattice("path", n)
    ctx = build_context(g)
    mu = np.array([-2.0, 0.7, 1.2, 1.9][:n])
    h_onsite = np.zeros((ctx.dim, ctx.dim), dtype=np.complex128)
    for z in g.vertices:
        h_onsite += mu[z] * number_operator(ctx, [z]).matrix
    hop = model("long_range_hopping", ctx, J=j_max, alpha_tb=3.0)
    h_hop = assemble(hop.interaction.sample(0.0))

    def h_fn(s):
        return h_onsite + s * h_hop

    return ctx, h_fn, h_hop


def test_family_is_gapped_and_moving():
    ctx, h_fn, h_hop = chain_family()
    gaps = [sector_gap(h_fn(s)).gap for s in np.linspace(0, 1, 7)]
    assert min(gaps) > 0.55
    p0 = sector_gap(h_fn(0.0)).projector
    p1 = sector_gap(h_fn(1.0)).projector
    assert op_norm(p1 - p0) > 1e-2


def test_kato_and_hastings_agree_off_diagonal():
    ctx, h_fn, h_hop = chain_family()
    w = build_weight_spectrum(0.5, 0.25)
    s = 0.6
    d_k = kato_generator(h_fn, s)
    d_h = hastings_generator(h_fn(s), h_hop, w)
    rep = sector_gap(h_fn(s))
    p, q = rep.projector, np.eye(ctx.dim) - rep.projector
    assert op_norm(p @ (d_k - d_h) @ q) <= 1e-8
    assert op_norm(d_k - d_k.conj().T) <= 1e-10
    assert op_norm(d_h - d_h.conj().T) <= 1e-12


def kato_by_projector_difference(h_fn, s, sector_dim, step=1e-4):
    """D = i[P', P] with P' a fourth-order difference of five projectors."""

    def proj(x):
        return sector_gap(h_fn(x), sector_dim).projector

    pdot = (
        proj(s - 2 * step) - 8.0 * proj(s - step) + 8.0 * proj(s + step) - proj(s + 2 * step)
    ) / (12.0 * step)
    p = proj(s)
    return 1j * (pdot @ p - p @ pdot)


@pytest.mark.parametrize("sector_dim", [1, 2])
def test_kato_generator_matches_projector_difference(sector_dim):
    ctx, h_fn, h_hop = chain_family()
    for s in (0.0, 0.35, 1.0):
        assert sector_gap(h_fn(s), sector_dim).gap > 0.3
        d = kato_generator(h_fn, s, sector_dim)
        assert np.abs(d - d.conj().T).max() <= 1e-12
        assert op_norm(d - kato_by_projector_difference(h_fn, s, sector_dim)) <= 1e-9


def test_kato_generator_rejects_bad_sectors():
    def h_fn(s):
        return np.diag([0.0, 1.0, 1.0, 2.0]) + s * np.ones((4, 4))

    assert np.isfinite(kato_generator(h_fn, 0.0, 1)).all()
    with pytest.raises(ValueError, match="not separated"):
        kato_generator(h_fn, 0.0, 2)
    for k in (0, 4):
        with pytest.raises(ValueError, match="proper nonempty subset"):
            kato_generator(h_fn, 0.0, k)


@pytest.mark.parametrize("kind", ["kato", "hastings"])
def test_automorphic_transport(kind):
    ctx, h_fn, h_hop = chain_family()
    if kind == "kato":
        d_fn = lambda s: kato_generator(h_fn, s)  # noqa: E731
    else:
        w = build_weight_spectrum(0.5, 0.25)
        d_fn = lambda s: hastings_generator(h_fn(s), h_hop, w)  # noqa: E731
    report = automorphic_deviation(h_fn, d_fn, s_grid=np.linspace(0.0, 1.0, 6))
    assert report["sectors"] == [16]  # below dim 32: the dense route
    assert report["deviation"] <= 1e-6
    assert report["per_time"][0] <= 1e-12
    assert report["worst_unitarity"] <= 1e-9


# --------------------------------------------------------------------------
# spectral windows


def test_gap_analysis_window():
    h = np.diag([0.0, 0.0, 3.0])
    rep = gap_analysis(h, -1.0, 1.0)
    assert rep.rank == 2
    assert rep.gap == 3.0
    assert rep.diameter == 0.0
    assert op_norm(rep.projector - np.diag([1.0, 1.0, 0.0])) <= 1e-14
    # complementary window picks the other level
    top = gap_analysis(h, 2.0, 4.0)
    assert top.rank == 1 and top.gap == 3.0


def test_gap_analysis_errors():
    h = np.diag([0.0, 1.0, 3.0])
    with pytest.raises(ValueError, match="touches"):
        gap_analysis(h, -1.0, 1.0 + 1e-12)
    with pytest.raises(ValueError, match="no spectrum"):
        gap_analysis(h, 1.4, 2.6)
    with pytest.raises(ValueError, match="no complement"):
        gap_analysis(h, -1.0, 4.0)
    with pytest.raises(ValueError, match="nonempty"):
        gap_analysis(h, 2.0, -2.0)


def test_local_decomposition_applies_filter():
    g = build_lattice("path", 4)
    ctx = build_context(g)
    m = model("long_range_hopping", ctx, J=0.4, alpha_tb=3.0)
    phi = m.interaction.sample(0.0)
    h = assemble(phi) + sum(
        (2.0 + 0.7 * z) * number_operator(ctx, [z]).matrix for z in g.vertices
    )
    w = build_weight_spectrum(0.8, 0.4)
    term = phi.terms[(1, 2)]
    pieces = local_decomposition(ctx, h, term, w)
    j_term, _ = inverse_liouvillian(h, term.matrix, w)
    assert op_norm(sum(p.matrix for p in pieces) - j_term) <= 1e-12
    assert pieces[0].support == term.support
    with pytest.raises(TypeError):
        local_decomposition(ctx, h, term.matrix, w)


# --------------------------------------------------------------------------
# the per-sector route against the dense formulas it replaces


def dense_inverse(h, a, weight):
    """J(A) = V (f o V^dagger A V) V^dagger from one eigh of the whole H."""
    evals, vecs = np.linalg.eigh(h)
    f = weight.filter_at(evals[:, None] - evals[None, :])
    return vecs @ (f * (vecs.conj().T @ a @ vecs)) @ vecs.conj().T


def dense_kato(h_fn, s, sector_dim=1, step=1e-4):
    h_dot = (h_fn(s - 2 * step) - 8.0 * h_fn(s - step) + 8.0 * h_fn(s + step) - h_fn(s + 2 * step)) / (
        12.0 * step
    )
    evals, vecs = np.linalg.eigh(h_fn(s))
    inside = np.arange(len(evals)) < sector_dim
    cross = inside[:, None] != inside[None, :]
    h_eig = vecs.conj().T @ h_dot @ vecs
    d = np.zeros_like(h_eig)
    d[cross] = 1j * h_eig[cross] / (evals[None, :] - evals[:, None])[cross]
    return vecs @ d @ vecs.conj().T


def dense_layers(ctx, m, base):
    """Layer j = E_{base fattened by j} - E_{base fattened by j-1}, all dense."""
    g = ctx.graph
    prev = conditional_expectation(ctx, base, m)
    layers = {tuple(base): prev}
    j = 0
    while len(fatten(g, base, j)) < g.n_sites:
        j += 1
        cur = conditional_expectation(ctx, fatten(g, base, j), m)
        layers[tuple(int(z) for z in fatten(g, base, j))] = cur - prev
        prev = cur
    return layers


def criterion_07_chain():
    g = build_lattice("path", 8)
    ctx = build_context(g)
    fields = [-2.0, 1.1, 1.7, 2.3, 2.9, 3.5, 4.1, 4.7]
    h0 = sum(fields[z] * number_operator(ctx, [z]).matrix for z in g.vertices)
    phi = model("long_range_hopping", ctx, J=0.3, alpha_tb=4.0).interaction.sample(0.0)
    return ctx, h0 + assemble(phi), phi


def test_extract_interaction_sector_route_matches_dense():
    ctx, h, phi = criterion_07_chain()
    w = build_weight_spectrum(1.0, 0.5)
    _, info = inverse_liouvillian(h, phi.terms[(0, 1)].matrix, w)
    assert info["sectors"] == [math.comb(8, k) for k in range(9)]
    want: dict = {}
    for term in phi.terms.values():
        jm = dense_inverse(h, term.matrix, w)
        for key, layer in dense_layers(ctx, jm, term.support).items():
            want[key] = want.get(key, 0.0) + layer
    got = extract_interaction(ctx, h, phi, w)
    assert sorted(got.terms) == sorted(want) and len(want) == 57
    scale = max(op_norm(m) for m in want.values())
    for key, term in got.terms.items():
        ref = 0.5 * (want[key] + want[key].conj().T)
        assert op_norm(term.matrix - ref) <= 1e-12 * scale


def test_inverse_liouvillian_parity_sectors_and_off_sector_input():
    g = build_lattice("path", 5)
    ctx = build_context(g)
    phi = random_two_body(ctx, np.random.default_rng(17), alpha_tb=3.0)
    h = assemble(phi) + sum(0.4 * (z + 1) * number_operator(ctx, [z]).matrix for z in g.vertices)
    w = build_weight_spectrum(0.3, 0.15)
    a = phi.terms[(1, 2)].matrix
    j, info = inverse_liouvillian(h, a, w)
    assert info["sectors"] == [16, 16]  # pairing terms break number, not parity
    want = dense_inverse(h, a, w)
    assert op_norm(j - want) <= 1e-12 * op_norm(want)
    # an odd input connects the two parity sectors only
    odd = (ladder(ctx, 2) + ladder(ctx, 2).adjoint()).matrix
    j, _ = inverse_liouvillian(h, odd, w)
    want = dense_inverse(h, odd, w)
    assert op_norm(j - want) <= 1e-12 * op_norm(want)


def gapped_chain(n=6):
    """Criterion 06's family: fields with one negative, hopping switched on."""
    g = build_lattice("path", n)
    ctx = build_context(g)
    fields = [-2.0, 1.1, 1.7, 2.3, 2.9, 3.5][:n]
    h0 = sum(fields[z] * number_operator(ctx, [z]).matrix for z in g.vertices)
    h1 = assemble(model("long_range_hopping", ctx, J=0.15, alpha_tb=3.0).interaction.sample(0.0))
    return ctx, lambda s: h0 + s * h1, h1


def test_inverse_liouvillian_number_sectors_with_a_ladder_input():
    ctx, h_fn, _ = gapped_chain()
    h = h_fn(0.6)
    w = build_weight_spectrum(0.5, 0.25)
    a = (ladder(ctx, 1) + ladder(ctx, 1).adjoint()).matrix  # changes the particle number
    j, info = inverse_liouvillian(h, a, w)
    assert info["sectors"] == [1, 6, 15, 20, 15, 6, 1]
    want = dense_inverse(h, a, w)
    assert op_norm(j - want) <= 1e-12 * op_norm(want)
    # the time-domain route filters with its refined quadrature, 1.5 x (10, 8)
    j, info = inverse_liouvillian(h, a, w, method="time_domain", horizon=10.0)
    evals, vecs = np.linalg.eigh(h)
    f = w.filter_numeric(evals[:, None] - evals[None, :], 15.0, 12.0)
    want = vecs @ (f * (vecs.conj().T @ a @ vecs)) @ vecs.conj().T
    assert op_norm(j - want) <= 1e-12 * op_norm(want)
    # below dimension 32 the dense route is cheaper and is taken
    small_ctx, small_h_fn, _ = chain_family()
    small_a = ladder(small_ctx, 1).matrix
    assert inverse_liouvillian(small_h_fn(0.6), small_a, w)[1]["sectors"] == [16]


@pytest.mark.parametrize("sector_dim", [1, 2, 5])
def test_kato_generator_and_sector_gap_sector_route_match_dense(sector_dim):
    ctx, h_fn, _ = gapped_chain()
    for s in (0.0, 0.35, 1.0):
        h = h_fn(s)
        rep = sector_gap(h, sector_dim)
        evals, vecs = np.linalg.eigh(h)
        assert np.abs(rep.eigenvalues - evals).max() <= 1e-12 * np.abs(evals).max()
        assert abs(rep.gap - (evals[sector_dim] - evals[sector_dim - 1])) <= 1e-12
        p = vecs[:, :sector_dim] @ vecs[:, :sector_dim].conj().T
        assert op_norm(rep.projector - p) <= 1e-12
        want = dense_kato(h_fn, s, sector_dim)
        assert op_norm(kato_generator(h_fn, s, sector_dim) - want) <= 1e-12 * op_norm(want)


def test_generic_dense_h_takes_the_one_sector_route_bit_for_bit():
    rng = np.random.default_rng(21)
    dim = 16
    h = random_hermitian(rng, dim, scale=2.0)
    a = random_hermitian(rng, dim)
    w = build_weight_spectrum(0.3, 0.15)
    j, info = inverse_liouvillian(h, a, w)
    assert info["sectors"] == [dim]
    assert np.array_equal(j, dense_inverse(h, a, w))
    h_dot = random_hermitian(rng, dim)

    def h_fn(s):
        return h + s * h_dot

    assert np.array_equal(kato_generator(h_fn, 0.2, 3), dense_kato(h_fn, 0.2, 3))
    rep = sector_gap(h, 3)
    evals, vecs = np.linalg.eigh(h)
    assert np.array_equal(rep.eigenvalues, evals)
    assert np.array_equal(rep.projector, vecs[:, :3] @ vecs[:, :3].conj().T)


# --------------------------------------------------------------------------
# sector transport against a dense propagation


def dense_magnus(gen, s, t, n):
    """U(t, s) from n fourth-order Magnus steps on the whole space, snapped
    to its polar factor once: the stepper's arithmetic without sectors."""
    dt = (t - s) / n
    c = math.sqrt(3.0) / 6.0
    u = np.eye(gen(s).shape[0], dtype=np.complex128)
    for k in range(n):
        t0 = s + k * dt
        h1, h2 = gen(t0 + (0.5 - c) * dt), gen(t0 + (0.5 + c) * dt)
        x = 0.5 * dt * (h1 + h2) - 1j * (math.sqrt(3.0) / 12.0) * dt**2 * (h2 @ h1 - h1 @ h2)
        w, v = np.linalg.eigh(x)
        u = (v * np.exp(-1j * w)) @ v.conj().T @ u
    left, _, right = np.linalg.svd(u)
    return left @ right


def dense_transport(h_fn, d_fn, s_grid):
    """Grid propagators and per-time deviations of ``automorphic_deviation``
    from whole-space matrices: each segment at the step count the stepper
    accepts on it, the ground projectors from one ``eigh`` each."""

    def ground(s):
        _, vecs = np.linalg.eigh(h_fn(s))
        return vecs[:, :1] @ vecs[:, :1].conj().T

    p0 = ground(s_grid[0])
    acc = np.eye(p0.shape[0], dtype=np.complex128)
    us, per = [acc], [0.0]
    for s, t in zip(s_grid, s_grid[1:]):
        u = dense_magnus(d_fn, s, t, propagate(d_fn, s, t)[1]["steps"])
        left, _, right = np.linalg.svd(u @ acc)
        acc = left @ right
        us.append(acc)
        per.append(np.linalg.norm(ground(t) - acc @ p0 @ acc.conj().T, 2))
    return us, np.array(per)


def transport_case(case):
    """(h_fn, d_fn, the transport's sector sizes) for one sector route."""
    if case == "parity":
        # pairing terms: parity is the only charge
        ctx = build_context(build_lattice("path", 5))
        rng = np.random.default_rng(31)
        ha = assemble(random_two_body(ctx, rng, alpha_tb=3.0, strength=0.5))
        hb = assemble(random_two_body(ctx, rng, alpha_tb=3.0, strength=0.5))

        def h_fn(s):
            return ha + s * hb

        return h_fn, h_fn, [16, 16]
    ctx, h_fn, h1 = gapped_chain()  # flow-transport's 6-site chain
    if case == "hastings":
        w = build_weight_spectrum(1.0, 0.5)
        return h_fn, lambda s: hastings_generator(h_fn(s), h1, w), [1, 6, 15, 20, 15, 6, 1]
    if case == "kato":
        return h_fn, lambda s: kato_generator(h_fn, s), [1, 6, 15, 20, 15, 6, 1]
    # from s = 0.5 on, a term that changes the particle number joins in
    odd = (ladder(ctx, 1) + ladder(ctx, 1).adjoint()).matrix
    return h_fn, lambda s: kato_generator(h_fn, s) + max(0.0, s - 0.5) ** 4 * odd, [64]


@pytest.mark.parametrize("case", ["kato", "hastings", "parity", "connecting"])
def test_sector_transport_matches_dense_propagation(case):
    h_fn, d_fn, sectors = transport_case(case)
    s_grid = np.linspace(0.0, 1.0, 9)
    report = automorphic_deviation(h_fn, d_fn, s_grid=s_grid)
    assert report["sectors"] == sectors
    want_us, want_per = dense_transport(h_fn, d_fn, s_grid)
    assert np.abs(report["per_time"] - want_per).max() <= 1e-12
    for u, want in zip(Propagator(d_fn).grid(s_grid), want_us):
        assert op_norm(u - want) <= 1e-12
    # one segment on its own: sectors from the sample at its midpoint
    u, info = propagate(d_fn, 0.375, 0.625)
    assert info["sectors"] == sectors
    assert op_norm(u - dense_magnus(d_fn, 0.375, 0.625, info["steps"])) <= 1e-12


def test_flow_transport_makes_57_generator_calls():
    # per segment one scale sample and 2 + 4 Gauss nodes, plus the grid's
    # first sample: 1 + 8 * 7
    h_fn, kato, _ = transport_case("kato")

    def d_fn(s):
        d_fn.calls += 1
        return kato(s)

    d_fn.calls = 0
    automorphic_deviation(h_fn, d_fn, s_grid=np.linspace(0.0, 1.0, 9))
    assert d_fn.calls == 57
