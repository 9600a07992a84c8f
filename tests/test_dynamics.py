import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab import interactions
from lrlab.dynamics import (
    Propagator,
    StepperSettings,
    commutator_norms,
    heisenberg,
    lr_sweep,
    propagate,
)
from lrlab.fock import build_context, ladder, number_operator
from lrlab.interactions import (
    Interaction,
    TimeDependentInteraction,
    assemble,
    model,
    random_two_body,
)
from lrlab.lattice import build_lattice
from lrlab.linalg import expm_hermitian


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def hop_model(ctx, j=1.0, alpha_tb=2.0):
    return model("long_range_hopping", ctx, J=j, alpha_tb=alpha_tb)


def test_constant_generator_matches_closed_form():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 12)
    u, info = propagate(lambda t: h, 0.0, 1.3)
    want = expm_hermitian(h, -1.3j)
    assert np.abs(u - want).max() < 1e-10
    assert info["unitarity"] <= 1e-10


def test_cocycle_and_inversion():
    rng = np.random.default_rng(2)
    ha, hb = random_hermitian(rng, 8), random_hermitian(rng, 8)

    def gen(t):
        return ha + np.sin(t) * hb

    prop = Propagator(gen)
    u20 = prop.u(2.0, 0.0)
    u21 = prop.u(2.0, 1.0)
    u10 = prop.u(1.0, 0.0)
    assert np.linalg.norm(u20 - u21 @ u10, 2) < 1e-8
    assert np.abs(prop.u(0.0, 1.0) - u10.conj().T).max() < 1e-12


def test_rejects_non_selfadjoint_generator():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="self-adjoint"):
        propagate(lambda t: bad, 0.0, 1.0)


def test_heisenberg_preserves_norm():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 6)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    u, _ = propagate(lambda t: h, 0.0, 0.7)
    evolved = heisenberg(u, a)
    assert np.linalg.norm(evolved, 2) == pytest.approx(np.linalg.norm(a, 2), rel=1e-10)


def test_two_mode_hop_commutator_closed_form():
    # H = a*_0 a_1 + a*_1 a_0 on two sites: the occupation commutator
    # oscillates as |sin(2t)| / 2
    ctx = build_context(build_lattice("path", 2))
    phi = Interaction(ctx)
    a0, a1 = ladder(ctx, 0), ladder(ctx, 1)
    phi.add_term((0, 1), a0.adjoint() @ a1 + a1.adjoint() @ a0)
    m = model("interpolation", ctx, phi_a=phi, phi_b=phi)
    times = np.linspace(0.0, 2.0, 9)
    series = lr_sweep(m, number_operator(ctx, [0]), number_operator(ctx, [1]), times)
    want = np.abs(np.sin(2 * times)) / 2
    assert np.abs(series.values - want).max() < 1e-9
    assert series.distance == 1
    assert series.flags == ()


def test_sweep_flags_odd_pair_and_overlap():
    ctx = build_context(build_lattice("path", 3))
    m = hop_model(ctx)
    a0, a2 = ladder(ctx, 0), ladder(ctx, 2)
    series = lr_sweep(m, a0, a2, [0.0, 0.4])
    assert "no-parity-guarantee" in series.flags
    n0 = number_operator(ctx, [0])
    overlap = lr_sweep(m, n0, n0, [0.0])
    assert overlap.distance == 0


def test_sweep_truncation_freezes_distant_pairs():
    # with every term of diameter >= 2 removed, sites 0 and 2 only talk
    # through site 1, so the t^2 short-time response is suppressed
    ctx = build_context(build_lattice("path", 3))
    m = hop_model(ctx, j=0.5)
    n0, n2 = number_operator(ctx, [0]), number_operator(ctx, [2])
    t = [0.0, 0.05]
    full = lr_sweep(m, n0, n2, t)
    cut = lr_sweep(m, n0, n2, t, max_range=2)
    assert cut.values[1] < full.values[1]
    assert cut.values[1] < 1e-3


def test_stepper_is_higher_order():
    # halving the step should cut the error by far more than the factor 4
    # a second-order rule would give
    from lrlab.dynamics import _integrate

    rng = np.random.default_rng(5)
    ha, hb = random_hermitian(rng, 6), random_hermitian(rng, 6)
    gen = lambda t: ha + np.sin(3 * t) * hb
    st = StepperSettings()
    ref = _integrate(gen, 0.0, 1.5, 4096, st)
    errs = [
        np.linalg.norm(_integrate(gen, 0.0, 1.5, n, st) - ref, 2) for n in (16, 32, 64)
    ]
    assert errs[0] / errs[1] > 8.0
    assert errs[1] / errs[2] > 8.0


def counting(gen):
    """``gen`` with a call counter in ``.calls``."""

    def wrapped(t):
        wrapped.calls += 1
        return gen(t)

    wrapped.calls = 0
    return wrapped


def test_generator_calls_per_segment():
    # one sample for the scale, then 2n Gauss nodes at n steps and 4n at 2n;
    # a constant generator converges at the first doubling
    rng = np.random.default_rng(6)
    h = random_hermitian(rng, 6)
    gen = counting(lambda t: h)
    _, info = propagate(gen, 0.0, 0.9)
    n = info["steps"] // 2
    assert n >= 1 and gen.calls == 1 + 2 * n + 4 * n
    # the grid reads one sample at its first time on top of its segments
    gen = counting(lambda t: h)
    Propagator(gen).grid([0.0, 0.3, 0.9])
    steps = [propagate(lambda t: h, s, t)[1]["steps"] // 2 for s, t in ((0.0, 0.3), (0.3, 0.9))]
    assert gen.calls == 1 + sum(1 + 6 * n for n in steps)


def test_settings_control_tolerance():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 4)
    loose = StepperSettings(tol=1e-6)
    u, info = propagate(lambda t: h + t * np.eye(4), 0.0, 1.0, loose)
    assert info["defect"] <= 1e-6


def stepper_values(gen, a, b, times):
    """The magnus route spelled out: grid propagators, then commutators."""
    out = []
    for u in Propagator(gen).grid(times):
        evolved = heisenberg(u, a)
        out.append(np.linalg.norm(evolved @ b.matrix - b.matrix @ evolved, 2))
    return np.array(out)


@pytest.mark.parametrize("probe", ["number", "ladder"])
def test_constant_callable_takes_eigh_route(probe):
    ctx = build_context(build_lattice("path", 5))
    phi = random_two_body(ctx, np.random.default_rng(11), alpha_tb=3.0, strength=0.4)
    h = assemble(phi)
    gen = lambda t: h
    a = number_operator(ctx, [0])
    b = number_operator(ctx, [4]) if probe == "number" else ladder(ctx, 4)
    times = np.linspace(0.0, 0.3, 20)
    series = lr_sweep(gen, a, b, times)
    assert series.info["route"] == "eigh"
    assert series.info["defect"] == 0.0
    assert series.info["unitarity"] <= 1e-10
    assert np.abs(series.values - stepper_values(gen, a, b, times)).max() < 1e-9


def test_generator_constant_only_on_grid_takes_magnus_route():
    rng = np.random.default_rng(12)
    ctx = build_context(build_lattice("path", 3))
    h = assemble(random_two_body(ctx, rng, alpha_tb=2.0))
    hb = assemble(random_two_body(ctx, rng, alpha_tb=2.0))
    dt = 0.1
    times = dt * np.arange(6)
    # bitwise H at every grid time, since t - round(t/dt) dt is exactly 0
    # there, but not in between
    gen = lambda t: h + np.sin(np.pi * (t - np.round(t / dt) * dt) / dt) * hb
    a, b = number_operator(ctx, [0]), number_operator(ctx, [2])
    series = lr_sweep(gen, a, b, times)
    assert series.info["route"] == "magnus"
    assert np.array_equal(series.values, stepper_values(gen, a, b, times))


def test_constant_non_selfadjoint_generator_rejected():
    ctx = build_context(build_lattice("path", 2))
    bad = ladder(ctx, 0).matrix
    with pytest.raises(ValueError, match="self-adjoint"):
        lr_sweep(lambda t: bad, number_operator(ctx, [0]), number_operator(ctx, [1]), [0.0, 0.1])


def model_generator(m, max_range=None):
    h0 = assemble(m.interaction.phi0, m.onsite, max_range)
    h1 = assemble(m.interaction.phi1, None, max_range)
    return lambda t: h0 + t * h1


def test_constant_model_takes_eigh_route():
    ctx = build_context(build_lattice("path", 4))
    m = model("atomic_limit", ctx, mu=[0.3, -0.2, 0.5, 0.1], J=0.7, alpha_tb=2.0)
    a, b = number_operator(ctx, [0]), ladder(ctx, 3)
    times = np.linspace(0.0, 0.5, 11)
    series = lr_sweep(m, a, b, times, max_range=3)
    assert series.info["route"] == "eigh"
    want = stepper_values(model_generator(m, max_range=3), a, b, times)
    assert np.abs(series.values - want).max() < 1e-9


def test_time_dependent_model_takes_magnus_route():
    rng = np.random.default_rng(13)
    ctx = build_context(build_lattice("path", 3))
    phi_a = random_two_body(ctx, rng, alpha_tb=2.0)
    phi_b = random_two_body(ctx, rng, alpha_tb=2.0)
    m = model("interpolation", ctx, phi_a=phi_a, phi_b=phi_b)
    assert not np.array_equal(assemble(phi_a), assemble(phi_b))
    a, b = number_operator(ctx, [0]), number_operator(ctx, [2])
    times = np.linspace(0.0, 1.0, 6)
    series = lr_sweep(m, a, b, times)
    assert series.info["route"] == "magnus"
    assert series.info["defect"] > 0.0
    assert np.array_equal(series.values, stepper_values(model_generator(m), a, b, times))


def test_constant_model_assembles_once_per_cut_and_never_samples(monkeypatch):
    ctx = build_context(build_lattice("path", 4))
    m = model("atomic_limit", ctx, mu=[0.3, -0.2, 0.5, 0.1], J=0.7, alpha_tb=2.0)
    calls = {"assemble": 0, "sample": 0}
    assemble_orig = interactions.assemble
    sample_orig = TimeDependentInteraction.sample

    def counted_assemble(*args, **kwargs):
        calls["assemble"] += 1
        return assemble_orig(*args, **kwargs)

    def counted_sample(self, t):
        calls["sample"] += 1
        return sample_orig(self, t)

    monkeypatch.setattr(interactions, "assemble", counted_assemble)
    monkeypatch.setattr(TimeDependentInteraction, "sample", counted_sample)
    a, b = number_operator(ctx, [0]), ladder(ctx, 3)
    times = np.linspace(0.0, 0.5, 11)
    for cut in (None, 3, None, 3):
        assert lr_sweep(m, a, b, times, max_range=cut).info["route"] == "eigh"
    assert calls == {"assemble": 2, "sample": 0}


def test_interpolation_between_equal_interactions_takes_eigh_route():
    rng = np.random.default_rng(17)
    ctx = build_context(build_lattice("path", 4))
    phi = random_two_body(ctx, rng, alpha_tb=2.0)
    m = model("interpolation", ctx, phi_a=phi, phi_b=phi)
    assert m.interaction.phi1.terms and m.interaction.is_constant
    a, b = number_operator(ctx, [0]), number_operator(ctx, [3])
    times = np.linspace(0.0, 1.0, 6)
    series = lr_sweep(m, a, b, times)
    assert series.info["route"] == "eigh"
    want = stepper_values(lambda t: assemble(phi), a, b, times)
    assert np.abs(series.values - want).max() < 1e-9


# ---------------------------------------------------------------------------
# the "eigh" route per charge sector, against a dense reference


def sweep_hamiltonian(ctx, kind, seed):
    """(H, its sector sizes): number sectors for hopping, parity sectors for
    two-body, and one sector once an odd on-site term joins the two-body."""
    rng = np.random.default_rng(seed)
    if kind == "hopping":
        h = hop_model(ctx, j=float(rng.uniform(0.3, 1.0))).hamiltonian(0.0)
        return h, [math.comb(ctx.n_modes, k) for k in range(ctx.n_modes + 1)]
    h = assemble(random_two_body(ctx, rng, alpha_tb=3.0, strength=0.5))
    if kind == "two_body":
        return h, [ctx.dim // 2] * 2
    c0 = ladder(ctx, 0).matrix
    return h + 0.3 * (c0 + c0.conj().T), [ctx.dim]


PROBE_KINDS = (
    "number/number", "number/ladder", "ladder/ladder", "hop/ladder_dag", "majorana/ladder", "mixed"
)


def sweep_probes(ctx, kind, x, y):
    """Matrices (A, B) of a probe pair.  A Majorana operator has a definite
    parity but no definite particle number; "mixed" has neither."""
    n = ctx.graph.n_sites
    c = [ladder(ctx, z).matrix for z in range(n)]
    num = [number_operator(ctx, [z]).matrix for z in range(n)]
    hop = c[x].conj().T @ c[(x + 1) % n]
    return {
        "number/number": (num[x], num[y]),
        "number/ladder": (num[x], c[y]),
        "ladder/ladder": (c[x], c[y]),
        "hop/ladder_dag": (hop + hop.conj().T, c[y].conj().T),
        "majorana/ladder": (c[x] + c[x].conj().T, c[y]),
        "mixed": (c[x] + num[x], num[y]),
    }[kind]


def dense_commutator_norms(h, a, b, times):
    """||[e^{iHt} A e^{-iHt}, B]|| from scipy's expm and a full SVD."""
    out = []
    for t in times:
        u = scipy.linalg.expm(-1j * t * h)
        a_t = u.conj().T @ a @ u
        out.append(np.linalg.norm(a_t @ b - b @ a_t, 2))
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["path", "ring"]),
    n=st.integers(3, 6),
    model_kind=st.sampled_from(["hopping", "two_body", "odd"]),
    probe=st.sampled_from(PROBE_KINDS),
    sites=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    seed=st.integers(0, 2**16),
    times=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=4),
)
def test_sector_sweep_matches_dense_reference(kind, n, model_kind, probe, sites, seed, times):
    ctx = build_context(build_lattice(kind, n))
    h, sizes = sweep_hamiltonian(ctx, model_kind, seed)
    a, b = sweep_probes(ctx, probe, sites[0] % n, sites[1] % n)
    vals, info, (norm_a, norm_b) = commutator_norms(h, a, b, times)
    scale = np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    assert np.abs(vals - dense_commutator_norms(h, a, b, times)).max() <= 1e-12 * scale
    assert norm_a * norm_b == pytest.approx(scale, rel=1e-12)
    if ctx.dim < 32 or probe == "mixed":
        sizes = [ctx.dim]
    elif probe == "majorana/ladder" and model_kind == "hopping":
        sizes = [ctx.dim // 2] * 2  # parity, the finest charge both probes keep
    assert info["sectors"] == sizes


def test_sweep_records_the_sectors_it_ran_on():
    ctx = build_context(build_lattice("path", 6))
    a, b = number_operator(ctx, [0]), ladder(ctx, 5)
    times = np.linspace(0.0, 0.3, 5)
    hopping = lr_sweep(hop_model(ctx), a, b, times)
    assert hopping.info["sectors"] == [1, 6, 15, 20, 15, 6, 1]
    h = assemble(random_two_body(ctx, np.random.default_rng(3), alpha_tb=3.0, strength=0.4))
    two_body = lr_sweep(lambda t: h, a, b, times)
    assert two_body.info["route"] == "eigh"
    assert two_body.info["sectors"] == [32, 32]


@pytest.mark.parametrize(
    "a_blocks, b_blocks, sizes",
    [
        # (target, source) number sectors of the nonzero blocks.  By
        # particle number, sources 0 and 2 of [A_t, B] would both feed
        # sector 2; by parity A and B swap the two sectors, which is exact
        ([(2, 1), (3, 2)], [(1, 0), (2, 3)], [32, 32]),
        # by particle number, source 0 would feed sectors 3 and 4; by
        # parity B maps both sectors into the even one
        ([(1, 0), (3, 2)], [(2, 0), (4, 1)], [64]),
    ],
)
def test_sector_sweep_rejects_block_maps_that_break_exactness(a_blocks, b_blocks, sizes):
    ctx = build_context(build_lattice("path", 6))
    rng = np.random.default_rng(21)
    index = [np.flatnonzero(np.bitwise_count(np.arange(ctx.dim)) == k) for k in range(7)]

    def scatter(blocks):
        m = np.zeros((ctx.dim, ctx.dim), dtype=np.complex128)
        for target, source in blocks:
            shape = (index[target].size, index[source].size)
            m[np.ix_(index[target], index[source])] = rng.standard_normal(shape)
        return m

    h = hop_model(ctx).hamiltonian(0.0)
    a, b = scatter(a_blocks), scatter(b_blocks)
    times = [0.0, 0.4, 1.1]
    vals, info, _ = commutator_norms(h, a, b, times)
    scale = np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    assert np.abs(vals - dense_commutator_norms(h, a, b, times)).max() <= 1e-12 * scale
    assert info["sectors"] == sizes
