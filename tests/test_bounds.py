"""Bound-curve tests: frozen closed-form values, integral oracles computed
with scipy quadrature, cross-family dominations, and the iteration engine's
certified invariants (depth monotonicity, exact vs continuum kernel norms,
domination of measured commutators)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lrlab.bounds import (
    CURVE_FAMILIES,
    BoundCurve,
    BoundIteration,
    BoundParams,
    certify,
    curve,
    curve_problems,
    delta_cap,
    finite_range_bound,
    finite_range_tight_bound,
    iterate_bound,
    power_split_bound,
    shell_sum_constant,
    sigma_window,
    split_range_bound,
    stretched_light_cone_bound,
    stretched_tail_constant,
    stretched_tail_integral,
    tail_split_constant,
)
from lrlab.dynamics import CommutatorSeries, lr_sweep
from lrlab.fock import build_context, number_operator
from lrlab.interactions import interaction_norm, lr_velocity, model
from lrlab.lattice import build_lattice


def params(alpha=3.0, dim=1, **kw):
    base = dict(
        alpha=alpha,
        dim=dim,
        c_surface=2.0,
        c_volume=1.0,
        speed=1.0,
        speed_max=2.0,
        norm_alpha=0.5,
        norm_alpha_weighted=1.0,
        f_norm=1.7,
    )
    base.update(kw)
    return BoundParams(**base)


# --------------------------------------------------------------------------
# small closed forms


def test_delta_cap():
    assert delta_cap(0.3) == 0.3
    assert delta_cap(5.7) == 2.0
    assert delta_cap(2.0) == 2.0
    with pytest.raises(ValueError):
        delta_cap(-0.1)


def test_shell_sum_constant_values():
    assert shell_sum_constant(1, 2.0) == 4.0
    assert shell_sum_constant(2, 3.0) == 12.0


def test_stretched_tail_constant_values():
    # mu=0, nu=1: max(1, e Gamma(1)) = e
    assert abs(stretched_tail_constant(0.0, 1.0) - math.e) < 1e-14
    # mu=1, nu=1: max(1, e Gamma(2)) = e
    assert abs(stretched_tail_constant(1.0, 1.0) - math.e) < 1e-14
    # mu=0, nu=2: (1/2) e Gamma(1/2)
    want = 0.5 * math.e * math.sqrt(math.pi)
    assert abs(stretched_tail_constant(0.0, 2.0) - want) < 1e-14


@pytest.mark.parametrize("mu", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("nu", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("rho", [0.5, 1.0, 3.0, 10.0])
def test_stretched_tail_integral_dominates_quadrature(mu, nu, rho):
    true, err = quad(
        lambda x: math.exp(-(x**nu)) * x**mu, rho, np.inf, limit=200
    )
    bound = stretched_tail_integral(mu, nu, rho)
    assert bound >= true - err - 1e-12


def test_stretched_tail_integral_validates():
    with pytest.raises(ValueError):
        stretched_tail_integral(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        stretched_tail_constant(1.0, -1.0)


@pytest.mark.parametrize(
    "family,size",
    [("path", 9), ("ring", 10), ("square_patch", (4, 4)), ("square_torus", (4, 4))],
)
def test_shell_sums_bounded_by_integral(family, size):
    # sum_z f(d(x,z)) <= f(0) + 2^D c_surface int_{1/2}^inf f(q) q^(D-1) dq
    # for non-increasing f, on every concrete lattice family
    g = build_lattice(family, size)
    from lrlab.lattice import certify_growth

    growth = certify_growth(g)
    c = shell_sum_constant(g.dim, growth.c_surface)
    for f in (lambda q: math.exp(-q / 2.0), lambda q: (q + 1.0) ** -4.0):
        integral, _ = quad(lambda q: f(q) * q ** (g.dim - 1), 0.5, np.inf, limit=200)
        bound = f(0.0) + c * integral
        for x in g.vertices:
            row = sum(f(float(g.distance(x, z))) for z in g.vertices)
            assert row <= bound + 1e-12


# --------------------------------------------------------------------------
# closed-form curve families


def test_finite_range_bound_values():
    p = params()
    # v dt = 1, r = R: cap(2 e^0) = 2
    assert finite_range_bound(p, 3.0, 1.0, 3.0) == 2.0
    # r = 3R: 2 exp(1 - 3) = 2 e^-2
    got = finite_range_bound(p, 9.0, 1.0, 3.0)
    assert abs(got - 2.0 * math.exp(-2.0)) < 1e-14
    assert abs(got - 0.2706705664732254) < 1e-12
    with pytest.raises(ValueError):
        finite_range_bound(p, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        finite_range_bound(p, -1.0, 1.0, 2.0)


def test_finite_range_tight_value():
    p = params()
    # I = v dt = 1 at r = R: 2 (e - 1) e^-1
    got = finite_range_tight_bound(p, 3.0, 1.0, 3.0)
    assert abs(got - 1.2642411176571153) < 1e-12
    override = finite_range_tight_bound(p, 3.0, 1.0, 3.0, integral=0.5)
    assert abs(override - 2.0 * (math.exp(0.5) - 1.0) * math.exp(-1.0)) < 1e-14
    with pytest.raises(ValueError):
        finite_range_tight_bound(p, 0.5, 1.0, 3.0)  # needs disjoint supports


def test_finite_range_tight_beats_capped_for_short_times():
    p = params()
    for r in (2.0, 5.0, 9.0):
        for dt in (0.05, 0.2, 0.5):
            tight = finite_range_tight_bound(p, r, dt, 3.0)
            capped = finite_range_bound(p, r, dt, 3.0)
            assert tight <= capped + 1e-14


def test_split_range_bound_structure():
    p = params()
    # r = 0 is the trivial bound
    assert split_range_bound(p, 0.0, 1.0, 2.0) == 2.0
    # pinned formula recomputation at one point
    r, dt, rp = 6.0, 0.4, 2.0
    w = p.norm_alpha_weighted * dt * (rp + 1.0) ** (-p.alpha)
    lead = math.exp(p.speed * dt - r / rp)
    want = 2.0 * (
        lead
        + 2.0 * p.c_volume * w * (r + 1.0) ** p.dim
        + tail_split_constant(p.dim, p.c_surface) * w * (r + rp) ** (p.dim - 1) * rp * lead
    )
    assert abs(split_range_bound(p, r, dt, rp) - want) < 1e-12
    with pytest.raises(ValueError):
        split_range_bound(p, 1.0, 1.0, 0.5)


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9])
def test_power_split_dominates_split_range(alpha, sigma):
    # the collected two-term form must dominate the three-term bound it
    # was collected from, at split radius r^sigma (checked for D = 1)
    p = params(alpha=alpha)
    for r in range(1, 25):
        for dt in (0.1, 0.5, 1.0, 2.0):
            rp = float(r) ** sigma
            if rp < 1.0:
                continue
            a = power_split_bound(p, float(r), dt, sigma)
            b = split_range_bound(p, float(r), dt, rp)
            assert a >= b - 1e-12


def test_power_split_trivial_at_contact():
    p = params()
    assert power_split_bound(p, 0.0, 1.0, 0.7) == 2.0
    with pytest.raises(ValueError):
        power_split_bound(p, 1.0, 1.0, 1.2)


def test_stretched_light_cone_window_and_value():
    p = params(alpha=3.0, dim=1)
    lo, hi = sigma_window(p)
    assert abs(lo - 0.5) < 1e-14 and hi == 1.0
    with pytest.raises(ValueError):
        stretched_light_cone_bound(p, 2.0, 1.0, 0.4, 1.0)
    sigma, const, r, dt = 0.75, 1.0, 8.0, 0.5
    nu_dt = p.speed_max * dt
    c_sigma = const * (sigma - lo) ** -2 / (1 - sigma) * math.gamma(p.dim / (1 - sigma))
    want = 2.0 * (
        math.exp(nu_dt - r ** (1 - sigma))
        + c_sigma * (r + 1.0) ** (-sigma * p.alpha) * nu_dt * (1 + nu_dt ** (p.dim / (1 - sigma)))
    )
    assert abs(stretched_light_cone_bound(p, r, dt, sigma, const) - want) < 1e-12


def test_params_from_interaction_consistency():
    g = build_lattice("path", 6)
    ctx = build_context(g)
    m = model("long_range_hopping", ctx, J=1.0, alpha_tb=3.0)
    p = BoundParams.from_interaction(m.interaction, 3.0, (0,), (4, 5))
    # decay alpha_tb and the (diam+1)^alpha weight cancel exactly, leaving
    # one unit-norm hop per partner: 5 partners on a 6-site path
    assert abs(p.norm_alpha - 5.0) < 1e-12
    from lrlab.lattice import f_alpha_norm

    f = f_alpha_norm(g, 3.0)
    assert abs(p.f_norm - f) < 1e-14
    assert abs(p.speed - 2.0 * math.e * f * p.norm_alpha) < 1e-12
    assert p.speed_max >= p.norm_alpha_weighted
    assert p.size_x == 1 and p.size_y == 2 and p.min_size == 1
    # the one constructor from norms, which lr_velocity also goes through
    direct = BoundParams.from_norms(g, 3.0, p.norm_alpha, p.norm_alpha_weighted, 1, 2)
    assert direct == p
    assert lr_velocity(m.interaction, 3.0) == (p.speed, p.speed_max)
    phi = m.interaction.sample(0.0)
    na, na1 = interaction_norm(phi, 3.0, 0), interaction_norm(phi, 3.0, 1)
    assert BoundParams.from_interaction(phi, 3.0) == BoundParams.from_norms(g, 3.0, na, na1)


# --------------------------------------------------------------------------
# iteration engine


def test_iteration_depth_is_monotone():
    p = params(alpha=3.0)
    g = build_lattice("path", 30)
    eng = BoundIteration(p, g, dt=0.3, schedule=(0.7, 0.7, 0.7))
    v0 = eng.full_curve_values(0)
    v1 = eng.full_curve_values(1)
    v2 = eng.full_curve_values(2)
    v3 = eng.full_curve_values(3)
    assert np.all(v1 <= v0 + 1e-15)
    assert np.all(v2 <= v1 + 1e-15)
    assert np.all(v3 <= v2 + 1e-15)
    assert np.all(v3 <= 2.0) and np.all(v3 >= 0.0)
    # monotone non-increasing in distance
    for v in (v0, v1, v2, v3):
        assert np.all(np.diff(v) <= 1e-15)


def test_iteration_beats_trivial_far_away():
    # far outside the light cone the level-0 curve is stuck at the trivial
    # cap for the full dynamics, but one improvement step is nontrivial
    p = params(alpha=3.0)
    g = build_lattice("path", 40)
    eng = BoundIteration(p, g, dt=0.05, schedule=(0.7,))
    assert eng.value(0, 30.0, math.inf) == 2.0
    assert eng.value(1, 30.0, math.inf) < 0.5


def test_exact_norm_below_continuum():
    for n, dt in ((12, 0.1), (25, 0.3), (40, 0.6)):
        p = params(alpha=3.0)
        g = build_lattice("path", n)
        eng = BoundIteration(p, g, dt=dt, schedule=(0.7, 0.8))
        for level in (0, 1, 2):
            for rng in (1.5, 2.5, 4.0):
                exact, cont = eng.compare_norms(level, rng)
                assert exact <= cont * (1.0 + 1e-12)
    # 2-D family too
    p2 = params(alpha=4.0, dim=2, c_surface=4.0, c_volume=2.0)
    g2 = build_lattice("square_patch", (5, 5))
    eng2 = BoundIteration(p2, g2, dt=0.2, schedule=(0.8,))
    for rng in (1.5, 3.0):
        exact, cont = eng2.compare_norms(1, rng)
        assert exact <= cont * (1.0 + 1e-12)


def test_continuum_route_dominates_exact_route():
    p = params(alpha=3.0)
    g = build_lattice("path", 25)
    ex = BoundIteration(p, g, dt=0.3, schedule=(0.7, 0.7), norm_route="exact")
    co = BoundIteration(p, g, dt=0.3, schedule=(0.7, 0.7), norm_route="continuum")
    ve = ex.full_curve_values()
    vc = co.full_curve_values()
    assert np.all(ve <= vc + 1e-12)


def test_iterate_bound_curve_interface():
    p = params(alpha=3.0)
    g = build_lattice("path", 20)
    c = iterate_bound(p, g, depth=2, sigmas=(0.65, 0.8))
    assert isinstance(c, BoundCurve)
    v = c(10.0, 0.2)
    assert 0.0 < v <= 2.0
    # fractional distances round down to the coarser integer value
    assert c(10.6, 0.2) == c(10.0, 0.2)
    with pytest.raises(ValueError):
        iterate_bound(p, g, depth=0)
    with pytest.raises(ValueError):
        iterate_bound(p, g, depth=2, schedule=(0.7,))


def test_engine_validation():
    p = params()
    g = build_lattice("path", 10)
    with pytest.raises(ValueError):
        BoundIteration(p, g, dt=-1.0, schedule=(0.7,))
    with pytest.raises(ValueError):
        BoundIteration(p, g, dt=1.0, schedule=(1.5,))
    with pytest.raises(ValueError):
        BoundIteration(p, g, dt=1.0, schedule=(0.7,), norm_route="magic")
    eng = BoundIteration(p, g, dt=1.0, schedule=(0.7,))
    with pytest.raises(ValueError):
        eng.continuum_norm(0, math.inf)


# --------------------------------------------------------------------------
# certification against measured dynamics


def test_certify_against_measured_sweep():
    g = build_lattice("path", 4)
    ctx = build_context(g)
    m = model("long_range_hopping", ctx, J=0.5, alpha_tb=3.0)
    a = number_operator(ctx, [0])
    b = number_operator(ctx, [3])
    times = np.linspace(0.0, 0.8, 9)
    series = lr_sweep(m, a, b, times)
    p = BoundParams.from_interaction(m.interaction, 3.0, a.support, b.support)
    curves = [
        curve(p, "finite_range", max_range=g.diameter() + 1),
        curve(p, "finite_range_tight", max_range=g.diameter() + 1),
        curve(p, "iterated", graph=g, depth=2),
    ]
    report = certify(series, curves, slack=1e-9)
    assert report.ok, f"worst margin {report.worst_margin}"
    assert report.worst_margin <= 1e-9
    assert 0.0 <= report.tightness <= 1.0 + 1e-9
    rows = list(report.rows())
    assert len(rows) == len(times)
    assert set(rows[0]) == {"time", "measured"} | {c.label for c in curves} | {"active"}


def test_certify_flags_violations():
    series = CommutatorSeries(
        times=np.array([0.0, 0.5]),
        values=np.array([0.0, 0.4]),
        distance=3,
        size_x=1,
        size_y=1,
        norm_a=1.0,
        norm_b=1.0,
    )
    tiny = BoundCurve("tiny", lambda r, dt: 0.01)
    report = certify(series, [tiny])
    assert not report.ok
    assert abs(report.worst_margin - 0.39) < 1e-12
    ok_report = certify(series, [BoundCurve("trivial", lambda r, dt: 2.0)])
    assert ok_report.ok and ok_report.active == ["trivial", "trivial"]


def test_curve_factory_families():
    p = params()
    g = build_lattice("path", 8)
    for fam, opt in [
        ("finite_range", {"max_range": 3.0}),
        ("finite_range_tight", {"max_range": 3.0}),
        ("split_range", {"split_range": 2.0}),
        ("power_split", {"sigma": 0.7}),
        ("stretched", {"sigma": 0.75, "constant": 1.0}),
    ]:
        c = curve(p, fam, **opt)
        assert 0.0 <= c(5.0, 0.3) <= 2.0
        assert fam.split("(")[0] in c.label or fam in c.label
    c = curve(p, "iterated", graph=g, depth=1, sigmas=(0.7,))
    assert c(4.0, 0.2) <= 2.0
    with pytest.raises(ValueError):
        curve(p, "nope")
    with pytest.raises(ValueError):
        curve(p, "iterated")  # needs the graph


def test_curve_labels_and_registry_defaults():
    p = params()
    g = build_lattice("path", 8)
    specs = [
        ("finite_range", {}),
        ("finite_range_tight", {"max_range": 3}),
        ("split_range", {"split_range": 2.0}),
        ("power_split", {"sigma": 0.7}),
        ("stretched", {"sigma": 0.75, "constant": 1.0}),
        ("iterated", {"depth": 1, "sigmas": (0.7,)}),
    ]
    assert [curve(p, fam, g, **opt).label for fam, opt in specs] == [
        "finite_range(R=7)",
        "finite_range_tight(R=3)",
        "split_range(R'=2)",
        "power_split(sigma=0.7)",
        "stretched(sigma=0.75)",
        "iterated(depth=1, exact)",
    ]
    assert [fam for fam, _ in specs] == list(CURVE_FAMILIES)
    with pytest.raises(ValueError, match="needs max_range"):
        curve(p, "finite_range")  # the default range needs the graph
    with pytest.raises(ValueError, match="needs constant"):
        curve(p, "stretched", sigma=0.75)
    assert curve_problems("nope", {}, 3.0, 1) == ["unknown curve family 'nope'"]
    assert curve_problems("finite_range", {}, 3.0, 1) == []  # no graph: range unknown
    assert curve_problems("finite_range", {}, 3.0, 1, build_lattice("path", 1)) == [
        "max_range must be at least 1 (default: the lattice diameter), got 0"
    ]


def test_stretched_needs_a_positive_constant():
    # a nonpositive constant gives a curve below the measurement, not a bound
    for constant in (-5.0, 0.0):
        assert curve_problems("stretched", {"sigma": 0.75, "constant": constant}, 3.0, 1) == [
            f"constant must be positive, got {constant}"
        ]
    assert curve_problems("stretched", {"sigma": 0.75, "constant": 1e-3}, 3.0, 1) == []


def test_stretched_curve_saturates_instead_of_overflowing():
    p = params(speed_max=40.0)
    c = curve(p, "stretched", sigma=0.999, constant=1.0)
    assert c(3.0, 0.5) == 2.0
    assert c(3.0, 0.0) == pytest.approx(2.0 * math.exp(-(3.0**0.001)))


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(list(CURVE_FAMILIES)),
    values=st.fixed_dictionaries(
        {},
        optional={
            "max_range": st.floats(-1.0, 9.0),
            "split_range": st.floats(-1.0, 4.0),
            "sigma": st.floats(-0.5, 1.5),
            "constant": st.floats(-3.0, 3.0),
            "depth": st.integers(-1, 2),
        },
    ),
    n=st.integers(1, 6),
    distance=st.integers(0, 3),
    speed=st.floats(0.0, 50.0),
)
def test_curve_problems_admit_only_evaluable_specs(family, values, n, distance, speed):
    p = params(speed=speed, speed_max=max(speed, 1.0))
    g = build_lattice("path", n)
    opt = {k: v for k, v in values.items() if k in CURVE_FAMILIES[family].params}
    if curve_problems(family, opt, p.alpha, p.dim, g, distance):
        return
    c = curve(p, family, g, **opt)
    for r in range(distance, g.diameter() + 2):
        for dt in (0.0, 0.4, 3.0):
            assert c(r, dt) <= 2.0
