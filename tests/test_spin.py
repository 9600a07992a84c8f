"""Spin conditional expectation, telescoping, trick curves, obstruction."""

import itertools

import numpy as np
import pytest

from lrlab.bounds import BoundCurve, certify, curve
from lrlab.lattice import build_lattice
from lrlab.linalg import op_norm
from lrlab.spin import (
    commutator_series,
    fermionic_obstruction_demo,
    ising_chain,
    localization_defect,
    random_spin_chain,
    site_operator,
    spin_bound_params,
    spin_conditional_expectation,
    spin_context,
    telescoping_localization,
    telescoping_terms,
    trick_bound,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def random_op(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


@pytest.mark.parametrize("n,region", [(3, (0,)), (4, (1, 2)), (5, (0, 3, 4)), (10, (2, 5))])
def test_expectation_projects_onto_region(n, region):
    ctx = spin_context(build_lattice("path", n))
    rng = np.random.default_rng(11 + n)
    a = random_op(rng, ctx.dim)
    ea = spin_conditional_expectation(ctx, region, a)
    # idempotent, and the image commutes with everything outside the region
    assert op_norm(spin_conditional_expectation(ctx, region, ea) - ea) <= 1e-11
    for z in range(n):
        if z in region:
            continue
        for local in (SX, SZ):
            v = site_operator(ctx, z, local)
            assert op_norm(ea @ v - v @ ea) <= 1e-11


def test_expectation_fixes_region_and_unit():
    ctx = spin_context(build_lattice("path", 4))
    rng = np.random.default_rng(3)
    b = site_operator(ctx, 0, random_op(rng, 2)) @ site_operator(ctx, 1, random_op(rng, 2))
    assert op_norm(spin_conditional_expectation(ctx, (0, 1), b) - b) <= 1e-11
    eye = np.eye(ctx.dim)
    assert op_norm(spin_conditional_expectation(ctx, (2,), eye) - eye) == 0.0


def test_bimodule_no_parity_restriction():
    # multiplication by arbitrary region operators passes through, even
    # ones with no even/odd structure at all
    ctx = spin_context(build_lattice("path", 4))
    rng = np.random.default_rng(5)
    mid = random_op(rng, ctx.dim)
    left = site_operator(ctx, 0, random_op(rng, 2))
    right = site_operator(ctx, 1, random_op(rng, 2)) @ site_operator(ctx, 0, SY)
    lhs = spin_conditional_expectation(ctx, (0, 1), left @ mid @ right)
    rhs = left @ spin_conditional_expectation(ctx, (0, 1), mid) @ right
    assert op_norm(lhs - rhs) <= 1e-11


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_norm_nonincreasing(seed):
    ctx = spin_context(build_lattice("path", 5))
    rng = np.random.default_rng(seed)
    a = random_op(rng, ctx.dim)
    ea = spin_conditional_expectation(ctx, (1, 3), a)
    assert op_norm(ea) <= op_norm(a) + 1e-11


@pytest.mark.parametrize(
    "x,y",
    [((0, 1), (1, 2)), ((0, 1), (2, 3)), ((0, 1, 2), (1,)), ((2,), (0, 1, 2, 3))],
)
def test_composition_is_intersection(x, y):
    ctx = spin_context(build_lattice("path", 4))
    rng = np.random.default_rng(17)
    a = random_op(rng, ctx.dim)
    thru = spin_conditional_expectation(ctx, x, spin_conditional_expectation(ctx, y, a))
    meet = tuple(set(x) & set(y))
    direct = spin_conditional_expectation(ctx, meet, a)
    assert op_norm(thru - direct) <= 1e-11
    if not meet:
        # empty intersection lands on the normalized trace
        want = (np.trace(a) / ctx.dim) * np.eye(ctx.dim)
        assert op_norm(direct - want) <= 1e-11


def test_disjoint_supports_commute_exactly():
    # the spin-side fact with no fermionic counterpart for odd operators
    ctx = spin_context(build_lattice("path", 4))
    a = site_operator(ctx, 0, SX)
    b = site_operator(ctx, 3, SY)
    assert op_norm(a @ b - b @ a) == 0.0


def test_defect_vanishes_off_support():
    ctx = spin_context(build_lattice("path", 4))
    a = site_operator(ctx, 0, SZ) @ site_operator(ctx, 1, SZ)
    assert localization_defect(ctx, (3,), a) <= 1e-12
    assert telescoping_localization(ctx, (2, 3), a) <= 1e-12


def test_single_site_telescoping_is_equality():
    ctx = spin_context(build_lattice("path", 4))
    h, _ = ising_chain(ctx)
    lhs = localization_defect(ctx, (2,), h)
    assert lhs > 0.1
    assert abs(telescoping_localization(ctx, (2,), h) - lhs) <= 1e-12


def test_telescoping_every_order_dominates():
    ctx = spin_context(build_lattice("path", 5))
    rng = np.random.default_rng(23)
    a = random_op(rng, ctx.dim)
    a = a / op_norm(a)
    region = (1, 2, 4)
    joint = localization_defect(ctx, region, a)
    budget = telescoping_localization(ctx, region, a)
    assert joint <= budget + 1e-10
    sums = set()
    for order in itertools.permutations(region):
        terms = telescoping_terms(ctx, order, a)
        assert joint <= sum(terms) + 1e-10
        # each step is a norm-one map applied to a single-site defect
        for z, val in zip(order, terms):
            assert val <= localization_defect(ctx, (z,), a) + 1e-10
        sums.add(round(sum(terms), 9))
    # intermediate decompositions genuinely differ between orders
    assert len(sums) > 1


def test_trick_curve_caps_and_scales():
    g = build_lattice("path", 5)
    trivial = BoundCurve("flat", lambda r, dt: 2.0, {})
    small = BoundCurve("small", lambda r, dt: 0.1, {})
    single = trick_bound(g, (0, 1, 2), (4,), trivial, mode="single")
    assert single(2, 1.0) == 2.0  # 2 * min(3,1) * 2 caps at the trivial bound
    assert trick_bound(g, (0,), (4,), small, mode="single")(4, 1.0) == pytest.approx(0.2)
    double = trick_bound(g, (0, 1), (3, 4), small, mode="double")
    assert double(2, 1.0) == pytest.approx(4 * 4 * 0.1)
    with pytest.raises(ValueError, match="nonempty"):
        trick_bound(g, (), (4,), small)
    with pytest.raises(ValueError, match="single"):
        trick_bound(g, (0,), (4,), small, mode="triple")


def test_ising_chain_trick_certificate():
    # 5 spins, observable block {0,1,2} against a probe at site 4
    g = build_lattice("path", 5)
    ctx = spin_context(g)
    h, norms = ising_chain(ctx, coupling=1.0, transverse=0.7)
    p = spin_bound_params(g, norms, alpha=3.0)
    f = curve(p, "finite_range", max_range=1.0)
    a = site_operator(ctx, 0, SZ) @ site_operator(ctx, 1, SZ) + site_operator(ctx, 2, SX)
    b = site_operator(ctx, 4, SX)
    times = np.linspace(0.0, 0.05, 11)
    ser = commutator_series(g, h, a, b, (0, 1, 2), (4,), times)
    single = trick_bound(g, (0, 1, 2), (4,), f, mode="single")
    double = trick_bound(g, (0, 1, 2), (4,), f, mode="double")
    rep = certify(ser, [single, double])
    assert rep.ok
    assert ser.values[-1] > 0  # the commutator actually grew


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_chain_trick_certificate(seed):
    g = build_lattice("path", 5)
    ctx = spin_context(g)
    rng = np.random.default_rng(seed)
    h, norms = random_spin_chain(ctx, rng, alpha=3.0, strength=0.8)
    p = spin_bound_params(g, norms, alpha=3.0)
    f = curve(p, "split_range", split_range=2.0)
    a = site_operator(ctx, 0, SX)
    b = site_operator(ctx, 4, SZ)
    ser = commutator_series(g, h, a, b, (0,), (4,), np.linspace(0.0, 0.3, 13))
    rep = certify(
        ser,
        [trick_bound(g, (0,), (4,), f, m) for m in ("single", "double")],
    )
    assert rep.ok


def test_sharp_term_norms():
    ctx = spin_context(build_lattice("path", 4))
    rng = np.random.default_rng(9)
    h, norms = random_spin_chain(ctx, rng, alpha=2.0, strength=1.0, field_strength=0.0)
    # nearest-neighbor pair norms hit the target exactly
    assert norms[(0, 1)] == pytest.approx(1.0 / 2.0**2)
    assert norms[(0, 3)] == pytest.approx(1.0 / 4.0**2)


def test_obstruction_demo_values():
    demo = fermionic_obstruction_demo()
    # disjoint odd pair: commutator twice the product, both unit scale
    assert demo["commutator_norm"] == pytest.approx(2.0, abs=1e-12)
    assert demo["product_norm"] == pytest.approx(1.0, abs=1e-12)
    assert demo["product_identity_gap"] <= 1e-12
    # even against disjoint odd commutes, as the parity theory requires
    assert demo["even_odd_commutator"] <= 1e-12
    # the even-restricted trick curve is beaten by the odd probe already at t=0
    assert demo["excess_at_zero"] > 0.1
    assert demo["max_excess"] >= demo["excess_at_zero"]
    assert demo["fallback_sites"] == (4, 5, 6, 7)
    assert all(v > 0 for v in demo["fallback_sum"].values())


def test_context_and_input_validation():
    g = build_lattice("path", 3)
    with pytest.raises(ValueError, match="at least 2"):
        spin_context(g, local_dim=1)
    with pytest.raises(ValueError, match="cap"):
        spin_context(build_lattice("path", 13))
    ctx = spin_context(g)
    with pytest.raises(ValueError, match="one local factor"):
        site_operator(ctx, 0, np.eye(4))
    with pytest.raises(ValueError, match="out of range"):
        site_operator(ctx, 5, SX)
    with pytest.raises(ValueError, match="does not live"):
        spin_conditional_expectation(ctx, (0,), np.eye(4))
    with pytest.raises(ValueError, match="repeat"):
        telescoping_terms(ctx, (1, 1), np.eye(ctx.dim))
    with pytest.raises(ValueError, match="exceed the lattice dimension"):
        spin_bound_params(g, {(0, 1): 1.0}, alpha=1.0)


def test_obstruction_probe_runs_per_number_sector():
    demo = fermionic_obstruction_demo()
    assert demo["commutator_norm"] == pytest.approx(2.0, abs=1e-12)
    assert demo["sweep"]["route"] == "eigh"
    assert demo["sweep"]["sectors"] == [1, 8, 28, 56, 70, 56, 28, 8, 1]
    assert demo["sweep"]["unitarity"] <= 1e-10
