"""Tests of the benchmark's own references and checkers.

    PYTHONPATH=src python3 -m pytest -q perfbench

The references must agree with lrlab on small cases, and every checker must
flag a deliberately corrupted output.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference  # noqa: E402
import workloads  # noqa: E402
from lrlab import dynamics, flow, fock, interactions, lattice, lppl  # noqa: E402
from workloads import Spec  # noqa: E402


def _ctx(n):
    return fock.build_context(lattice.build_lattice("path", n))


def test_jordan_wigner_annihilators_match_lrlab_ladders():
    ctx = _ctx(3)
    for m, c in enumerate(reference.annihilators(3)):
        assert np.array_equal(reference.dense(c), fock.ladder(ctx, m).matrix)


def test_random_two_body_and_sweep_match_lrlab_on_three_sites():
    ctx = _ctx(3)
    phi = interactions.random_two_body(ctx, np.random.default_rng(5), alpha_tb=3.0, strength=0.4)
    h_ref = reference.random_two_body_hamiltonian("path", 3, np.random.default_rng(5), 3.0, 0.4)
    h = interactions.assemble(phi)
    assert np.abs(h - h_ref).max() <= 1e-12
    a, b = fock.number_operator(ctx, [0]), fock.ladder(ctx, 2)
    times = np.linspace(0.0, 0.3, 20)
    series = dynamics.lr_sweep(lambda t: h, a, b, times)
    ref = reference.commutator_sweep(h_ref, a.matrix, b.matrix, times)
    assert np.abs(series.values - ref).max() <= workloads.SWEEP_TOL


def test_atomic_chain_window_matches_lrlab_on_three_sites():
    family, window = lppl.perturbed_atomic_chain(n=3, alpha_tb=4.0, hop=0.5, strength=0.4)
    h0, num = reference.atomic_chain(3, [4.0, 5.0, 6.0], 0.5, 4.0)
    ref_projectors = []
    for s in (0.0, 1.0):
        h_ref = h0 + s * 0.4 * reference.dense(num[0])
        assert np.abs(family.hamiltonian(s) - h_ref).max() <= 1e-12
        ref_projectors.append(reference.window_projector(h_ref, *window)[0])
    p0 = flow.gap_analysis(family.hamiltonian(0.0), *window).projector
    p1 = flow.gap_analysis(family.hamiltonian(1.0), *window).projector
    diffs = [abs(np.trace((p1 - p0) @ fock.number_operator(family.ctx, [z]).matrix)) for z in range(3)]
    ref = reference.window_differences(*ref_projectors, num)
    assert np.abs(np.array(diffs) - ref).max() <= workloads.PW_DIFF_TOL


def test_inverse_liouvillian_and_obstruction_match_lrlab():
    ctx = _ctx(3)
    h0, h1 = workloads._reference_chain((-2.0, 1.1, 1.7), 0.3, 4.0)
    weight = flow.build_weight_spectrum(1.0, 0.5)
    got, _ = flow.inverse_liouvillian(h0 + h1, h1, weight)
    want = reference.inverse_liouvillian(h0 + h1, h1, 1.0, 0.5)
    assert reference.op_norm(got - want) <= workloads.EXTRACT_TOL
    a0, a1 = fock.ladder(ctx, 0).matrix, fock.ladder(ctx, 1).matrix
    # lrlab's two lowest modes of a 3-site chain: the same pair, padded by mode 2
    assert reference.op_norm(a0 @ a1 - a1 @ a0) == pytest.approx(reference.obstruction_pair_norm(), abs=1e-12)
    assert reference.obstruction_pair_norm() == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# checkers flag corrupted outputs


def test_certify_checker_flags_corruption(tmp_path):
    wl = workloads.CertifySweep()
    spec = Spec("path3", {"kind": "path", "n": 3, "alpha": 3.0, "probe": "ladder", "far": 2, "rng_seed": (9, 0)})
    out = wl.run(spec, str(tmp_path))
    assert wl.check([spec], [out]) == []
    bad = dict(out, values=out["values"].copy())
    bad["values"][7] += 1e-6
    assert any("reference" in p for p in wl.check([spec], [bad]))
    bad = dict(out, values=out["values"].copy())
    bad["values"][0] = 1e-6
    assert any("t=0" in p for p in wl.check([spec], [bad]))
    assert any("certificate" in p for p in wl.check([spec], [dict(out, ok=False)]))


def test_window_checker_flags_corruption():
    wl = workloads.PerturbedWindow()
    perturbed, control = wl.inputs(3, "")
    outputs = []
    for spec in (perturbed, control):
        p = spec.params
        h0, num = reference.atomic_chain(workloads.PW_SITES, workloads.pw_fields(p["site"]), p["hop"], workloads.PW_ALPHA)
        window = workloads.pw_window(p["strength"])
        p0 = reference.window_projector(h0, *window)[0]
        p1 = reference.window_projector(h0 + p["strength"] * reference.dense(num[p["site"]]), *window)[0]
        ref = reference.window_differences(p0, p1, num)
        outputs.append(
            {
                "rank": 1,
                "slope": -5.0 if p["strength"] else None,
                "s_grid": np.array([0.0, 1.0]),
                "per_probe": [((z,), float(ref[z])) for z in range(workloads.PW_SITES)],
            }
        )
    assert wl.check([perturbed, control], outputs) == []
    moved = dict(outputs[0], per_probe=list(outputs[0]["per_probe"]))
    moved["per_probe"][4] = ((4,), moved["per_probe"][4][1] + 1e-8)
    assert wl.check([perturbed], [moved])
    assert wl.check([perturbed], [dict(outputs[0], slope=-0.5)])
    assert wl.check([perturbed], [dict(outputs[0], rank=2)])
    leaked = dict(outputs[1], per_probe=[((z,), 1e-15) for z in range(workloads.PW_SITES)])
    assert wl.check([control], [leaked])


def test_flow_checker_flags_corruption(tmp_path):
    wl = workloads.FlowTransport()
    specs = [Spec("hastings", {"fields": (-2.0, 1.1, 1.7)}), Spec("extract", {"fields": (-2.0, 1.1, 1.7)})]
    outputs = [wl.run(s, str(tmp_path)) for s in specs]
    assert wl.check(specs, outputs) == []
    assert wl.check(specs[:1], [{"deviation": 1e-3}])
    bad = dict(outputs[1], sum=outputs[1]["sum"] + 1e-9 * np.eye(8))
    assert wl.check(specs[1:], [bad])


def test_demo_checker_flags_corruption(tmp_path):
    wl = workloads.DemoSuite()
    specs = [s for s in wl.inputs(4, str(tmp_path)) if s.params["kind"] == "bound-curves"]
    outputs = [wl.run(s, str(tmp_path)) for s in specs]
    assert wl.check(specs, outputs) == []
    assert wl.check(specs[:1], [dict(outputs[0], status=1)])
    path = os.path.join(outputs[1]["out"], "bound-curves-results.csv")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert any("differs" in p for p in wl.check(specs, outputs))
