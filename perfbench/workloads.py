"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operation specs (its
inputs), runs one lrlab operation per spec, and checks a whole round of
outputs against ``reference`` or against properties the method must have.
Every round runs the same specs, so every round does the same work.

lrlab is called through module attributes (``dynamics.lr_sweep``), never
through names bound at import, so the tracer's rebinding reaches these
calls too.
"""

from __future__ import annotations

import filecmp
import json
import os
from dataclasses import dataclass

import numpy as np
import yaml

import reference
from lrlab import bounds, cli, dynamics, flow, fock, interactions, lattice, lppl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Spec:
    label: str
    params: dict


def _problem(spec: Spec, text: str) -> str:
    return f"{spec.label}: {text}"


# ---------------------------------------------------------------------------
# certify-sweep: criterion 03's mix, one instance per lattice


CERT_LATTICES = (("path", 4), ("path", 5), ("path", 6), ("path", 7), ("ring", 5), ("ring", 6), ("ring", 7))
CERT_TIMES = np.linspace(0.0, 0.3, 20)
CERT_STRENGTH = 0.4
CERT_SLACK = 1e-9
SWEEP_TOL = 1e-8
T0_TOL = 1e-12


class CertifySweep:
    name = "certify-sweep"

    def inputs(self, seed: int, workdir: str) -> list:
        # alpha and the probe parity follow criterion 03's fixed pattern, so
        # every seed does the same decompositions; the seed draws the
        # random_two_body coefficients of every instance
        return [
            Spec(
                f"{kind}{n}",
                {
                    "kind": kind,
                    "n": n,
                    "alpha": (2.0, 3.0, 4.0)[i % 3],
                    "probe": ("number", "ladder")[i % 2],
                    "far": n // 2 if kind == "ring" else n - 1,
                    "rng_seed": (seed, i),
                },
            )
            for i, (kind, n) in enumerate(CERT_LATTICES)
        ]

    def run(self, spec: Spec, round_dir: str):
        p = spec.params
        g = lattice.build_lattice(p["kind"], p["n"])
        ctx = fock.build_context(g)
        rng = np.random.default_rng(p["rng_seed"])
        phi = interactions.random_two_body(ctx, rng, alpha_tb=p["alpha"], strength=CERT_STRENGTH)
        a = fock.number_operator(ctx, [0])
        if p["probe"] == "number":
            b = fock.number_operator(ctx, [p["far"]])
        else:
            b = fock.ladder(ctx, p["far"])
        h = interactions.assemble(phi)
        series = dynamics.lr_sweep(lambda t: h, a, b, CERT_TIMES)
        bp = bounds.BoundParams.from_interaction(phi, p["alpha"], support_x=a.support, support_y=b.support)
        lo, hi = bounds.sigma_window(bp)
        curves = [
            bounds.curve(bp, "finite_range", max_range=float(g.diameter())),
            bounds.curve(bp, "split_range", split_range=2.0),
            bounds.curve(bp, "power_split", sigma=0.5 * (lo + hi)),
            bounds.curve(bp, "iterated", graph=g, depth=2),
        ]
        rep = bounds.certify(series, curves, slack=CERT_SLACK)
        return {"values": np.array(series.values), "ok": bool(rep.ok)}

    def check(self, specs: list, outputs: list) -> list:
        problems = []
        for spec, out in zip(specs, outputs):
            if out is None:
                continue
            p = spec.params
            if not out["ok"]:
                problems.append(_problem(spec, "certificate failed"))
            rng = np.random.default_rng(p["rng_seed"])
            h = reference.random_two_body_hamiltonian(p["kind"], p["n"], rng, p["alpha"], CERT_STRENGTH)
            c = reference.annihilators(p["n"])
            a = reference.dense(c[0].conj().T @ c[0])
            cf = c[p["far"]]
            b = reference.dense(cf.conj().T @ cf if p["probe"] == "number" else cf)
            ref = reference.commutator_sweep(h, a, b, CERT_TIMES)
            err = float(np.abs(out["values"] - ref).max())
            if err > SWEEP_TOL:
                problems.append(_problem(spec, f"sweep differs from the reference by {err:.3g}"))
            if abs(out["values"][0]) > T0_TOL:
                problems.append(_problem(spec, f"t=0 value {out['values'][0]:.3g} does not vanish"))
        return problems


# ---------------------------------------------------------------------------
# perturbed-window: lppl on a 9-site chain plus its strength-0 control


PW_SITES = 9
PW_ALPHA = 4.0
PW_BASE = 4.0
PW_STEP = 1.0
PW_DIFF_TOL = 1e-9
PW_SLOPE = -1.0


def pw_fields(site: int) -> list:
    """perturbed_atomic_chain's staggered fields, growing away from ``site``."""
    return [PW_BASE + PW_STEP * abs(site - z) for z in range(PW_SITES)]


def pw_window(strength: float) -> tuple:
    """The window that isolates the orbital anchored at the perturbed site."""
    return (PW_BASE - 0.8 * PW_STEP, PW_BASE + strength + 0.25 * PW_STEP)


class PerturbedWindow:
    name = "perturbed-window"

    def inputs(self, seed: int, workdir: str) -> list:
        rng = np.random.default_rng(seed)
        site = int(rng.choice([0, 1, PW_SITES - 2, PW_SITES - 1]))
        hop = float(rng.uniform(0.4, 0.6))
        strength = float(rng.uniform(0.3, 0.55))
        common = {"site": site, "hop": hop}
        return [
            Spec("perturbed", {**common, "strength": strength}),
            Spec("control", {**common, "strength": 0.0}),
        ]

    def run(self, spec: Spec, round_dir: str):
        p = spec.params
        family, window = lppl.perturbed_atomic_chain(
            n=PW_SITES,
            alpha_tb=PW_ALPHA,
            hop=p["hop"],
            base_field=PW_BASE,
            field_step=PW_STEP,
            strength=p["strength"],
            site=p["site"],
        )
        rep = lppl.lppl_measure(family, window)
        return {
            "rank": rep.rank,
            "slope": rep.slope,
            "s_grid": np.array(rep.s_grid),
            "per_probe": [(tuple(q["support"]), q["difference"]) for q in rep.per_probe],
        }

    def check(self, specs: list, outputs: list) -> list:
        problems = []
        for spec, out in zip(specs, outputs):
            if out is None:
                continue
            p = spec.params
            h0, num = reference.atomic_chain(PW_SITES, pw_fields(p["site"]), p["hop"], PW_ALPHA)
            w = p["strength"] * reference.dense(num[p["site"]])
            window = pw_window(p["strength"])
            projectors = [reference.window_projector(h0 + s * w, *window) for s in out["s_grid"]]
            ranks = sorted({rank for _, rank in projectors})
            if out["rank"] != 1 or ranks != [1]:
                problems.append(_problem(spec, f"window rank {out['rank']}, reference ranks {ranks}"))
            ref = reference.window_differences(projectors[0][0], projectors[-1][0], num)
            if [s for s, _ in out["per_probe"]] != [(z,) for z in range(PW_SITES)]:
                problems.append(_problem(spec, "probes are not the nine single-site densities"))
                continue
            diffs = np.array([d for _, d in out["per_probe"]])
            err = float(np.abs(diffs - ref).max())
            if err > PW_DIFF_TOL:
                problems.append(_problem(spec, f"differences off the reference by {err:.3g}"))
            if p["strength"] == 0.0:
                if np.any(diffs != 0.0) or out["slope"] is not None:
                    problems.append(_problem(spec, "control moved the window"))
            elif out["slope"] is None or out["slope"] > PW_SLOPE:
                problems.append(_problem(spec, f"decay slope {out['slope']} above {PW_SLOPE}"))
        return problems


# ---------------------------------------------------------------------------
# flow-transport: both flow generators on 6 sites, extraction on 8


FLOW_FIELDS = (-2.0, 1.1, 1.7, 2.3, 2.9, 3.5)
FLOW_J = 0.15
FLOW_ALPHA = 3.0
FLOW_S_GRID = np.linspace(0.0, 1.0, 9)
EXTRACT_FIELDS = (-2.0, 1.1, 1.7, 2.3, 2.9, 3.5, 4.1, 4.7)
EXTRACT_J = 0.3
EXTRACT_ALPHA = 4.0
WEIGHT_GAP, WEIGHT_SOFT = 1.0, 0.5
FLOW_TOL = 1e-6
EXTRACT_TOL = 1e-10


def _chain(fields, j, alpha_tb):
    """(ctx, on-site matrix, hopping interaction) through lrlab."""
    g = lattice.build_lattice("path", len(fields))
    ctx = fock.build_context(g)
    h0 = sum(f * fock.number_operator(ctx, [z]).matrix for z, f in enumerate(fields))
    hop = interactions.model("long_range_hopping", ctx, J=j, alpha_tb=alpha_tb)
    return ctx, h0, hop.interaction.sample(0.0)


def _reference_chain(fields, j, alpha_tb):
    """(on-site matrix, hopping matrix) from Jordan-Wigner operators."""
    n = len(fields)
    c = reference.annihilators(n)
    h0 = sum(f * (c[z].conj().T @ c[z]) for z, f in enumerate(fields))
    h1 = sum(
        j / (1.0 + (y - x)) ** alpha_tb * (c[x].conj().T @ c[y] + c[y].conj().T @ c[x])
        for x in range(n)
        for y in range(x + 1, n)
    )
    return reference.dense(h0), reference.dense(h1)


class FlowTransport:
    name = "flow-transport"

    def inputs(self, seed: int, workdir: str) -> list:
        # the seed mirrors the chains and shifts the fields by a few
        # hundredths, which keeps the gap above the weight's and leaves the
        # stepper's resolution, and so every count, unchanged
        rng = np.random.default_rng(seed)
        mirror = bool(rng.integers(2))

        def jitter(fields):
            out = [f + float(d) for f, d in zip(fields, rng.uniform(0.0, 0.03, len(fields)))]
            return tuple(reversed(out)) if mirror else tuple(out)

        flow_fields = jitter(FLOW_FIELDS)
        return [
            Spec("kato", {"fields": flow_fields}),
            Spec("hastings", {"fields": flow_fields}),
            Spec("extract", {"fields": jitter(EXTRACT_FIELDS)}),
        ]

    def run(self, spec: Spec, round_dir: str):
        fields = spec.params["fields"]
        if spec.label == "extract":
            ctx, h0, phi = _chain(fields, EXTRACT_J, EXTRACT_ALPHA)
            h = h0 + interactions.assemble(phi)
            weight = flow.build_weight_spectrum(WEIGHT_GAP, WEIGHT_SOFT)
            ext = flow.extract_interaction(ctx, h, phi, weight)
            return {"sum": sum(op.matrix for op in ext.terms.values())}
        ctx, h0, phi = _chain(fields, FLOW_J, FLOW_ALPHA)
        h1 = interactions.assemble(phi)

        def h_fn(s):
            return h0 + s * h1

        if spec.label == "kato":
            d_fn = lambda s: flow.kato_generator(h_fn, s)  # noqa: E731
        else:
            weight = flow.build_weight_spectrum(WEIGHT_GAP, WEIGHT_SOFT)
            d_fn = lambda s: flow.hastings_generator(h_fn(s), h1, weight)  # noqa: E731
        rep = flow.automorphic_deviation(h_fn, d_fn, s_grid=FLOW_S_GRID)
        return {"deviation": float(rep["deviation"])}

    def check(self, specs: list, outputs: list) -> list:
        problems = []
        for spec, out in zip(specs, outputs):
            if out is None:
                continue
            fields = spec.params["fields"]
            if spec.label == "extract":
                h0, h1 = _reference_chain(fields, EXTRACT_J, EXTRACT_ALPHA)
                want = reference.inverse_liouvillian(h0 + h1, h1, WEIGHT_GAP, WEIGHT_SOFT)
                err = reference.op_norm(out["sum"] - want)
                if err > EXTRACT_TOL:
                    problems.append(_problem(spec, f"summed terms differ from J(sum) by {err:.3g}"))
                continue
            h0, h1 = _reference_chain(fields, FLOW_J, FLOW_ALPHA)
            gap = min(reference.sector_gap(h0 + s * h1) for s in FLOW_S_GRID)
            if gap < WEIGHT_GAP:
                problems.append(_problem(spec, f"input gap {gap:.3g} below the weight gap"))
            if not out["deviation"] <= FLOW_TOL:
                problems.append(_problem(spec, f"deviation {out['deviation']:.3g} above {FLOW_TOL}"))
        return problems


# ---------------------------------------------------------------------------
# demo-suite: the five packaged configs through the CLI, plus a threads-2 rerun


DEMO_KINDS = ("lr-verify", "bound-curves", "spectral-flow", "lppl", "spin-compare")
RESULT_FILES = ("results.csv", "summary.json", "provenance.json")
OBSTRUCTION_TOL = 1e-12


class DemoSuite:
    name = "demo-suite"

    def inputs(self, seed: int, workdir: str) -> list:
        cfg_dir = os.path.join(workdir, "configs")
        os.makedirs(cfg_dir, exist_ok=True)
        specs = []
        for kind in DEMO_KINDS:
            with open(os.path.join(ROOT, "src", "lrlab", "configs", f"{kind}.yaml"), encoding="utf-8") as fh:
                cfg = yaml.safe_load(fh)
            cfg["seed"] = int(seed)
            path = os.path.join(cfg_dir, f"{kind}.yaml")
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(cfg, fh, sort_keys=False)
            specs.append(Spec(kind, {"kind": kind, "config": path, "threads": None}))
        bc = specs[DEMO_KINDS.index("bound-curves")].params["config"]
        specs.append(Spec("bound-curves@2", {"kind": "bound-curves", "config": bc, "threads": 2}))
        return specs

    def run(self, spec: Spec, round_dir: str):
        p = spec.params
        out_dir = os.path.join(round_dir, spec.label)
        argv = ["run", p["config"], "--out", out_dir]
        if p["threads"]:
            argv += ["--threads", str(p["threads"])]
        return {"status": cli.main(argv), "out": out_dir}

    def check(self, specs: list, outputs: list) -> list:
        problems = []
        by_label = dict(zip((s.label for s in specs), outputs))
        for spec, out in zip(specs, outputs):
            if out is None:
                continue
            kind = spec.params["kind"]
            if out["status"] != 0:
                problems.append(_problem(spec, f"exit status {out['status']}"))
                continue
            with open(os.path.join(out["out"], f"{kind}-summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            if "certificate" in summary and not summary["certificate"]["ok"]:
                problems.append(_problem(spec, "certificate not ok"))
            if "ok" in summary and not summary["ok"]:
                problems.append(_problem(spec, "tolerance not met"))
            if kind == "lppl" and summary["rank"] != 1:
                problems.append(_problem(spec, f"window rank {summary['rank']}"))
            if kind == "spin-compare":
                got = summary["obstruction"]["commutator_norm"]
                want = reference.obstruction_pair_norm()
                if abs(got - want) > OBSTRUCTION_TOL or abs(want - 2.0) > OBSTRUCTION_TOL:
                    problems.append(_problem(spec, f"obstruction norm {got!r}, reference {want!r}"))
        one, two = by_label.get("bound-curves"), by_label.get("bound-curves@2")
        if one is not None and two is not None:
            for suffix in RESULT_FILES:
                name = f"bound-curves-{suffix}"
                if not filecmp.cmp(os.path.join(one["out"], name), os.path.join(two["out"], name), shallow=False):
                    problems.append(f"bound-curves@2: {name} differs between threads 1 and 2")
        return problems


WORKLOADS = {w.name: w for w in (CertifySweep(), PerturbedWindow(), FlowTransport(), DemoSuite())}
