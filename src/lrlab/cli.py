"""Batch experiment runner.

Five experiment families behind three verbs:

    lrlab run <config.yaml>       execute and write result files
    lrlab validate <config.yaml>  list constraint findings, compute nothing
    lrlab demo <name>             copy a packaged demo config

Every run writes a row-oriented CSV, a machine-readable summary, and a
provenance record carrying all constants and conventions that produced
the numbers; each CSV row ends with the provenance id.  Identical config
and seed give byte-identical files: reductions happen in grid order and
nothing timestamps the output.  The ``threads`` setting is validated and
accepted but runs are serial, so it cannot change a result.

Validation computes nothing.  Each spec is read and checked through the
registry its runner builds from: curves through ``bounds.CURVE_FAMILIES``,
models (``model`` and spectral-flow's ``hopping``) through
``interactions.MODELS`` and lr-verify observables through ``OBSERVABLES``.
So a spec that validates is one the runner can build and evaluate at
every distance the experiment uses.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy
import yaml

from . import __version__
from .bounds import CURVE_FAMILIES, BoundParams, certify, curve, curve_problems
from .dynamics import lr_sweep
from .flow import (
    automorphic_deviation,
    build_weight_spectrum,
    hastings_generator,
    kato_generator,
    sector_gap,
)
from .fock import DEFAULT_DIM_CAP, build_context, dim_cap, ladder, number_operator
from .interactions import MODELS, Model, assemble, hop_term, model
from .lattice import build_lattice, set_distance
from .lppl import lppl_measure, perturbed_atomic_chain
from .spin import (
    commutator_series,
    fermionic_obstruction_demo,
    ising_chain,
    random_spin_chain,
    site_operator,
    spin_bound_params,
    spin_context,
    trick_bound,
)

__all__ = ["Finding", "ConfigError", "shape_findings", "validate_config", "run_config", "main"]

KINDS = ("lr-verify", "bound-curves", "spectral-flow", "lppl", "spin-compare")

CONVENTIONS = {
    "evolution": "heisenberg picture, tau_t(A) = U(t)* A U(t) with U' = -i H U",
    "certificate": "curves bound the commutator norm divided by ||A|| ||B||",
    "filter": "odd imaginary spectral filter pinned by A = -i [H, J(A)] off-diagonal",
    "flow": "U'(s) = -i D(s) U(s); hastings D = -J(dH/ds), kato D = i [P', P]",
    "reduction_order": "grid-index order, independent of thread count",
    "trivial_cap": 2.0,
}

_BASE_CURVE = {"family": "split_range", "split_range": 2.0}  # spin-compare default


@dataclass(frozen=True)
class Finding:
    field: str
    reason: str

    def __str__(self):
        return f"{self.field}: {self.reason}"


class ConfigError(ValueError):
    def __init__(self, findings):
        self.findings = list(findings)
        super().__init__("; ".join(str(f) for f in self.findings))


@dataclass(frozen=True)
class ObservableKind:
    """An lr-verify observable kind."""

    key: str  # the spec field holding its sites: "site" (one) or "sites" (a list)
    count: int | None  # how many sites; None: any nonzero number
    distinct: bool  # its two sites must differ
    parity: str
    build: Callable  # build(ctx, sites) -> LocalOperator


OBSERVABLES = {
    "number": ObservableKind("sites", None, False, "even", number_operator),
    "hop": ObservableKind("sites", 2, False, "even", lambda ctx, s: hop_term(ctx, *s)),
    "pair": ObservableKind("sites", 2, True, "even", lambda ctx, s: ladder(ctx, s[0]) @ ladder(ctx, s[1])),
    "ladder": ObservableKind("site", 1, False, "odd", lambda ctx, s: ladder(ctx, s[0])),
}


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError([Finding("config", "top level must be a mapping")])
    return cfg


# ---------------------------------------------------------------------------
# validation (pure; never computes)


# value shapes the runners read, per field; a tuple lists alternatives, a
# dict a mapping's known keys and a one-element list a list's items
_NUMBER, _INTEGER, _TEXT = "a number", "an integer", "a string"
_TYPE_SHAPES = {float: _NUMBER, int: _INTEGER, float | list[float]: (_NUMBER, [_NUMBER])}


def _param_shapes(*kinds) -> dict:
    """Shapes of the parameters of registry entries (curve families, models)."""
    return {key: _TYPE_SHAPES[typ] for kind in kinds for key, (typ, _) in kind.params.items()}


_CURVE = (_TEXT, {"family": _TEXT, **_param_shapes(*CURVE_FAMILIES.values())})
_OBSERVABLE = {
    "kind": _TEXT, **{k.key: _INTEGER if k.key == "site" else [_INTEGER] for k in OBSERVABLES.values()}
}
# a config may name the models whose parameters are all numbers
_CONFIG_MODELS = {n: k for n, k in MODELS.items() if all(t in _TYPE_SHAPES for t, _ in k.params.values())}
_SHAPES = {
    "lattice": {"kind": _TEXT, "n": _INTEGER},
    "alpha": _NUMBER,
    "curves": [_CURVE],
    "model": {"name": _TEXT, **_param_shapes(*_CONFIG_MODELS.values())},
    "observables": {"a": _OBSERVABLE, "b": _OBSERVABLE, "x": [_INTEGER], "y": [_INTEGER]},
    "grid": {},
    "slack": _NUMBER,
    "tolerance": _NUMBER,
    "fields": [_NUMBER],
    "gap": {"g": _NUMBER, "delta": _NUMBER},
    "generators": [_TEXT],
    "hopping": _param_shapes(MODELS["long_range_hopping"]),
    "chain": {
        "n": _INTEGER, "site": _INTEGER, "alpha_tb": _NUMBER, "hop": _NUMBER,
        "base_field": _NUMBER, "field_step": _NUMBER, "strength": _NUMBER,
    },
    "spin": {
        "local_dim": _INTEGER, "model": _TEXT, "strength": _NUMBER,
        "field_strength": _NUMBER, "coupling": _NUMBER, "transverse": _NUMBER,
    },
    "base_curve": _CURVE,
}


def _truncates(value) -> bool:
    """True for a float that int() would truncate, such as 1.5."""
    return isinstance(value, float) and not value.is_integer()


def _fits(value, scalar: str) -> bool:
    if scalar == _TEXT:
        return isinstance(value, str)
    if isinstance(value, (bool, list, dict)) or value is None:
        return False
    if scalar == _INTEGER and _truncates(value):
        return False
    try:
        (int if scalar == _INTEGER else float)(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _describe(shape) -> str:
    if isinstance(shape, tuple):
        return " or ".join(_describe(s) for s in shape)
    if isinstance(shape, dict):
        return "a mapping"
    if isinstance(shape, list):
        return "a list"
    return shape


def _value_findings(field: str, value, shape) -> list:
    if isinstance(shape, tuple):
        # a mapping is held to the mapping alternative, which names the bad key
        for alt in shape:
            if isinstance(alt, dict) and isinstance(value, dict):
                return _value_findings(field, value, alt)
        if any(not _value_findings(field, value, alt) for alt in shape):
            return []
    elif isinstance(shape, dict):
        if isinstance(value, dict):
            return [
                f for key, sub in shape.items() if key in value
                for f in _value_findings(f"{field}.{key}", value[key], sub)
            ]
    elif isinstance(shape, list):
        if isinstance(value, list):
            return [
                f for k, item in enumerate(value)
                for f in _value_findings(f"{field}[{k}]", item, shape[0])
            ]
    elif _fits(value, shape):
        return []
    return [Finding(field, f"expected {_describe(shape)}, got {value!r}")]


def shape_findings(cfg: dict) -> list:
    """Fields whose values have the wrong type for any experiment to read.

    Absent fields are left to the domain checks of ``validate_config``.
    """
    return [
        f for name, shape in _SHAPES.items() if name in cfg
        for f in _value_findings(name, cfg[name], shape)
    ]


def _cap_findings(field: str, base: int, n: int) -> list:
    cap = dim_cap()
    # beyond cap.bit_length(), base^n >= 2^n > cap; huge n is never raised to
    if n <= cap.bit_length():
        if base**n <= cap:
            return []
        size = f"{base}^{n} = {base**n}"
    else:
        size = f"{base}^{n}"
    return [
        Finding(field, f"dimension cap exceeded: {size} > {cap} (override with LRLAB_DIM_CAP)")
    ]


def _grid_findings(field: str, spec, need_start_zero=False) -> list:
    out = []
    if not isinstance(spec, dict):
        return [Finding(field, "expected {start, stop, count}")]
    try:
        start, stop = float(spec["start"]), float(spec["stop"])
        count = int(spec["count"])
        if _truncates(spec["count"]):
            raise ValueError("count is not an integer")
    except (KeyError, TypeError, ValueError, OverflowError):
        return [Finding(field, "expected numeric start, stop and integer count")]
    if count < 2:
        out.append(Finding(field, "needs at least 2 grid points"))
    if stop <= start:
        out.append(Finding(field, "stop must exceed start"))
    if need_start_zero and start < 0:
        out.append(Finding(field, "start must be nonnegative"))
    return out


def _curve_spec(spec) -> tuple:
    """(family, options) of a curve item; keys its family does not take are ignored."""
    if isinstance(spec, str):
        return spec, {}
    family = spec.get("family")
    params = CURVE_FAMILIES[family].params if family in CURVE_FAMILIES else {}
    return family, {k: spec[k] for k in params if k in spec}


def _curve_findings(cfg, items, dim: int, graph, distance) -> list:
    """Findings on alpha and on the (field, spec) curve items."""
    alpha = cfg.get("alpha")
    if alpha is None or float(alpha) <= dim:
        return [Finding("alpha", f"must exceed the lattice dimension D={dim}")]
    if not items:
        return [Finding("curves", "need at least one curve family")]
    return [
        Finding(field, reason) for field, spec in items
        for reason in curve_problems(*_curve_spec(spec), float(alpha), dim, graph, distance)
    ]


def _lattice_findings(cfg, sites_per_state: int) -> tuple:
    """(findings, graph); the graph is built only when there are no findings."""
    lat = cfg.get("lattice")
    if not isinstance(lat, dict) or "kind" not in lat or "n" not in lat:
        return [Finding("lattice", "expected {kind, n}")], None
    if lat["kind"] not in ("path", "ring", "square_patch", "square_torus"):
        return [Finding("lattice.kind", f"unknown lattice family {lat['kind']!r}")], None
    n = int(lat["n"])
    if n < 1 or (lat["kind"] in ("ring", "square_torus") and n < 3):
        return [Finding("lattice.n", "too few vertices for this family")], None
    sites = n * n if lat["kind"] in ("square_patch", "square_torus") else n
    out = _cap_findings("lattice.n", sites_per_state, sites)
    return out, None if out else build_lattice(lat["kind"], n)


def _distance(graph, x, y):
    """Distance of two site lists; None unless both are nonempty lists of sites on ``graph``."""
    try:
        return None if graph is None else set_distance(graph, x, y)
    except (TypeError, ValueError):
        return None


def _sites_findings(field: str, sites, graph, count: int | None = None) -> list:
    """Findings on an observable's site list: nonempty, ``count`` long if
    given, and on the lattice (checked when the graph is built)."""
    if not sites:
        return [Finding(field, "need a nonempty site list")]
    if count is not None and len(sites) != count:
        return [Finding(field, f"need exactly {count} sites, got {len(sites)}")]
    off = [s for s in sites if graph is not None and not 0 <= s < graph.n_sites]
    if off:
        return [Finding(field, f"site {off[0]} is not on the lattice of {graph.n_sites} sites")]
    return []


def _site_list(spec: dict):
    """An observable's sites, read from the field its kind declares."""
    kind = OBSERVABLES.get(spec.get("kind"))
    return [spec.get("site")] if kind is not None and kind.key == "site" else spec.get("sites")


def _model_findings(field: str, name, spec: dict, dim: int, graph) -> list:
    """Findings on a model spec; ``graph`` is None when the lattice is unknown."""
    kind = _CONFIG_MODELS.get(name)
    if kind is None:
        return [Finding(f"{field}.name", f"unknown model {name!r}")]
    n_sites = None if graph is None else graph.n_sites
    return [Finding(f"{field}.{key}", reason) for key, reason in kind.problems(spec, dim, n_sites)]


def validate_config(cfg: dict) -> list:
    """Check every domain constraint without running anything.

    Returns findings (field + reason); an empty list means the config is
    runnable.  Values of the wrong type (``shape_findings``) are reported
    alone, since the domain checks need to read them.
    """
    out = []
    kind = cfg.get("experiment")
    if kind not in KINDS:
        return [Finding("experiment", f"must be one of {', '.join(KINDS)}")]
    malformed = shape_findings(cfg)
    if malformed:
        return malformed

    seed = cfg.get("seed", 0)
    if not (isinstance(seed, int) and 0 <= seed < 2**64):
        out.append(Finding("seed", "must be an unsigned 64-bit integer"))
    threads = cfg.get("threads", 1)
    if not (isinstance(threads, int) and threads >= 1):
        out.append(Finding("threads", "must be a positive integer"))

    lat = cfg.get("lattice")
    graph_dim = 2 if isinstance(lat, dict) and lat.get("kind") in ("square_patch", "square_torus") else 1

    if kind in ("lr-verify", "bound-curves"):
        lattice_out, graph = _lattice_findings(cfg, 2)
        out += lattice_out
        # the smallest distance the curves are evaluated at
        if kind == "lr-verify":
            obs = cfg.get("observables", {})
            sites = [_site_list(spec) for spec in (obs.get("a"), obs.get("b")) if isinstance(spec, dict)]
            distance = _distance(graph, *sites) if len(sites) == 2 else None
        else:
            grid = cfg.get("grid", {})
            r_out = _grid_findings("grid.r", grid.get("r"), need_start_zero=True)
            distance = None if r_out else float(grid["r"]["start"])
        items = [(f"curves[{k}]", spec) for k, spec in enumerate(cfg.get("curves") or [])]
        out += _curve_findings(cfg, items, graph_dim, graph, distance)
        mspec = cfg.get("model", {})
        out += _model_findings("model", mspec.get("name"), mspec, graph_dim, graph)

    if kind == "lr-verify":
        out += _grid_findings("times", cfg.get("times"), need_start_zero=True)
        parities = []
        for slot in ("a", "b"):
            spec = obs.get(slot)
            okind = OBSERVABLES.get(spec.get("kind")) if isinstance(spec, dict) else None
            if okind is None:
                out.append(Finding(f"observables.{slot}", f"kind must be one of {', '.join(OBSERVABLES)}"))
                continue
            parities.append(okind.parity)
            field = f"observables.{slot}.{okind.key}"
            if okind.key == "site" and spec.get("site") is None:
                out.append(Finding(field, "need a site"))
                continue
            sites = _site_list(spec)
            sites_out = _sites_findings(field, sites, graph, okind.count)
            if not sites_out and okind.distinct and len(set(sites)) < len(sites):
                sites_out = [Finding(field, f"a {spec['kind']} needs two different sites")]
            out += sites_out
        if parities == ["odd", "odd"]:
            reason = "at least one observable must be even; no certified curve covers an odd-odd pair"
            out.append(Finding("observables", reason))

    if kind == "bound-curves":
        out += r_out + _grid_findings("grid.dt", grid.get("dt"), need_start_zero=True)

    if kind == "spectral-flow":
        lattice_out, graph = _lattice_findings(cfg, 2)
        out += lattice_out
        if graph is not None and len(cfg.get("fields", [])) != graph.n_sites:
            out.append(Finding("fields", "need one on-site field per lattice site"))
        gap = cfg.get("gap", {})
        g = float(gap.get("g", 0.0))
        delta = float(gap.get("delta", 0.0))
        if g <= 0:
            out.append(Finding("gap.g", "must be positive"))
        if delta < 0:
            out.append(Finding("gap.delta", "must be nonnegative"))
        elif delta >= g > 0:
            out.append(Finding("gap.delta", f"requires g > delta, got g={g:g} delta={delta:g}"))
        out += _grid_findings("s_grid", cfg.get("s_grid"))
        for gen in cfg.get("generators", ["kato", "hastings"]):
            if gen not in ("kato", "hastings"):
                out.append(Finding("generators", f"unknown generator {gen!r}"))
        out += _model_findings("hopping", "long_range_hopping", cfg.get("hopping", {}), graph_dim, graph)

    if kind == "lppl":
        chain = cfg.get("chain", {})
        n = int(chain.get("n", 8))
        out += _cap_findings("chain.n", 2, n)
        if float(chain.get("alpha_tb", 4.0)) <= 1.0:
            out.append(Finding("chain.alpha_tb", "term decay must exceed the lattice dimension D=1"))
        site = int(chain.get("site", 0))
        strength = float(chain.get("strength", 0.5))
        if not 0 <= site < n:
            out.append(Finding("chain.site", "perturbed site must lie on the chain"))
        elif strength > 0 and max(site, n - 1 - site) < 4:
            far = max(site, n - 1 - site)
            reason = "the tail fit needs sites at distances 2, 3 and 4 from the perturbed site"
            out.append(Finding("chain.site", f"{reason}; the farthest is at distance {far}"))
        step = float(chain.get("field_step", 1.0))
        if strength < 0:
            out.append(Finding("chain.strength", "must be nonnegative"))
        elif strength >= 0.7 * step:
            reason = "perturbation strength risks a level crossing in the window; keep it below"
            out.append(Finding("chain.strength", f"{reason} 0.7 * field_step = {0.7 * step:g}"))
        out += _grid_findings("s_grid", cfg.get("s_grid", {"start": 0, "stop": 1, "count": 5}))

    if kind == "spin-compare":
        obs = cfg.get("observables", {})
        spin = cfg.get("spin", {})
        local_dim = int(spin.get("local_dim", 2))
        if local_dim < 2:
            out.append(Finding("spin.local_dim", "must be at least 2"))
        lattice_out, graph = _lattice_findings(cfg, max(local_dim, 2))
        out += lattice_out
        if spin.get("model", "random") not in ("random", "ising"):
            out.append(Finding("spin.model", "must be 'random' or 'ising'"))
        elif spin.get("model") == "ising" and local_dim > 2:
            out.append(Finding("spin.local_dim", "the ising chain needs two-level sites"))
        items = [("base_curve", cfg.get("base_curve", _BASE_CURVE))]
        distance = _distance(graph, obs.get("x"), obs.get("y"))
        out += _curve_findings(cfg, items, graph_dim, graph, distance)
        out += _grid_findings("times", cfg.get("times"), need_start_zero=True)
        for slot in ("x", "y"):
            out += _sites_findings(f"observables.{slot}", obs.get(slot), graph)
    return out


# ---------------------------------------------------------------------------
# shared plumbing


def _grid(spec) -> np.ndarray:
    return np.linspace(float(spec["start"]), float(spec["stop"]), int(spec["count"]))


def _params_record(p: BoundParams) -> dict:
    d = dataclasses.asdict(p)
    return {k: (float(v) if isinstance(v, (int, float, np.floating)) else v) for k, v in d.items()}


def _observable(ctx, spec: dict):
    return OBSERVABLES[spec["kind"]].build(ctx, [int(z) for z in _site_list(spec)])


def _config_model(ctx, name: str, spec: dict, rng) -> Model:
    """``model(name)`` on the parameters of ``spec`` that the model takes."""
    return model(name, ctx, rng=rng, **{k: spec[k] for k in MODELS[name].params if k in spec})


def _certificate_summary(rep) -> dict:
    return {
        "ok": bool(rep.ok),
        "violations": int(np.sum(rep.measured > np.min(np.stack(list(rep.bounds.values())), axis=0) + rep.slack)),
        "worst_margin": float(rep.worst_margin),
        "tightness": float(rep.tightness),
        "slack": float(rep.slack),
        "distance": int(rep.distance),
    }


def _sweep_summary(info: dict) -> dict:
    """A sweep's route, stepper defect, unitarity residual and the sizes of
    the charge sectors it ran on (one entry: the dense route)."""
    return {
        "route": info["route"],
        "defect": float(info["defect"]),
        "unitarity": float(info["unitarity"]),
        "sectors": [int(size) for size in info["sectors"]],
    }


# ---------------------------------------------------------------------------
# the five experiment families


def _run_lr_verify(cfg, rng):
    lat = cfg["lattice"]
    g = build_lattice(lat["kind"], lat["n"])
    ctx = build_context(g)
    m = _config_model(ctx, cfg["model"]["name"], cfg["model"], rng)
    a, b = (_observable(ctx, cfg["observables"][slot]) for slot in ("a", "b"))
    series = lr_sweep(m, a, b, _grid(cfg["times"]))
    p = BoundParams.from_interaction(
        m.interaction, float(cfg["alpha"]), support_x=a.support, support_y=b.support
    )
    curves = [curve(p, fam, g, **opt) for fam, opt in map(_curve_spec, cfg["curves"])]
    rep = certify(series, curves, slack=float(cfg.get("slack", 1e-9)))
    rows = list(rep.rows())
    for row in rows:
        row["distance"] = rep.distance
    summary = {
        "experiment": "lr-verify",
        "certificate": _certificate_summary(rep),
        "sweep": _sweep_summary(series.info),
    }
    constants = {"bound_params": _params_record(p), "curve_labels": [c.label for c in curves]}
    return rows, summary, constants


def _run_bound_curves(cfg, rng):
    lat = cfg["lattice"]
    g = build_lattice(lat["kind"], lat["n"])
    ctx = build_context(g)
    m = _config_model(ctx, cfg["model"]["name"], cfg["model"], rng)
    p = BoundParams.from_interaction(m.interaction, float(cfg["alpha"]))
    curves = [curve(p, fam, g, **opt) for fam, opt in map(_curve_spec, cfg["curves"])]
    dts = _grid(cfg["grid"]["dt"])
    points = [(float(r), float(dt)) for r in _grid(cfg["grid"]["r"]) for dt in dts]
    rows = [{"r": r, "dt": dt, **{c.label: float(c(r, dt)) for c in curves}} for r, dt in points]
    vals = np.array([[row[c.label] for c in curves] for row in rows])
    summary = {
        "experiment": "bound-curves",
        "grid_points": len(rows),
        "max_value": float(vals.max()),
        "min_value": float(vals.min()),
        "zero_interaction": bool(p.norm_alpha == 0.0),
    }
    constants = {"bound_params": _params_record(p), "curve_labels": [c.label for c in curves]}
    return rows, summary, constants


def _run_spectral_flow(cfg, rng):
    ctx = build_context(build_lattice(cfg["lattice"]["kind"], cfg["lattice"]["n"]))
    fields = [float(v) for v in cfg["fields"]]
    h_onsite = model("atomic_limit", ctx, mu=fields).hamiltonian(0.0)
    hop = _config_model(ctx, "long_range_hopping", cfg["hopping"], rng)
    h_hop = assemble(hop.interaction.sample(0.0))

    def h_fn(s):
        return h_onsite + s * h_hop

    gap_cfg = cfg["gap"]
    w = build_weight_spectrum(float(gap_cfg["g"]), float(gap_cfg.get("delta", 0.0)))
    s_grid = _grid(cfg["s_grid"])
    reports = {}
    for kind in cfg.get("generators", ["kato", "hastings"]):
        if kind == "kato":
            d_fn = lambda s: kato_generator(h_fn, s)  # noqa: E731
        else:
            d_fn = lambda s: hastings_generator(h_fn(s), h_hop, w)  # noqa: E731
        reports[kind] = automorphic_deviation(h_fn, d_fn, s_grid=s_grid)
    gaps = [float(sector_gap(h_fn(float(s))).gap) for s in s_grid]
    rows = []
    for k, s in enumerate(s_grid):
        row = {"s": float(s), "gap": gaps[k]}
        for kind, rep in reports.items():
            row[f"deviation_{kind}"] = float(rep["per_time"][k])
        rows.append(row)
    tol = float(cfg.get("tolerance", 1e-6))
    summary = {
        "experiment": "spectral-flow",
        "min_gap": min(gaps),
        "tolerance": tol,
        "ok": all(rep["deviation"] <= tol for rep in reports.values()),
    }
    for kind, rep in reports.items():
        summary[f"deviation_{kind}"] = float(rep["deviation"])
        summary[f"defect_{kind}"] = float(rep["worst_defect"])
        summary[f"unitarity_{kind}"] = float(rep["worst_unitarity"])
    constants = {
        "weight": {"gap": float(gap_cfg["g"]), "soft": float(gap_cfg.get("delta", 0.0))},
        "fields": fields,
        "hopping": {k: float(v) for k, v in hop.params.items()},
    }
    return rows, summary, constants


def _run_lppl(cfg, rng):
    # the keys the chain sets, typed; perturbed_atomic_chain supplies the rest
    shapes = _SHAPES["chain"]
    chain = {k: (int if shapes[k] == _INTEGER else float)(v) for k, v in cfg.get("chain", {}).items()
             if k in shapes}
    family, window = perturbed_atomic_chain(**chain)
    s_spec = cfg.get("s_grid", {"start": 0.0, "stop": 1.0, "count": 5})
    report = lppl_measure(family, window, s_grid=_grid(s_spec))
    rows = [
        {
            "support": "+".join(str(z) for z in probe["support"]),
            "distance": "" if probe["distance"] is None else int(probe["distance"]),
            "difference": float(probe["difference"]),
        }
        for probe in report.per_probe
    ]
    summary = {
        "experiment": "lppl",
        "rank": int(report.rank),
        "min_gap": float(report.gaps.min()),
        "slope": None if report.slope is None else float(report.slope),
        "intercept": None if report.intercept is None else float(report.intercept),
        "residual": None if report.residual is None else float(report.residual),
        "tail_monotone": bool(report.tail_monotone),
        "findings": list(report.findings),
        "x_region": list(report.x_region),
    }
    constants = {
        "chain": chain,
        "window": [float(window[0]), float(window[1])],
    }
    return rows, summary, constants


def _run_spin_compare(cfg, rng):
    lat = cfg["lattice"]
    g = build_lattice(lat["kind"], lat["n"])
    spin_cfg = dict(cfg.get("spin", {}))
    ctx = spin_context(g, int(spin_cfg.get("local_dim", 2)))
    if spin_cfg.get("model", "random") == "ising":
        h, norms = ising_chain(
            ctx,
            coupling=float(spin_cfg.get("coupling", 1.0)),
            transverse=float(spin_cfg.get("transverse", 0.7)),
        )
    else:
        h, norms = random_spin_chain(
            ctx,
            rng,
            alpha=float(cfg["alpha"]),
            strength=float(spin_cfg.get("strength", 0.8)),
            field_strength=float(spin_cfg.get("field_strength", 0.5)),
        )
    x = tuple(int(z) for z in cfg["observables"]["x"])
    y = tuple(int(z) for z in cfg["observables"]["y"])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    if ctx.local_dim != 2:
        sx = np.diag(np.arange(ctx.local_dim)).astype(np.complex128)
    a = sum(site_operator(ctx, z, sx) for z in x)
    b = sum(site_operator(ctx, z, sx) for z in y)
    times = _grid(cfg["times"])
    series = commutator_series(g, h, a, b, x, y, times)
    p_unit = spin_bound_params(g, norms, float(cfg["alpha"]))
    fam, opt = _curve_spec(cfg.get("base_curve", _BASE_CURVE))
    f = curve(p_unit, fam, g, **opt)
    single = trick_bound(g, x, y, f, mode="single")
    double = trick_bound(g, x, y, f, mode="double")
    # the curve a fermionic system would be limited to: both observables
    # even, support-size factor min(|X|, |Y|) built into the parameters
    p_pair = dataclasses.replace(p_unit, size_x=len(x), size_y=len(y))
    even_pair = curve(p_pair, fam, g, **opt)
    rep = certify(series, [single, double], slack=float(cfg.get("slack", 1e-9)))
    rows = []
    scale = series.norm_a * series.norm_b
    for k, t in enumerate(times):
        rows.append(
            {
                "time": float(t),
                "measured": float(series.values[k] / scale),
                "trick_single": float(rep.bounds[single.label][k]),
                "trick_double": float(rep.bounds[double.label][k]),
                "even_pair_curve": float(even_pair(series.distance, float(t - times[0]))),
            }
        )
    demo = fermionic_obstruction_demo()
    summary = {
        "experiment": "spin-compare",
        "certificate": _certificate_summary(rep),
        "sweep": _sweep_summary(series.info),
        "obstruction": {
            "commutator_norm": demo["commutator_norm"],
            "product_norm": demo["product_norm"],
            "even_odd_commutator": demo["even_odd_commutator"],
            "max_excess_over_even_trick": demo["max_excess"],
            "fallback_sum": {f"{t:g}": v for t, v in demo["fallback_sum"].items()},
            "sweep": _sweep_summary(demo["sweep"]),
        },
    }
    constants = {
        "bound_params": _params_record(p_unit),
        "term_norms": {"+".join(str(z) for z in k): float(v) for k, v in norms.items()},
        "curve_labels": [single.label, double.label, even_pair.label],
    }
    return rows, summary, constants


_RUNNERS = {
    "lr-verify": _run_lr_verify,
    "bound-curves": _run_bound_curves,
    "spectral-flow": _run_spectral_flow,
    "lppl": _run_lppl,
    "spin-compare": _run_spin_compare,
}


# ---------------------------------------------------------------------------
# output files


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path, rows, provenance_id):
    cols = list(rows[0].keys()) + ["provenance"] if rows else ["provenance"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in cols[:-1]] + [provenance_id])


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_config(cfg: dict, out_dir: str, threads: int | None = None, seed: int | None = None):
    """Validate, execute, and write the three result files.

    Returns (exit_status, file_paths); status 0 means every certified
    check passed, 1 means a certificate failed, and a ConfigError is
    raised when validation finds problems.
    """
    cfg = dict(cfg)
    if seed is not None:
        cfg["seed"] = int(seed)
    if threads is not None:
        cfg["threads"] = int(threads)
    findings = validate_config(cfg)
    if findings:
        raise ConfigError(findings)
    kind = cfg["experiment"]
    used_seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(used_seed)
    rows, summary, constants = _RUNNERS[kind](cfg, rng)

    echo = {k: v for k, v in cfg.items() if k != "threads"}
    provenance = {
        "config": echo,
        "constants": constants,
        "conventions": CONVENTIONS,
        "seed": used_seed,
        "versions": {
            "lrlab": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "scipy": scipy.__version__,
        },
    }
    pid = hashlib.sha256(
        json.dumps(provenance, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    provenance["id"] = pid
    summary["provenance"] = pid

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "results": os.path.join(out_dir, f"{kind}-results.csv"),
        "summary": os.path.join(out_dir, f"{kind}-summary.json"),
        "provenance": os.path.join(out_dir, f"{kind}-provenance.json"),
    }
    _write_csv(paths["results"], rows, pid)
    _write_json(paths["summary"], summary)
    _write_json(paths["provenance"], provenance)

    failed = False
    if "certificate" in summary:
        failed = not summary["certificate"]["ok"]
    elif "ok" in summary:
        failed = not summary["ok"]
    return (1 if failed else 0), paths


# ---------------------------------------------------------------------------
# entry point


def _demo_config_text(name: str) -> str:
    from importlib import resources

    ref = resources.files("lrlab").joinpath("configs", f"{name}.yaml")
    return ref.read_text(encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lrlab",
        description="Locality-bound experiments on small lattice systems.",
        epilog="Environment: LRLAB_DIM_CAP overrides the matrix dimension cap"
        f" (default {DEFAULT_DIM_CAP}).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a YAML experiment config")
    p_run.add_argument("-o", "--out", default=".", help="output directory")
    p_run.add_argument(
        "--threads", type=int, default=None,
        help="accepted and validated; runs are serial and never depend on it",
    )
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_val = sub.add_parser("validate", help="check a config without computing")
    p_val.add_argument("config", help="path to a YAML experiment config")

    p_demo = sub.add_parser("demo", help="copy a packaged demo config")
    p_demo.add_argument("name", choices=KINDS, help="demo experiment kind")
    p_demo.add_argument("--out", default=".", help="directory to write the config")

    args = parser.parse_args(argv)

    if args.verb == "demo":
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.name}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_demo_config_text(args.name))
        print(path)
        return 0

    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        for f in err.findings:
            print(f, file=sys.stderr)
        return 2
    except (OSError, yaml.YAMLError) as err:
        print(f"config: {err}", file=sys.stderr)
        return 2

    if args.verb == "validate":
        findings = validate_config(cfg)
        for f in findings:
            print(f)
        if not findings:
            print("ok")
            return 0
        # a value of the wrong type makes the config unreadable, like bad YAML
        return 2 if shape_findings(cfg) else 1

    try:
        status, paths = run_config(cfg, args.out, threads=args.threads, seed=args.seed)
    except ConfigError as err:
        for f in err.findings:
            print(f, file=sys.stderr)
        return 2
    for label, path in sorted(paths.items()):
        print(f"{label}: {path}")
    if status != 0:
        print("certificate FAILED", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
