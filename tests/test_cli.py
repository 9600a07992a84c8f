"""Config validation, experiment dispatch, determinism, output schema."""

import csv
import json
import math
from importlib import resources

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab.cli import KINDS, OBSERVABLES, ConfigError, main, run_config, validate_config
from lrlab.interactions import MODELS


def demo_cfg(kind):
    text = resources.files("lrlab").joinpath("configs", f"{kind}.yaml").read_text()
    return yaml.safe_load(text)


@pytest.mark.parametrize("kind", KINDS)
def test_demo_configs_validate_clean(kind):
    assert validate_config(demo_cfg(kind)) == []


def mutate(kind, fn):
    cfg = demo_cfg(kind)
    fn(cfg)
    return cfg


@pytest.mark.parametrize(
    "kind,fn,field,phrase",
    [
        ("lr-verify", lambda c: c.update(experiment="sweep"), "experiment", "must be one of"),
        ("lr-verify", lambda c: c["lattice"].update(n=13), "lattice.n", "dimension cap"),
        ("lr-verify", lambda c: c.update(alpha=1.0), "alpha", "lattice dimension"),
        (
            "lr-verify",
            lambda c: c["curves"].__setitem__(2, {"family": "power_split", "sigma": 0.1}),
            "curves[2]",
            "admissible interval (0.5, 1)",
        ),
        (
            "lr-verify",
            lambda c: c["observables"].update(
                a={"kind": "ladder", "site": 0}, b={"kind": "ladder", "site": 4}
            ),
            "observables",
            "must be even",
        ),
        ("lr-verify", lambda c: c.update(seed=-1), "seed", "64-bit"),
        ("lr-verify", lambda c: c["times"].update(count=1), "times", "at least 2"),
        ("spectral-flow", lambda c: c["gap"].update(delta=0.5), "gap.delta", "requires g > delta"),
        ("spectral-flow", lambda c: c["gap"].update(delta=-0.1), "gap.delta", "nonnegative"),
        ("spectral-flow", lambda c: c.update(fields=[1.0, 2.0]), "fields", "per lattice site"),
        ("lppl", lambda c: c["chain"].update(strength=0.9), "chain.strength", "level crossing"),
        ("lppl", lambda c: c["chain"].update(site=12), "chain.site", "on the chain"),
        ("spin-compare", lambda c: c["spin"].update(local_dim=1), "spin.local_dim", "at least 2"),
        ("spin-compare", lambda c: c["spin"].update(model="xy"), "spin.model", "random"),
    ],
)
def test_validation_findings(kind, fn, field, phrase):
    findings = validate_config(mutate(kind, fn))
    assert findings, "expected at least one finding"
    hits = [f for f in findings if f.field == field]
    assert hits, f"no finding for field {field}: {findings}"
    assert any(phrase in f.reason for f in hits)


def test_validation_never_throws_on_garbage():
    assert validate_config({}) != []
    assert validate_config({"experiment": "lppl"}) == []  # defaults are valid
    assert validate_config({"experiment": "lr-verify"}) != []


def read_outputs(paths):
    with open(paths["results"]) as fh:
        rows = list(csv.DictReader(fh))
    with open(paths["summary"]) as fh:
        summary = json.load(fh)
    with open(paths["provenance"]) as fh:
        prov = json.load(fh)
    return rows, summary, prov


def test_lr_verify_run_end_to_end(tmp_path):
    status, paths = run_config(demo_cfg("lr-verify"), str(tmp_path))
    assert status == 0
    rows, summary, prov = read_outputs(paths)
    assert summary["certificate"]["ok"] is True
    assert summary["certificate"]["violations"] == 0
    assert summary["sweep"]["route"] == "eigh"
    assert summary["sweep"]["defect"] == 0.0
    assert summary["sweep"]["unitarity"] <= 1e-10
    assert len(rows) == 20
    # every row carries the provenance id of the constants used
    assert all(r["provenance"] == prov["id"] for r in rows)
    assert summary["provenance"] == prov["id"]
    assert prov["constants"]["bound_params"]["alpha"] == 3.0
    assert prov["versions"]["lrlab"]
    assert prov["seed"] == 7


def test_zero_interaction_reduces_to_envelopes(tmp_path):
    cfg = demo_cfg("bound-curves")
    cfg["model"] = {"name": "zero"}
    status, paths = run_config(cfg, str(tmp_path))
    assert status == 0
    rows, summary, _ = read_outputs(paths)
    assert summary["zero_interaction"] is True
    # no velocity: the tabulated values cannot depend on dt
    by_r = {}
    for row in rows:
        by_r.setdefault(row["r"], set()).add(
            tuple(v for k, v in row.items() if k not in ("r", "dt", "provenance"))
        )
    assert all(len(v) == 1 for v in by_r.values())
    # the stretched-exponential envelope shape survives
    row = next(r for r in rows if float(r["r"]) == 4.0)
    want = 2.0 * math.exp(-4.0 ** (1.0 - 0.75))
    assert float(row["power_split(sigma=0.75)"]) == pytest.approx(want, rel=1e-12)


def test_determinism_across_threads_and_reruns(tmp_path):
    cfg = demo_cfg("spin-compare")
    outs = []
    for tag, threads in (("a", 1), ("b", 3), ("c", 1)):
        _, paths = run_config(cfg, str(tmp_path / tag), threads=threads)
        outs.append({k: open(p, "rb").read() for k, p in paths.items()})
    assert outs[0] == outs[1] == outs[2]


def test_seed_override_changes_results(tmp_path):
    cfg = demo_cfg("spin-compare")
    _, p1 = run_config(cfg, str(tmp_path / "s1"), seed=1)
    _, p2 = run_config(cfg, str(tmp_path / "s2"), seed=2)
    assert open(p1["results"]).read() != open(p2["results"]).read()


def test_run_rejects_invalid_config(tmp_path):
    cfg = demo_cfg("lr-verify")
    cfg["lattice"]["n"] = 13
    with pytest.raises(ConfigError, match="dimension cap"):
        run_config(cfg, str(tmp_path))


def test_spectral_flow_run(tmp_path):
    status, paths = run_config(demo_cfg("spectral-flow"), str(tmp_path))
    assert status == 0
    rows, summary, _ = read_outputs(paths)
    assert summary["ok"] is True
    assert summary["deviation_kato"] <= 1e-6
    assert summary["deviation_hastings"] <= 1e-6
    for kind in ("kato", "hastings"):
        assert 0.0 <= summary[f"defect_{kind}"] <= 1e-10
        assert summary[f"unitarity_{kind}"] <= 1e-10
    assert summary["min_gap"] >= 0.5
    assert len(rows) == 6
    assert float(rows[0]["deviation_kato"]) <= 1e-12


def test_lppl_run_and_zero_control(tmp_path):
    status, paths = run_config(demo_cfg("lppl"), str(tmp_path / "on"))
    assert status == 0
    _, summary, _ = read_outputs(paths)
    assert summary["slope"] is not None and summary["slope"] <= -1.0
    assert summary["rank"] == 1
    cfg = demo_cfg("lppl")
    cfg["chain"]["strength"] = 0.0
    status, paths = run_config(cfg, str(tmp_path / "off"))
    assert status == 0
    rows, summary, _ = read_outputs(paths)
    assert summary["slope"] is None
    assert any("floor" in f for f in summary["findings"])
    assert all(float(r["difference"]) == 0.0 for r in rows)


def test_spin_compare_run(tmp_path):
    status, paths = run_config(demo_cfg("spin-compare"), str(tmp_path))
    assert status == 0
    rows, summary, _ = read_outputs(paths)
    assert summary["certificate"]["ok"] is True
    obs = summary["obstruction"]
    assert obs["commutator_norm"] == pytest.approx(2.0, abs=1e-12)
    assert obs["even_odd_commutator"] <= 1e-12
    assert obs["max_excess_over_even_trick"] > 0
    # the comparison table keeps all three bound columns next to measured
    assert {"measured", "trick_single", "trick_double", "even_pair_curve"} <= set(rows[0])


def test_summaries_record_the_sweep_sectors(tmp_path):
    _, paths = run_config(demo_cfg("lr-verify"), str(tmp_path / "lr"))
    _, summary, _ = read_outputs(paths)
    # long-range hopping on 5 sites runs per particle-number sector
    assert summary["sweep"]["sectors"] == [1, 5, 10, 10, 5, 1]
    _, paths = run_config(demo_cfg("spin-compare"), str(tmp_path / "spin"))
    _, summary, _ = read_outputs(paths)
    # the random spin chain conserves no charge: one sector, the dense route
    for sweep in (summary["sweep"], summary["obstruction"]["sweep"]):
        assert sweep["route"] == "eigh"
        assert sweep["defect"] == 0.0
        assert sweep["unitarity"] <= 1e-10
    assert summary["sweep"]["sectors"] == [32]
    assert summary["obstruction"]["sweep"]["sectors"] == [1, 8, 28, 56, 70, 56, 28, 8, 1]


def test_main_verbs(tmp_path, capsys):
    out = tmp_path / "cfg"
    assert main(["demo", "lppl", "--out", str(out)]) == 0
    path = capsys.readouterr().out.strip()
    assert path.endswith("lppl.yaml")
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    cfg = yaml.safe_load(open(path))
    cfg["chain"]["strength"] = 0.9
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(cfg))
    assert main(["validate", str(bad)]) == 1
    assert "level crossing" in capsys.readouterr().out
    assert main(["run", str(bad), "--out", str(tmp_path / "run")]) == 2
    run_dir = tmp_path / "run2"
    assert main(["run", path, "-o", str(run_dir)]) == 0  # short form of --out
    assert (run_dir / "lppl-results.csv").exists()


@pytest.mark.parametrize(
    "kind,fn,field",
    [
        ("lr-verify", lambda c: c.update(lattice=[1, 2]), "lattice"),
        ("lr-verify", lambda c: c.update(alpha="abc"), "alpha"),
        ("lppl", lambda c: c.update(chain={"n": "eight"}), "chain.n"),
        ("spectral-flow", lambda c: c.update(gap=3), "gap"),
        ("bound-curves", lambda c: c["curves"][3].update(depth=1.5), "curves[3].depth"),
        pytest.param(
            "lppl", lambda c: c["chain"].update(n=8.7), "chain.n", id="lppl-fractional-chain.n"
        ),
        (
            "lr-verify",
            lambda c: c.update(model={"name": "atomic_limit", "J": 0.5, "alpha_tb": 3.0, "mu": "abc"}),
            "model.mu",
        ),
    ],
)
def test_malformed_values_give_findings_and_exit_2(kind, fn, field, tmp_path, capsys):
    cfg = mutate(kind, fn)
    findings = validate_config(cfg)
    assert [f.field for f in findings] == [field]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out.startswith(f"{field}: expected")
    assert "Traceback" not in out.out + out.err
    assert main(["run", str(path), "-o", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize(
    "kind,fn,field,phrase",
    [
        (
            "bound-curves",
            lambda c: c["curves"].append({"family": "stretched", "sigma": 0.9}),
            "curves[4]",
            "needs a constant",
        ),
        (
            "bound-curves",
            lambda c: c["curves"].__setitem__(0, {"family": "finite_range", "max_range": 0.5}),
            "curves[0]",
            "max_range must be at least 1",
        ),
        ("bound-curves", lambda c: c["lattice"].update(n=1), "curves[0]", "lattice diameter), got 0"),
        (
            "bound-curves",
            lambda c: c["curves"].__setitem__(1, {"family": "split_range", "split_range": 0.5}),
            "curves[1]",
            "split_range must be at least 1",
        ),
        (
            "bound-curves",
            lambda c: (
                c["curves"].append({"family": "finite_range_tight"}),
                c["grid"]["r"].update(start=0.0),
            ),
            "curves[4]",
            "needs disjoint supports",
        ),
        (
            "lr-verify",
            lambda c: (
                c["curves"].append({"family": "finite_range_tight"}),
                c["observables"].update(b={"kind": "number", "sites": [0]}),
            ),
            "curves[4]",
            "needs disjoint supports",
        ),
        (
            "spin-compare",
            lambda c: c.update(base_curve={"family": "split_range", "split_range": 0.5}),
            "base_curve",
            "split_range must be at least 1",
        ),
        (
            "lr-verify",
            lambda c: c["curves"].append({"family": "stretched", "sigma": 0.75, "constant": -5}),
            "curves[4]",
            "constant must be positive",
        ),
        (
            "lr-verify",
            lambda c: c["observables"].update(b={"kind": "number", "sites": [9]}),
            "observables.b.sites",
            "site 9 is not on the lattice of 5 sites",
        ),
        (
            "lr-verify",
            lambda c: c["observables"].update(b={"kind": "number"}),
            "observables.b.sites",
            "need a nonempty site list",
        ),
        (
            "lr-verify",
            lambda c: c["observables"].update(b={"kind": "hop", "sites": [1, 2, 3]}),
            "observables.b.sites",
            "need exactly 2 sites",
        ),
        (
            "lr-verify",
            lambda c: c["observables"].update(b={"kind": "pair", "sites": [1, 1]}),
            "observables.b.sites",
            "two different sites",
        ),
        (
            "lr-verify",
            lambda c: c["observables"].update(a={"kind": "ladder"}),
            "observables.a.site",
            "need a site",
        ),
        ("spin-compare", lambda c: c["observables"].update(y=[9]), "observables.y", "not on the lattice"),
        ("bound-curves", lambda c: c["grid"]["r"].update(start=-1.0), "grid.r", "nonnegative"),
        ("lr-verify", lambda c: c["times"].update(count=20.5), "times", "integer count"),
        (
            "spin-compare",
            lambda c: c.update(lattice={"kind": "square_torus", "n": 2}),
            "lattice.n",
            "too few vertices",
        ),
        (
            "lr-verify",
            lambda c: c.update(model={"name": "long_range_hopping", "alpha_tb": 3.0}),
            "model.J",
            "the long_range_hopping model needs J",
        ),
        (
            "lr-verify",
            lambda c: c.update(model={"name": "atomic_limit", "J": 0.5, "alpha_tb": 3.0}),
            "model.mu",
            "the atomic_limit model needs mu",
        ),
        (
            "lr-verify",
            lambda c: c.update(model={"name": "atomic_limit", "J": 0.5, "alpha_tb": 3.0, "mu": [1, 2]}),
            "model.mu",
            "need one field per lattice site, got 2 for 5 sites",
        ),
        ("spectral-flow", lambda c: c.update(hopping={"J": 0.3}), "hopping.alpha_tb", "needs alpha_tb"),
        ("spectral-flow", lambda c: c.update(hopping={"alpha_tb": 3.0}), "hopping.J", "needs J"),
        (
            "spectral-flow",
            lambda c: c.update(lattice={"kind": "square_patch", "n": 2}, fields=[1.0, 2.0]),
            "fields",
            "need one on-site field per lattice site",
        ),
        pytest.param(
            "lppl", lambda c: c["chain"].update(n=2), "chain.site", "farthest is at distance 1", id="lppl-n2"
        ),
        pytest.param(
            "lppl", lambda c: c["chain"].update(n=3), "chain.site", "farthest is at distance 2", id="lppl-n3"
        ),
        pytest.param(
            "lppl", lambda c: c["chain"].update(n=4), "chain.site", "distances 2, 3 and 4", id="lppl-n4"
        ),
        pytest.param(
            "lppl", lambda c: c["chain"].update(n=7, site=3), "chain.site", "tail fit", id="lppl-n7-site3"
        ),
        (
            "spin-compare",
            lambda c: c["spin"].update(model="ising", local_dim=3),
            "spin.local_dim",
            "the ising chain needs two-level sites",
        ),
    ],
)
def test_specs_the_runner_rejects_are_findings(kind, fn, field, phrase, tmp_path, capsys):
    cfg = mutate(kind, fn)
    findings = validate_config(cfg)
    assert [f.field for f in findings] == [field]
    assert phrase in findings[0].reason
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["validate", str(path)]) == 1
    assert main(["run", str(path), "-o", str(tmp_path / "run")]) == 2
    out = capsys.readouterr()
    assert f"{field}: " in out.err
    assert "Traceback" not in out.out + out.err


yaml_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    path=st.sampled_from(
        ["lattice", "lattice.n", "lattice.kind", "alpha", "curves", "model", "model.alpha_tb",
         "observables", "observables.a", "times", "times.count", "grid", "grid.r", "fields",
         "gap", "gap.g", "generators", "hopping", "chain", "chain.n", "chain.strength", "spin",
         "spin.local_dim", "base_curve", "slack", "seed", "threads", "s_grid"]
    ),
    value=yaml_values,
)
def test_validation_is_total(kind, path, value):
    cfg = demo_cfg(kind)
    *parents, leaf = path.split(".")
    target = cfg
    for key in parents:
        target = target.setdefault(key, {})
        if not isinstance(target, dict):
            return
    target[leaf] = value
    findings = validate_config(cfg)
    assert isinstance(findings, list)
    assert all(isinstance(f.field, str) and isinstance(f.reason, str) for f in findings)


@pytest.mark.parametrize(
    "kind,fn",
    [
        ("lr-verify", lambda c: c.update(model={"name": "random_two_body"})),
        (
            "spectral-flow",
            lambda c: c.update(lattice={"kind": "square_patch", "n": 2}, fields=[-2.0, 0.7, 1.2, 1.9]),
        ),
    ],
)
def test_specs_the_builders_take_validate_and_run(kind, fn, tmp_path):
    cfg = mutate(kind, fn)
    assert validate_config(cfg) == []
    status, _ = run_config(cfg, str(tmp_path))
    assert status == 0


LATTICE_KINDS = ("path", "ring", "square_patch", "square_torus")


def registry_numbers(typ, value):
    """Values of a registry parameter type; a number keeps ``value``."""
    return st.just(value) if typ is float else st.just(value) | st.lists(st.just(value), max_size=6)


@st.composite
def observable_specs(draw):
    """A kind with its own site key, and maybe the other key too."""
    kind = draw(st.sampled_from(list(OBSERVABLES)))
    site = st.integers(0, 5)
    sites = st.lists(site, min_size=1, max_size=2) | st.lists(site, max_size=3)
    keys = {k.key: site if k.count == 1 else sites for k in OBSERVABLES.values()}
    own = OBSERVABLES[kind].key
    spec = draw(st.fixed_dictionaries({own: keys[own]}, optional={k: v for k, v in keys.items() if k != own}))
    return {"kind": kind, **spec}


@st.composite
def registry_configs(draw):
    """A demo config whose model, hopping, observables, lattice, field count,
    chain size and spin model are drawn from what the registries declare."""
    kind = draw(st.sampled_from(KINDS))
    cfg = demo_cfg(kind)
    if "lattice" in cfg:
        cfg["lattice"] = {"kind": draw(st.sampled_from(LATTICE_KINDS)), "n": draw(st.integers(1, 5))}
    numbers, often = (float, float | list[float]), st.sampled_from([True, True, True, False])
    if "model" in cfg:
        name = draw(st.sampled_from(list(MODELS)))
        cfg["model"] = {"name": name} | {
            key: draw(registry_numbers(typ, cfg["model"].get(key, 4.0 if default is None else default)))
            for key, (typ, default) in MODELS[name].params.items()
            if typ in numbers and draw(often)
        }
    if kind == "lr-verify":
        cfg["observables"] = {"a": draw(observable_specs()), "b": draw(observable_specs())}
    if kind == "spectral-flow":
        hop = MODELS["long_range_hopping"].params
        cfg["hopping"] = {k: v for k, v in cfg["hopping"].items() if k in hop and draw(often)}
        cfg["fields"] = [cfg["fields"][k % 4] for k in range(draw(st.integers(0, 6)))]
    if kind == "lppl":
        cfg["chain"].update(n=draw(st.integers(1, 8)), site=draw(st.integers(-1, 8)))
    if kind == "spin-compare":
        cfg["spin"].update(model=draw(st.sampled_from(["random", "ising"])), local_dim=draw(st.integers(1, 3)))
    return cfg


@settings(max_examples=300, deadline=None)
@given(cfg=registry_configs())
def test_registry_configs_give_findings_or_run(cfg, tmp_path_factory):
    if not validate_config(cfg):
        run_config(cfg, str(tmp_path_factory.mktemp("run")))
