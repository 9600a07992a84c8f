"""Per-layer tracing of lrlab from outside the package.

``Tracer.install`` rebinds, in every loaded ``lrlab`` module, each name that
refers to one of the traced public functions, so calls between lrlab
modules go through a timing wrapper too; ``uninstall`` puts the originals
back.  The numpy and scipy modules that lrlab imports as ``np`` and
``scipy`` are swapped for thin namespaces that count the dense
decompositions lrlab asks for.  Nothing in the package itself changes.

Time metrics are inclusive wall seconds spent inside calls of the layer's
functions; a call nested inside another call of the same layer is counted
once.  Every wrapped call is also kept as a span (function, layer, start,
end, parent span), so self time can be read off the trace file.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy
import scipy
import scipy.linalg

# layer -> lrlab functions whose calls make up its time
TIMED_LAYERS = {
    "lattice.build": [("lattice", "build_lattice")],
    "fock.context": [("fock", "build_context"), ("fock", "ladder"), ("fock", "number_operator")],
    "fock.cond_exp": [("fock", "conditional_expectation")],
    "interactions.model": [("interactions", "model"), ("interactions", "random_two_body")],
    "interactions.assemble": [("interactions", "assemble")],
    "dynamics.sweep": [("dynamics", "lr_sweep")],
    "bounds.params": [("bounds", "BoundParams.from_interaction")],
    "bounds.certify": [("bounds", "certify")],
    "flow.inverse": [("flow", "inverse_liouvillian")],
    "flow.transport": [("flow", "automorphic_deviation")],
    "flow.extract": [("flow", "extract_interaction")],
    "flow.gap": [("flow", "sector_gap"), ("flow", "gap_analysis")],
    "lppl.build": [("lppl", "perturbed_atomic_chain"), ("lppl", "perturbed_family")],
    "lppl.measure": [("lppl", "lppl_measure")],
    "spin.series": [("spin", "commutator_series")],
    "spin.obstruction": [("spin", "fermionic_obstruction_demo")],
    "cli.validate": [("cli", "validate_config")],
    "cli.run": [("cli", "run_config")],
}

# layers whose calls are counted as well as timed
COUNTED_LAYERS = {"fock.cond_exp": "fock.cond_exp_calls", "flow.inverse": "flow.inverse_calls"}

# generator callables handed to the stepper entry points: (positional index, keyword)
GENERATOR_ARGS = {
    ("dynamics", "lr_sweep"): (0, "model_or_gen"),
    ("flow", "automorphic_deviation"): (1, "d_fn"),
}

TIME_METRICS = [f"{layer}_s" for layer in TIMED_LAYERS] + ["interactions.sample_s"]
COUNT_METRICS = [
    "fock.cond_exp_calls",
    "interactions.sample_calls",
    "dynamics.generator_calls",
    "flow.inverse_calls",
    "linalg.eigh_calls",
    "linalg.svd_calls",
]


class _Namespace:
    """Attribute overrides in front of a module; everything else falls through."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list = []
        self.reset()

    # -- accounting -------------------------------------------------------

    def reset(self):
        with self._lock:
            self.seconds = {m: 0.0 for m in TIME_METRICS}
            self.counts = {m: 0 for m in COUNT_METRICS}
            self.spans: list = []

    def metrics(self) -> dict:
        with self._lock:
            out = {m: self.seconds[m] for m in TIME_METRICS}
            out.update(self.counts)
        return out

    def _count(self, metric: str):
        with self._lock:
            self.counts[metric] += 1

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, layer: str, label: str, fn, count_as: str | None = None):
        metric = f"{layer}_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            outermost = all(layer != open_layer for open_layer, _ in stack)
            with self._lock:
                index = len(self.spans)
                self.spans.append(
                    [label, layer, None, None, stack[-1][1] if stack else None, threading.get_ident()]
                )
                if count_as:
                    self.counts[count_as] += 1
            stack.append((layer, index))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans[index][2:4] = [t0, t1]
                    if outermost:
                        self.seconds[metric] += t1 - t0

        return wrapper

    def _counted(self, metric: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(metric)
            return fn(*args, **kwargs)

        return wrapper

    def _with_counted_generator(self, fn, position: int, keyword: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if len(args) > position and callable(args[position]):
                args = list(args)
                args[position] = self._counted("dynamics.generator_calls", args[position])
            elif callable(kwargs.get(keyword)):
                kwargs[keyword] = self._counted("dynamics.generator_calls", kwargs[keyword])
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("lrlab.") and mod is not None
        }
        for layer, targets in TIMED_LAYERS.items():
            count_as = COUNTED_LAYERS.get(layer)
            for mod_name, attr in targets:
                label = f"{mod_name}.{attr}"
                if "." in attr:  # classmethod on a class
                    cls_name, meth = attr.split(".")
                    cls = getattr(mods[mod_name], cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, classmethod(self._timed(layer, label, orig.__func__, count_as)))
                    continue
                orig = getattr(mods[mod_name], attr)
                wrapped = self._timed(layer, label, orig, count_as)
                if (mod_name, attr) in GENERATOR_ARGS:
                    wrapped = self._with_counted_generator(wrapped, *GENERATOR_ARGS[(mod_name, attr)])
                for mod in mods.values():
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, name, wrapped)
        self._install_sample_wrapper(mods["interactions"].TimeDependentInteraction)
        self._install_linalg_counters(mods)

    def _install_sample_wrapper(self, cls):
        orig_init = cls.__dict__["__init__"]
        tracer = self

        def __init__(obj, *args, **kwargs):
            orig_init(obj, *args, **kwargs)
            obj.sample = tracer._timed(
                "interactions.sample", "interactions.TimeDependentInteraction.sample",
                obj.sample, "interactions.sample_calls",
            )

        self._set(cls, "__init__", __init__)

    def _install_linalg_counters(self, mods):
        def norm(x, ord=None, *args, **kwargs):
            if ord == 2 and numpy.ndim(x) == 2:
                self._count("linalg.svd_calls")
            return numpy.linalg.norm(x, ord, *args, **kwargs)

        np_linalg = _Namespace(
            numpy.linalg,
            eigh=self._counted("linalg.eigh_calls", numpy.linalg.eigh),
            eigvalsh=self._counted("linalg.eigh_calls", numpy.linalg.eigvalsh),
            svd=self._counted("linalg.svd_calls", numpy.linalg.svd),
            norm=norm,
        )
        sp_linalg = _Namespace(
            scipy.linalg,
            eigh=self._counted("linalg.eigh_calls", scipy.linalg.eigh),
            eigvalsh=self._counted("linalg.eigh_calls", scipy.linalg.eigvalsh),
            svd=self._counted("linalg.svd_calls", scipy.linalg.svd),
        )
        np_proxy = _Namespace(numpy, linalg=np_linalg)
        sp_proxy = _Namespace(scipy, linalg=sp_linalg)
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                if value is numpy:
                    self._set(mod, name, np_proxy)
                elif value is scipy:
                    self._set(mod, name, sp_proxy)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def span_summary(spans) -> dict:
    """Per-function call count, inclusive and self seconds from the spans."""
    child_time = [0.0] * len(spans)
    for label, layer, t0, t1, parent, _tid in spans:
        if parent is not None and t0 is not None:
            child_time[parent] += t1 - t0
    out: dict = {}
    for k, (label, layer, t0, t1, _parent, _tid) in enumerate(spans):
        if t0 is None:
            continue
        rec = out.setdefault(label, {"layer": layer, "calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["inclusive_s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - child_time[k]
    return out
