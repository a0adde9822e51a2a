"""Span tracer that instruments sqgbox from the outside.

``Tracer.install()`` wraps every public function defined in the traced
sqgbox modules, plus the public methods of ``cli.RunDir``, with a span
recorder (name, start, end, parent).  Modules import names directly
(``from .domain import synthesize``), so each wrapper is bound in every
``sqgbox`` module namespace that holds the original function object.  A
module or function that does not exist is skipped, so its metrics are
simply absent.  ``uninstall()`` restores every original binding.
``QuadratureNodeCounter`` patches the same way, but only the one function
it counts, so it stays on in untraced bodies.

Spans stay in memory as flat arrays; ``summary()`` turns them into
per-function call counts and self times (span duration minus the part
covered by its direct children), plus the extra counters below.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("domain", "multipliers", "besov", "solver", "harness", "kernels", "cli")

# Public methods of cli.RunDir: config/report/manifest writes, billed to cli.
_RUNDIR_METHODS = ("log", "write_json", "write_csv", "add_tree", "finish")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _batch(shape) -> int:
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _synth_flop(args, kwargs, result):
    # B1 @ C @ B2.T, evaluated left to right: (n1 x r1)(r1 x r2), then (n1 x r2)(r2 x n2).
    r1, r2 = _arg(args, kwargs, 0, "field").coefficients.shape[-2:]
    shape = result.values.shape
    n1, n2 = shape[-2:]
    return 2.0 * _batch(shape) * (n1 * r1 * r2 + n1 * r2 * n2)


def _analyze_flop(args, kwargs, result):
    # A1 @ V @ A2.T: (r1 x n1)(n1 x n2), then (r1 x n2)(n2 x r2).
    shape = _arg(args, kwargs, 0, "grid_field").values.shape
    n1, n2 = shape[-2:]
    r1, r2 = result.coefficients.shape[-2:]
    return 2.0 * _batch(shape) * (r1 * n1 * n2 + r1 * n2 * r2)


def _sqgbox_namespaces() -> list:
    return [m for n, m in sys.modules.items() if m is not None and (n == "sqgbox" or n.startswith("sqgbox."))]


class _Patcher:
    """Rebinds sqgbox functions and restores them on ``uninstall()``."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _rebind(self, original, new, namespaces) -> None:
        """Bind ``new`` wherever a namespace binds ``original``, under any name."""
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if obj is original:
                    self._patch(ns, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class QuadratureNodeCounter(_Patcher):
    """Counts the mu-nodes that ``multipliers.quadrature_nodes`` hands out.

    It wraps one function that runs once per quadrature, so its cost is nil.
    ``nodes`` stays None when the function does not exist.
    """

    def __init__(self):
        super().__init__()
        self.nodes = None

    def install(self) -> None:
        fn = getattr(sys.modules.get("sqgbox.multipliers"), "quadrature_nodes", None)
        if not inspect.isfunction(fn):
            return
        self.nodes = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.nodes += len(result[0])
            return result

        self._rebind(fn, counted, _sqgbox_namespaces())


class Tracer(_Patcher):
    """In-memory span recorder plus the counters the benchmark reports."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.fields_built = 0
        self.transform_flop = 0.0
        self.write_bytes = 0
        self.dyadic_keys: set = set()
        self.dyadic_calls = 0
        self.broken_hooks: set[str] = set()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, hook=None):
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None and name not in self.broken_hooks:
                try:
                    hook(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError, OSError):
                    self.broken_hooks.add(name)
            return result

        return traced

    # -- extra counters ----------------------------------------------------

    def _hooks(self) -> dict:
        def synth(args, kwargs, result):
            self.transform_flop += _synth_flop(args, kwargs, result)

        def analyze(args, kwargs, result):
            self.transform_flop += _analyze_flop(args, kwargs, result)

        def write_field(args, kwargs, result):
            self.write_bytes += os.path.getsize(_arg(args, kwargs, 0, "path"))

        def dyadic_block(args, kwargs, result):
            field = _arg(args, kwargs, 0, "field")
            key = (
                field.domain,
                field.coefficients.shape,
                int(_arg(args, kwargs, 1, "j")),
                _arg(args, kwargs, 2, "profile").sharpness,
            )
            self.dyadic_keys.add(key)
            self.dyadic_calls += 1

        return {
            "domain.synthesize": synth,
            "domain.analyze": analyze,
            "domain.write_field": write_field,
            "multipliers.dyadic_block": dyadic_block,
        }

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every traced layer that exists."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"sqgbox.{layer}")
            except ImportError:
                continue
        namespaces = _sqgbox_namespaces()
        hooks = self._hooks()
        for layer, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._rebind(obj, self._wrap(obj, name, hooks.get(name)), namespaces)
        cli = modules.get("cli")
        rundir = getattr(cli, "RunDir", None) if cli is not None else None
        if isinstance(rundir, type):
            for meth in _RUNDIR_METHODS:
                if inspect.isfunction(vars(rundir).get(meth)):
                    self._patch(rundir, meth, self._wrap(vars(rundir)[meth], f"cli.RunDir.{meth}"))
        field_cls = getattr(modules.get("domain"), "SpectralField", None)
        if isinstance(field_cls, type):
            init = vars(field_cls)["__init__"]

            @functools.wraps(init)
            def counted_init(obj, *args, **kwargs):
                self.fields_built += 1
                init(obj, *args, **kwargs)

            self._patch(field_cls, "__init__", counted_init)

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        return {
            "names": np.asarray(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per-function calls and self time, plus the extra counters."""
        sp = self.spans()
        n_names = len(self.names)
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        covered = np.bincount(sp["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - covered
        calls = np.bincount(sp["name"], minlength=n_names)
        self_by_name = np.bincount(sp["name"], weights=self_time, minlength=n_names)
        out = {
            "functions": {
                name: {"calls": int(calls[i]), "self_s": float(self_by_name[i])}
                for i, name in enumerate(self.names)
            },
            "fields_built": self.fields_built,
            "broken_hooks": sorted(self.broken_hooks),
        }
        if "domain.synthesize" not in self.broken_hooks and "domain.analyze" not in self.broken_hooks:
            out["transform_gflop"] = self.transform_flop / 1e9
        if "domain.write_field" not in self.broken_hooks:
            out["write_field_bytes"] = self.write_bytes
        if "multipliers.dyadic_block" not in self.broken_hooks:
            out["dyadic_distinct_ratio"] = len(self.dyadic_keys) / self.dyadic_calls if self.dyadic_calls else 0.0
        nl = self._ids.get("solver.nonlinear_term")
        if nl is not None:
            out["nonlinear_term_ms"] = (dur[sp["name"] == nl] * 1e3).tolist()
        return out

