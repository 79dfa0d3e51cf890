"""Spans around calls into the rotorwalk modules, installed from outside the package.

The package is imported from the checkout's `src/`, then the functions named
in layers.SPAN_TARGETS are replaced, in every rotorwalk module that binds
them, by wrappers that record a span (name, start, end, parent span, peak
RSS before and after).  Nothing inside the package is edited.  Spans stay in
memory until the worker writes them out at the end of its operation.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import layers

SRC = Path(__file__).resolve().parent.parent / "src"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans of one operation: [name, start, end, parent index, rss0_kb, rss1_kb]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1], _maxrss_kb(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.monotonic()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.monotonic()
        self._stack.pop()
        rec[5] = _maxrss_kb()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return wrapper


def import_package() -> dict:
    """Import rotorwalk from the checkout and return its layer modules by name."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("rotorwalk")
    if Path(pkg.__file__).resolve().parent != SRC / "rotorwalk":
        raise ImportError(f"rotorwalk imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"rotorwalk.{name}") for name in layers.LAYERS}
    mods["rotorwalk"] = pkg
    return mods


def _replace_everywhere(mods: dict, orig, new) -> None:
    """Rebind every module-level name that refers to orig, so internal calls see new."""
    for mod in mods.values():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)


def probe_first_harmonic_call(mods: dict) -> list:
    """Record the time of the first call into any public function of `harmonic`.

    Returns a list that holds that time once the call has happened.
    """
    hit: list[float] = []
    harmonic = mods["harmonic"]
    for name, fn in list(vars(harmonic).items()):
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != harmonic.__name__:
            continue

        def probe(*args, _fn=fn, **kwargs):
            if not hit:
                hit.append(time.monotonic())
            return _fn(*args, **kwargs)

        _replace_everywhere(mods, fn, functools.wraps(fn)(probe))
    return hit


class Recorder:
    """Keeps the results that count metrics are taken from, and counts them at the end."""

    def __init__(self, mods: dict):
        self.graphs: list = []
        self.tables: list = []
        self.states: list = []
        self.residuals: list[float] = []
        self._count_ties = mods["weights"].count_min_weight_ties
        self._table_sig = inspect.signature(mods["weights"].weight_table)

    def on_graph(self, args, kwargs, g) -> None:
        self.graphs.append(g)

    def on_table(self, args, kwargs, wt) -> None:
        self.tables.append((args, kwargs, wt))

    def on_settle(self, args, kwargs, state) -> None:
        self.states.append(state)

    def on_solve(self, args, kwargs, profile) -> None:
        self.residuals.append(float(profile.residual))

    def counts(self) -> dict:
        """Count metrics of the operation; call after its last output is written."""
        ties = 0
        seen = set()
        for args, kwargs, wt in self.tables:
            g, mech = list(self._table_sig.bind(*args, **kwargs).arguments.values())[:2]
            if (id(g), id(mech)) not in seen:
                seen.add((id(g), id(mech)))
                ties += self._count_ties(g, wt)
        return {
            "graphs.vertices": sum(len(g.adjacency) for g in self.graphs),
            "graphs.directed_edges": sum(len(a) for g in self.graphs for a in g.adjacency),
            "weights.ties": ties,
            "experiment.steps": sum(st.t for st in self.states),
            "experiment.range_size": sum(len(st.range) for st in self.states),
            "experiment.survivors": sum(st.survivors for st in self.states),
        }


def install(tracer: Tracer, mods: dict) -> Recorder:
    """Wrap every function in layers.SPAN_TARGETS that the package defines."""
    rec = Recorder(mods)
    hooks = {
        "graphs.build_path": rec.on_graph,
        "graphs.build_lattice_ball": rec.on_graph,
        "graphs.build_bary_tree": rec.on_graph,
        "harmonic.solve_harmonic": rec.on_solve,
        "weights.weight_table": rec.on_table,
        "experiment.run_until_settled": rec.on_settle,
    }
    for layer, names in layers.SPAN_TARGETS.items():
        for name in names:
            fn = getattr(mods[layer], name, None)
            if fn is None:
                continue
            span = f"{layer}.{name}"
            _replace_everywhere(mods, fn, tracer.wrap(span, fn, hooks.get(span)))
    return rec
