"""Instruments installed from outside the package, by rebinding its names.

``from .x import y`` copies a function into the importing module, so a
wrapper must replace the function at every name it is bound to: in its own
module, in every ``fermicrystal`` module that imported it, and in the
package namespace.  ``rebound`` does that and restores the originals when
its block ends, so the package itself carries no instrumentation.

Two instruments use it:

* ``StepClock`` (untraced runs) adds one ``perf_counter`` read per
  integrator step, in the observer that ``evolve`` already calls.
* ``Tracer`` (traced runs) records a span for every call of the wrapped
  functions: name, parent, start and end, with self time (span time minus
  the time of child spans) summed per name as it goes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Modules whose public functions get a span, plus config for load_config.
TRACED_MODULES = ("torus", "density", "fermions", "dynamics", "stability",
                  "cli", "config")
# Private functions and methods that per-layer metrics need, keyed by span name.
EXTRA_TARGETS = {
    "dynamics._rhs_raw": ("dynamics", "_rhs_raw"),
    "fermions.SubstitutionTable": ("fermions", "SubstitutionTable.__init__"),
    "cli.ArtifactWriter.write_json": ("cli", "ArtifactWriter.write_json"),
    "cli.ArtifactWriter.write_csv": ("cli", "ArtifactWriter.write_csv"),
    "cli.ArtifactWriter.finish": ("cli", "ArtifactWriter.finish"),
}


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "fermicrystal" or name.startswith("fermicrystal."))]


@contextlib.contextmanager
def rebound(replacements: dict):
    """Bind ``replacements[original]`` wherever a package module binds ``original``.

    Keys of ``replacements`` are module-level functions or ``(class, attr)``
    pairs for methods.
    """
    undo = []
    functions = {f: w for f, w in replacements.items() if not isinstance(f, tuple)}
    try:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in functions:
                    setattr(module, attr, functions[value])
                    undo.append((module, attr, value))
        for key, wrapper in replacements.items():
            if isinstance(key, tuple):
                owner, attr = key
                undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


class StepClock:
    """Timestamps per integrator step (or per analysis call), in series.

    Each ``evolve`` call, or each analysis pass, opens a series; the
    intervals between consecutive stamps of one series are the step times.
    """

    def __init__(self):
        self.series: list[list[float]] = []

    def new_series(self) -> None:
        self.series.append([perf_counter()])

    def stamp(self) -> None:
        self.series[-1].append(perf_counter())

    def take(self) -> np.ndarray:
        """Step intervals in seconds since the last ``take``."""
        intervals = [np.diff(s) for s in self.series]
        self.series = []
        return np.concatenate(intervals) if intervals else np.zeros(0)

    def installed(self):
        from fermicrystal import dynamics

        evolve = dynamics.evolve
        signature = inspect.signature(evolve)
        clock = self

        @functools.wraps(evolve)
        def clocked_evolve(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            observer = bound.arguments.get("observer")
            first = True

            def stamped(t, state):
                nonlocal first
                if first:
                    clock.new_series()  # the t = 0 call, before any step
                    first = False
                else:
                    clock.stamp()
                if observer is not None:
                    observer(t, state)

            bound.arguments["observer"] = stamped
            return evolve(*bound.args, **bound.kwargs)

        return rebound({evolve: clocked_evolve})


class Tracer:
    """Spans of the wrapped package functions, kept in memory until ``save``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span id, child time]
        self._ids = itertools.count()
        self.begin_unit()

    def begin_unit(self) -> None:
        """Start fresh per-name totals; spans keep accumulating."""
        self.unit = {
            "totals": {},  # name -> [calls, inclusive s, self s]
            "counts": Counter(),
            "iterations": [],
            "root_s": 0.0,
        }

    def _close(self, name, frame, parent, start, end):
        duration = end - start
        totals = self.unit["totals"].setdefault(name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.unit["root_s"] += duration
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(frame[0])
        self.parent.append(parent)
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name, func, split=None, hook=None):
        tracer = self
        stack = self._stack
        ids = self._ids

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = name if split is None else f"{name}[{split(*args, **kwargs)}]"
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(span, frame, parent, start, end)
            if hook is not None:
                hook(tracer.unit, result)
            return result

        return traced

    def installed(self):
        import fermicrystal

        replacements = {}
        for short in TRACED_MODULES:
            module = getattr(fermicrystal, short)
            for attr, value in vars(module).items():
                # A memoized accessor (frequency_table) stays unwrapped: its
                # cache hit costs less than the span that would time it.
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    name = f"{short}.{attr}"
                    replacements[value] = self.wrap(
                        name, value, _SPLITS.get(name), _HOOKS.get(name))
        for name, (short, path) in EXTRA_TARGETS.items():
            owner = getattr(fermicrystal, short)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            func = owner.__dict__[attr]
            key = (owner, attr) if outer else func
            replacements[key] = self.wrap(name, func)
        return rebound(replacements)

    def save(self, path) -> None:
        """Write every span recorded in this process, once, at the end."""
        np.savez_compressed(
            path, run_id=np.array(self.run_id), names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
        )


def _spectrum_subspace(form, subspace="full", *args, **kwargs):
    return subspace


def _evolve_hook(unit, result):
    _, log = result
    unit["iterations"].extend(int(i) for i in log.iterations[1:])


def _hessian_hook(unit, result):
    unit["counts"]["stability.hessian.matrix_size"] = result.matrix.shape[0]


def _wiener_hook(unit, result):
    unit["counts"]["density.wiener_report.points"] += len(result.points)


_SPLITS = {"stability.hessian_spectrum": _spectrum_subspace}
_HOOKS = {
    "dynamics.evolve": _evolve_hook,
    "stability.hessian_assemble": _hessian_hook,
    "density.wiener_report": _wiener_hook,
}
