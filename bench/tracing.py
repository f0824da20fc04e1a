"""Span tracing of the cavityfall layers from outside the package.

install() replaces every public function of every layer module with a
timing wrapper, in every module namespace of the package that refers to it,
so calls within and across modules (propagate -> observables,
snr_trace -> snr, cli.run -> dispersion_table) become nested spans.
uninstall() puts the originals back.  Modules and functions are discovered
at install time: a symbol the package no longer has is simply not wrapped.

Spans live in compact in-memory arrays (name, start, end, parent, operation)
and are written out once, when the run ends.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("units", "dispersion", "gravity", "propagator", "interferometry", "scenario", "cli")


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed duration of its direct children.

    Spans nest within one thread, so children of one parent never overlap
    and their durations add up to the time they cover.
    """
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration - covered


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, label: str):
        name_id = len(self.names)
        self.names.append(label)
        stack, start, end = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            index = len(start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package: str) -> list[str]:
        """Wrap the public functions of package.<layer> for each layer that
        exists; returns the labels wrapped, as "<layer>.<function>"."""
        modules = [importlib.import_module(package)]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError:
                continue
            modules.append(module)
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return list(self.names)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())

    def summary(self, ops=None) -> dict[str, dict[str, float]]:
        """Per function label: calls, total (inclusive) and self seconds,
        optionally restricted to spans of the given operation ids."""
        spans = self.arrays()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        keep = np.ones(len(own), dtype=bool) if ops is None else np.isin(spans["op"], list(ops))
        names = spans["name"][keep]
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=(spans["end"] - spans["start"])[keep], minlength=n)
        self_s = np.bincount(names, weights=own[keep], minlength=n)
        return {
            label: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, label in enumerate(self.names)
        }
