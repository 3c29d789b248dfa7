"""Wall-clock layer attribution, kept entirely outside the program.

For the duration of one traced pass, :class:`Tracing` wraps every public
function and public method defined in the modules of each layer of
:data:`LAYERS` with a recorder. A span (name ``layer:qualname``, start, end,
parent) is recorded only when a call *crosses a layer boundary*; a call
between two functions of the same layer passes straight through. A layer's
self time is the duration of its spans minus the part covered by their child
spans, so time spent in NumPy or in unwrapped helpers belongs to the layer
that called them. The wrappers only read the host clock: simulated state is
untouched, which the benchmark checks by comparing digests of traced and
untraced passes.
"""

from __future__ import annotations

import array
import enum
import functools
import importlib
import json
import pkgutil
import sys
import time
from types import FunctionType
from typing import Dict, List, Optional, Tuple

import numpy as np

#: layer name -> module-name prefixes below the root package. A prefix
#: covers the module itself and everything beneath it.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "runner": ("runner",),
    "data": ("data",),
    "ml": ("ml",),
    "core.nups": ("core.nups",),
    "core.management": ("core.management",),
    "core.replica_manager": ("core.replica_manager",),
    "core.sampling": ("core.sampling",),
    "ps.base": ("ps.base",),
    "ps.classic": ("ps.classic",),
    "ps.replication": ("ps.replication",),
    "ps.relocation": ("ps.relocation",),
    "ps.rounds": ("ps.rounds",),
    "ps.partition": ("ps.partition",),
    "ps.storage": ("ps.storage", "ps.chunks"),
    "simulation.clock": ("simulation.clock",),
    "simulation.cluster": ("simulation.cluster",),
    "simulation.metrics": ("simulation.metrics",),
    "simulation.network": ("simulation.network",),
    "simulation.events": ("simulation.events",),
    "adaptive": ("adaptive",),
    "scenarios": ("scenarios",),
    "faults": ("faults",),
    "elastic": ("elastic",),
    "parallel": ("parallel",),
    "obs": ("obs",),
}

#: Dunder methods that do real work at layer boundaries (construction, the
#: chunked containers' indexing); every other underscore name is private.
WRAPPED_DUNDERS = frozenset({"__init__", "__call__", "__getitem__", "__setitem__"})


def discover(root: str = "repro") -> Dict[str, list]:
    """Import the modules of every layer: ``{layer: [module, ...]}``.

    A layer whose modules do not exist (at some later commit) maps to an
    empty list and so reports zero; it is never an error.
    """
    found: Dict[str, list] = {layer: [] for layer in LAYERS}
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            try:
                module = importlib.import_module(f"{root}.{prefix}")
            except ImportError:
                continue
            found[layer].append(module)
            if hasattr(module, "__path__"):
                for info in pkgutil.walk_packages(module.__path__,
                                                  module.__name__ + "."):
                    try:
                        found[layer].append(importlib.import_module(info.name))
                    except ImportError:
                        continue
    return found


def _is_traced_name(name: str) -> bool:
    return not name.startswith("_") or name in WRAPPED_DUNDERS


class Recorder:
    """In-memory span store of one traced pass.

    A span is appended when its call *returns*, as four doubles ``name id,
    depth, start, end`` in one flat array: no object per span survives, so
    a million spans cost 32 MB and no garbage-collector work. Spans therefore
    sit in post-order, and a span's id is its position in that order; parents
    are reconstructed from the depths afterwards (:func:`parents_from_depths`).
    """

    def __init__(self) -> None:
        self.names: List[str] = []        # name table: "layer:qualname"
        self.name_layers: List[str] = []  # layer of each name-table entry
        self._flat = array.array("d")     # 4 doubles per span
        self.cell_marks: List[Tuple[int, str]] = []  # (first span id, cell id)
        # Layers of the open spans; the sentinel stands for the benchmark's
        # own code, which belongs to no layer.
        self._layers: List[Optional[str]] = [None]

    def __len__(self) -> int:
        """Number of spans recorded so far."""
        return len(self._flat) // 4

    def begin_cell(self, cell_id: str) -> None:
        """Spans recorded from now on belong to ``cell_id``."""
        self.cell_marks.append((len(self), cell_id))

    def wrap(self, fn, layer: str, qualname: str):
        """A recording wrapper around ``fn`` (a function of ``layer``)."""
        name_id = len(self.names)
        self.names.append(f"{layer}:{qualname}")
        self.name_layers.append(layer)
        layers = self._layers
        record = self._flat.extend
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layers[-1] == layer:
                return fn(*args, **kwargs)
            layers.append(layer)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                layers.pop()
                record((name_id, len(layers), start, end))

        return wrapper

    # ----------------------------------------------------------- aggregation
    def arrays(self):
        """``(name ids, parents, starts, ends)`` as NumPy arrays."""
        table = np.array(self._flat, dtype=np.float64).reshape(-1, 4)
        name_ids = table[:, 0].astype(np.int64)
        depths = table[:, 1].astype(np.int64)
        return name_ids, parents_from_depths(depths), table[:, 2], table[:, 3]

    def span_layers(self, name_ids: np.ndarray) -> np.ndarray:
        """Index into :data:`LAYERS` (in order) of every span's layer."""
        layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        table = np.asarray([layer_index[layer] for layer in self.name_layers],
                           dtype=np.int64)
        return table[name_ids]

    def span_cells(self) -> np.ndarray:
        """Index into ``cell_marks`` of every span (``-1`` before the first)."""
        firsts = np.asarray([first for first, _ in self.cell_marks],
                            dtype=np.int64)
        return np.searchsorted(firsts, np.arange(len(self)), side="right") - 1

    def write_jsonl(self, path) -> None:
        """One line per span, after a header line that names the fields.

        The header holds the name and cell tables; a span is the array
        ``[name index, start, end, parent id, cell index]`` with times in
        seconds since the first span started. A span's id is its line
        number after the header, counted from 0.
        """
        name_ids, parents, starts, ends = self.arrays()
        cells = self.span_cells()
        origin = float(starts.min()) if len(starts) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "fields": ["name", "start_s", "end_s", "parent", "cell"],
                "names": self.names,
                "cells": [cell_id for _, cell_id in self.cell_marks],
            }) + "\n")
            for name, start, end, parent, cell in zip(
                    name_ids.tolist(), (starts - origin).tolist(),
                    (ends - origin).tolist(), parents.tolist(), cells.tolist()):
                out.write(f"[{name},{start:.7f},{end:.7f},{parent},{cell}]\n")


def parents_from_depths(depths: np.ndarray) -> np.ndarray:
    """Parent span ids of spans listed in post-order with their stack depth.

    While a span of depth ``d`` is open it is the only open span of that
    depth, so the parent of a span is the first *later* entry one level up;
    a span of depth 1 is a root and gets ``-1``.
    """
    parents = np.full(len(depths), -1, dtype=np.int64)
    for depth in range(2, int(depths.max()) + 1 if len(depths) else 0):
        children = np.flatnonzero(depths == depth)
        above = np.flatnonzero(depths == depth - 1)
        parents[children] = above[np.searchsorted(above, children)]
    return parents


def self_times(parents: np.ndarray, starts: np.ndarray,
               ends: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed duration of its direct children.

    Calls are synchronous, so the children of a span never overlap each other
    and lie inside it: the part of the span they cover is their summed length.
    """
    durations = ends - starts
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=durations[has_parent],
                          minlength=len(durations))
    return durations - covered


class Tracing:
    """Context manager: install the recorder's wrappers, restore on exit."""

    def __init__(self, recorder: Recorder, root: str = "repro") -> None:
        self.recorder = recorder
        self.root = root
        self._patched: List[Tuple[object, str, object]] = []  # owner, name, original

    def _patch(self, owner, name: str, original, replacement) -> None:
        self._patched.append((owner, name, original))
        setattr(owner, name, replacement)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, member in list(vars(cls).items()):
            if not _is_traced_name(name):
                continue
            qualname = f"{cls.__qualname__}.{name}"
            if isinstance(member, FunctionType):
                wrapped = self.recorder.wrap(member, layer, qualname)
            elif isinstance(member, (staticmethod, classmethod)) \
                    and isinstance(member.__func__, FunctionType):
                wrapped = type(member)(
                    self.recorder.wrap(member.__func__, layer, qualname))
            else:
                continue
            self._patch(cls, name, member, wrapped)

    def __enter__(self) -> "Tracing":
        functions: Dict[int, Tuple[object, object]] = {}  # id(original) -> pair
        for layer, modules in discover(self.root).items():
            for module in modules:
                for name, member in list(vars(module).items()):
                    if getattr(member, "__module__", None) != module.__name__:
                        continue  # imported from elsewhere; wrapped at home
                    if isinstance(member, FunctionType):
                        if _is_traced_name(name):
                            functions[id(member)] = (member, self.recorder.wrap(
                                member, layer, member.__qualname__))
                    elif isinstance(member, type) and not issubclass(
                            member, (enum.Enum, BaseException)):
                        self._wrap_class(member, layer)
        # Rebind every global of the program that names a wrapped function
        # (``from x import f`` copies the reference into the importer).
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == self.root
                                      or module_name.startswith(self.root + ".")):
                continue
            for name, member in list(vars(module).items()):
                pair = functions.get(id(member)) \
                    if isinstance(member, FunctionType) else None
                if pair is not None:
                    self._patch(module, name, member, pair[1])
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
