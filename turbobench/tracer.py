"""Spans around calls into the program, recorded from outside it.

The tracer replaces a function or method with a wrapper that times each
call.  A module-level function is replaced at *every* place it is bound:
``from x import f`` copies the function object into the importing
module, so patching only ``x.f`` would miss those calls.  The tracer
therefore scans every loaded ``repro.*`` module for names bound to the
same object and patches each one, and records where it found them.

Self time is a span's duration minus the time its child spans cover.
Generator functions are timed per resume (each ``next`` is one piece of
the same call), because calling a generator function does no work.

Spans stay in memory (up to ``MAX_SPANS``; the per-layer totals count
every call) and are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Hook = Callable[["Tracer", tuple, dict, object], None]

__all__ = ["Tracer", "Target"]

#: Spans kept in memory per tracer; later spans still count in the totals.
MAX_SPANS = 200_000


class Target:
    """One traced callable: ``"module:qualname"`` plus the layer it
    belongs to and an optional counter hook run after each call."""

    def __init__(self, layer: str, spec: str, hook: Optional[Hook] = None):
        self.layer = layer
        self.spec = spec
        self.hook = hook

    def resolve(self) -> Tuple[object, str, object]:
        """``(owner, attribute, original)`` where ``owner`` is a module or
        a class."""
        module_name, qualname = self.spec.split(":")
        owner = importlib.import_module(module_name)
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        return owner, attr, original


class Tracer:
    """In-memory span recorder with per-layer call and self-time totals."""

    def __init__(self) -> None:
        #: layer -> [calls, self seconds]
        self.layers: Dict[str, List[float]] = {}
        #: ``"<layer>.<counter>"`` -> value, filled by target hooks.
        self.counts: Dict[str, float] = defaultdict(float)
        #: How many spans of each layer are open right now.
        self.open: Dict[str, int] = defaultdict(int)
        #: ``(id, parent id, layer, name, start, end)``
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self.dropped_spans = 0
        #: spec -> calls, per traced callable.
        self.spec_calls: Dict[str, int] = defaultdict(int)
        #: spec -> module or class names the callable was patched in.
        self.sites: Dict[str, List[str]] = {}
        self._stack: List[List[float]] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _enter(self, layer: str) -> Tuple[List[float], int, float]:
        parent = int(self._stack[-1][0]) if self._stack else -1
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self.open[layer] += 1
        return frame, parent, perf_counter()

    def _exit(self, layer, name, frame, parent, start, count_call: bool) -> None:
        end = perf_counter()
        self._stack.pop()
        self.open[layer] -= 1
        duration = end - start
        totals = self.layers[layer]
        if count_call:
            totals[0] += 1
            self.spec_calls[name] += 1
        totals[1] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((int(frame[0]), parent, layer, name, start, end))
        else:
            self.dropped_spans += 1

    def _wrap(self, target: Target, original: Callable) -> Callable:
        layer, name, hook = target.layer, target.spec, target.hook
        tracer = self
        self.layers.setdefault(layer, [0, 0.0])

        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def traced_gen(*args, **kwargs):
                gen = original(*args, **kwargs)
                first = True
                while True:
                    frame, parent, start = tracer._enter(layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._exit(layer, name, frame, parent, start, first)
                        return
                    except BaseException:
                        tracer._exit(layer, name, frame, parent, start, first)
                        raise
                    tracer._exit(layer, name, frame, parent, start, first)
                    first = False
                    yield item

            return traced_gen

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame, parent, start = tracer._enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(layer, name, frame, parent, start, True)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------
    def install(self, targets: List[Target]) -> None:
        """Patch every target at every binding site."""
        for target in targets:
            owner, attr, original = target.resolve()
            wrapped = self._wrap(target, original)
            sites: List[str] = []
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapped)
                sites.append(owner.__module__ + "." + owner.__qualname__)
            else:
                for mod_name, module in sorted(sys.modules.items()):
                    if not (mod_name == "repro" or mod_name.startswith("repro.")):
                        continue
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapped)
                            sites.append(mod_name)
            self.sites[target.spec] = sites

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched name (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
