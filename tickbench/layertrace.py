"""Outside-in per-layer self time for the simulator's modules.

:class:`LayerTrace` wraps the public functions and methods of each
layer's modules *from outside* — nothing under ``src/`` changes — and
accumulates, per layer:

* ``calls``: entries into the layer from outside it (a call from one
  function of a layer into another of the same layer is not an entry);
* ``self_s``: wall time spent inside the layer minus the time spent in
  other layers it called (nesting-aware self time).

Every other ``repro`` module is wrapped too, as one :data:`OTHER`
bucket, so that time spent in unnamed modules (angle search, reflector
and radio models, MCS table, ...) is not charged to the named layer
that called them.  The leaf helpers in :data:`HELPERS` (vector
arithmetic, segment and circle primitives, unit and dB conversion,
argument checks) are the exception: they are left unwrapped and count
as part of whichever layer calls them, because a wrapper costs more
than the helper it would time.

A per-thread stack of open layer frames gives the nesting.  Functions
a layer imported by name into other modules are replaced there too, so
``from repro.x import f`` call sites are traced as well.  Calls are
recorded only while the trace is *armed*, so the caller decides which
region counts.  Install only in a traced run: the wrappers cost time
on every call, armed or not.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Traced layer -> the module (or package prefix) that implements it.
LAYERS: Dict[str, str] = {
    "geometry.raytrace": "repro.geometry.raytrace",
    "sim.cache": "repro.sim.cache",
    "phy.channel": "repro.phy.channel",
    "phy.blockage": "repro.phy.blockage",
    "phy.antenna": "repro.phy.antenna",
    "link.budget": "repro.link.budget",
    "core.controller": "repro.core.controller",
    "core.multiuser": "repro.core.multiuser",
    "baselines.nlos_relay": "repro.baselines.nlos_relay",
    "control.scheduler": "repro.control.scheduler",
    "rate.adaptation": "repro.rate.adaptation",
    "telemetry": "repro.telemetry",
}

#: The bucket of every ``repro`` module outside the named layers.
OTHER = "other"

#: Leaf helper modules, never wrapped: their time is self time of the
#: layer that called them.  They import no other layer.  Wrapped, they
#: take 0.6-1.1 M calls in one session of each workload and the wrappers
#: more than double their cost.
HELPERS = ("repro.geometry.vectors", "repro.geometry.shapes", "repro.utils")


def _within(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def _modules_by_layer() -> Dict[str, List[object]]:
    """Loaded ``repro`` modules, grouped into the named layers and
    :data:`OTHER`."""
    for prefix in LAYERS.values():
        __import__(prefix)
    grouped: Dict[str, List[object]] = {layer: [] for layer in (*LAYERS, OTHER)}
    for name, module in sorted(sys.modules.items()):
        if module is None or not _within(name, "repro"):
            continue
        if any(_within(name, helper) for helper in HELPERS):
            continue
        layer = next((l for l, p in LAYERS.items() if _within(name, p)), OTHER)
        grouped[layer].append(module)
    return grouped


def _public_functions(module) -> List[Tuple[object, str, object, Callable]]:
    """``(holder, attribute, original, function)`` for every public
    function and method the module defines.  ``original`` is the
    attribute as stored (a ``staticmethod``/``classmethod`` object for
    those), ``function`` the plain function to wrap."""
    found = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            found.append((module, attr, value, value))
        elif inspect.isclass(value):
            for name, member in vars(value).items():
                if name.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    found.append((value, name, member, member.__func__))
                elif inspect.isfunction(member):
                    found.append((value, name, member, member))
    return found


class LayerTrace:
    """Per-layer call counts and self time, installed by monkey-patching."""

    def __init__(self) -> None:
        self.layers = (*LAYERS, OTHER)
        #: Calls are recorded only while this is set: the caller arms
        #: the trace around the region it times.
        self.armed = False
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        trace = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = trace._stack()
            if not trace.armed or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]  # [layer, time spent in child layers]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                trace.calls[layer] += 1
                trace.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    # -- install / uninstall ------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("layer trace already installed")
        self.reset()
        replaced: Dict[int, object] = {}  # id(original function) -> wrapper
        for layer, modules in _modules_by_layer().items():
            for module in modules:
                for holder, attr, original, fn in _public_functions(module):
                    wrapper = self._wrap(layer, fn)
                    if isinstance(original, (staticmethod, classmethod)):
                        patched = type(original)(wrapper)
                    else:
                        patched = wrapper
                        replaced[id(fn)] = wrapper
                    self._restore.append((holder, attr, original))
                    setattr(holder, attr, patched)
        # Rebind names other modules imported with ``from ... import``.
        originals = {id(fn): fn for holder, attr, fn in self._restore}
        for name, module in list(sys.modules.items()):
            if module is None or not _within(name, "repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and originals.get(id(value)) is value:
                    if getattr(module, attr) is not wrapper:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
