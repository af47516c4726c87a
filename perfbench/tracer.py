"""In-memory spans around each layer's public functions, and the ledger.

A traced run installs a :class:`Recorder`'s wrappers over the functions a
layer exposes (see :mod:`layers`).  Each wrapper records one span per
call -- name, layer, start, end, parent span, thread and run id -- into a
list kept in memory; nothing is written until the run ends.  Counters
(rows, pages, bytes) are recorded at the same boundaries.

A span's *self time* is its duration minus the time its direct children
cover.  Children run on the parent's thread and nest inside it, so the
time they cover is the sum of their durations, and the self times of all
spans on a thread add up to the time its top-level spans cover.  The
*ledger* of a timed region is the per-layer sum of self times plus the
*unattributed* remainder: the region's wall time not covered by any
top-level span on the thread that timed it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``counter(args, kwargs, result) -> {name: amount}``, run after a call.
Counter = Callable[[tuple, dict, Any], Dict[str, float]]
#: ``label(args, kwargs) -> span name``, run before a call.
Label = Callable[[tuple, dict], str]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            "run": self.run,
        }


class Recorder:
    """Collects spans and counters from every wrapper it hands out."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self.run = "run"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[(self.run, name)] += amount

    def wrap(
        self,
        func: Callable,
        name: str,
        layer: str,
        counter: Optional[Counter] = None,
        label: Optional[Label] = None,
    ) -> Callable:
        """A wrapper that records a span for every call of ``func``."""
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            span_name = name if label is None else label(args, kwargs)
            stack.append(span_id)
            start = recorder.clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = recorder.clock()
                stack.pop()
                recorder.spans.append(Span(
                    span_id, span_name, layer, start, end, parent,
                    threading.get_ident(), recorder.run,
                ))
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    recorder.count(key, amount)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced


# -- installing wrappers ------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One patch point: ``module:function``, ``module:Class.method`` or
    ``module:*`` (every public plain function defined in the module)."""

    spec: str
    layer: str
    counter: Optional[Counter] = None
    label: Optional[Label] = None


def _public_functions(module: types.ModuleType) -> List[str]:
    return sorted(
        name
        for name, value in vars(module).items()
        if isinstance(value, types.FunctionType)
        and value.__module__ == module.__name__
        and not name.startswith("_")
        and not inspect.isgeneratorfunction(value)
    )


class Patch:
    """Installed wrappers; :meth:`undo` restores every original."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(
    recorder: Recorder,
    targets: Iterable[Target],
    namespaces: Tuple[str, ...] = ("repro",),
) -> Patch:
    """Wrap every target, at each name the program looks it up under.

    A module-level function is replaced in its defining module and in
    every loaded module under ``namespaces`` that imported it by name
    (``from x import f`` copies the reference, so patching ``x`` alone
    would miss those callers).  A method is replaced on its class, which
    every instance looks it up through.
    """
    patch = Patch()
    for target in targets:
        module_name, _, qualname = target.spec.partition(":")
        module = importlib.import_module(module_name)
        names = (
            _public_functions(module) if qualname == "*" else [qualname]
        )
        for name in names:
            owner_name, _, method = name.rpartition(".")
            if owner_name:
                _install_method(
                    patch, recorder, target, module, owner_name, method
                )
            else:
                _install_function(
                    patch, recorder, target, module, name, namespaces
                )
    return patch


def _install_method(patch, recorder, target, module, owner_name, method):
    owner = getattr(module, owner_name)
    raw = owner.__dict__[method]
    if getattr(raw, "__wrapped_by_perfbench__", False):
        return
    if isinstance(raw, (staticmethod, classmethod)):
        raise TypeError(f"{target.spec}: only plain methods can be traced")
    if inspect.isgeneratorfunction(raw):
        raise TypeError(f"{target.spec}: a generator's span would be empty")
    name = f"{module.__name__}.{owner_name}.{method}"
    wrapped = recorder.wrap(raw, name, target.layer, target.counter,
                            target.label)
    patch._set(owner, method, wrapped)


def _install_function(patch, recorder, target, module, name, namespaces):
    original = getattr(module, name)
    if getattr(original, "__wrapped_by_perfbench__", False):
        return
    if inspect.isgeneratorfunction(original):
        raise TypeError(f"{target.spec}: a generator's span would be empty")
    full = f"{module.__name__}.{name}"
    wrapped = recorder.wrap(original, full, target.layer, target.counter,
                            target.label)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not loaded_name.startswith(namespaces):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                patch._set(loaded, attr, wrapped)


# -- the ledger ---------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def layer_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per-layer sum of self times."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.layer] += own[span.id]
    return dict(out)


def ledger(spans: Iterable[Span], wall: float, thread: int) -> dict:
    """Per-layer self time over the spans ``thread`` recorded, plus the
    wall time none of its top-level spans covers."""
    mine = [span for span in spans if span.thread == thread]
    covered = sum(span.duration for span in mine if span.parent is None)
    return {
        "wall_s": wall,
        "layers": layer_self_times(mine),
        "unattributed_s": wall - covered,
    }
