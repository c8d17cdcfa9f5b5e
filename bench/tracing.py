"""Span tracing of xbardse from outside the package.

`traced` replaces every public function of the given modules with a wrapper
that records one span per call, on the module attribute the callers look the
name up on, and restores the originals when it exits. `xbar` imports
`ideal_forward` from `qnet`, so `xbar.ideal_forward` is wrapped as well and
its span is named after the defining module: `qnet.ideal_forward`.

Spans stay in memory. Parents are tracked per thread; the outermost span of a
worker thread takes as parent the span the tracing thread is inside at that
moment, which is how `dse.grid_search`'s thread pool work is attributed.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

PROBE = "trace.probe"
POINT_SPAN = "dse.evaluate_config"   # each call is one design point


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    point: int | None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans. `hooks` maps a span name to a callback
    `hook(span, arguments, result)` run after the call returns or raises
    (`result` is None then); `arguments` maps parameter names to values.
    Hooks run one at a time, so they may update shared counters. Hook time,
    waiting included, is recorded as a child span named `trace.probe`, so it
    never counts as self time of the traced function's caller.

    A POINT_SPAN span starts a new design point; spans below it on the same
    thread carry its point id.
    """

    def __init__(self, hooks: dict | None = None):
        self.spans: list[Span] = []
        self.hooks = dict(hooks or {})
        self._ids = itertools.count()
        self._points = itertools.count()
        self._local = threading.local()
        self._stacks: dict[int, list] = {}
        self._home = threading.get_ident()
        self._hook_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        stack = self._stack()
        top = stack[-1:] or self._stacks.get(self._home, [])[-1:]
        parent, point = top[0] if top else (None, None)
        sid = next(self._ids)
        if name == POINT_SPAN:
            point = next(self._points)
        stack.append((sid, point))
        error = None
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            error = f"{type(err).__name__}: {err}"
            raise
        finally:
            end = perf_counter()
            stack.pop()
            span = Span(sid, name, start, end, parent, threading.get_ident(),
                        point, error)
            self.spans.append(span)
            hook = self.hooks.get(name)
            if hook is not None:
                self.call(PROBE, self._run_hook, (hook, span, fn, args, kwargs, result), {})

    def _run_hook(self, hook, span: Span, fn, args: tuple, kwargs: dict, result) -> None:
        with self._hook_lock:
            hook(span, _arguments(fn, args, kwargs), result)


@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _arguments(fn, args: tuple, kwargs: dict) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def public_functions(module) -> list[tuple[str, object]]:
    """(attribute, function) pairs of the module's public functions that are
    defined somewhere in xbardse, imported names included."""
    return [(attr, obj) for attr, obj in sorted(vars(module).items())
            if not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__.startswith("xbardse.")]


@contextmanager
def traced(tracer: Tracer, modules):
    """Wrap the public functions of `modules` for the duration of the block."""
    originals = []
    try:
        for module in modules:
            for attr, fn in public_functions(module):
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                originals.append((module, attr, fn))
                setattr(module, attr, _wrap(tracer, name, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of the intervals its direct
    children cover, each child clipped to the parent's interval."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {span.id: span.duration - covered(
                (max(c.start, span.start), min(c.end, span.end))
                for c in children[span.id])
            for span in spans}
