"""Span tracer that wraps the public callables of streamsparse from outside.

Installing a Tracer replaces, for the duration of one traced run, every
public function that a layer module defines or imports, and every public
method of the classes a layer module defines, with a wrapper that records a
span (name, parent span, start, end). The library under src/ is not edited:
a function is patched as an attribute of each module that holds it, so the
call sites inside the library (which look names up in their module's
globals) go through the wrapper, and each span remembers the module it was
called through. Constructors, properties and private names are left alone.

Spans live in flat arrays in memory and are written out once the run ends.
Self time is a span's duration minus the durations of its direct children;
see self_times().
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

# the modules whose time the benchmark attributes; io and cli are left out
# because no streaming path runs through them
LAYERS = ("graph", "rng", "offline", "online", "merge_reduce", "hypergraph",
          "balance", "window", "robust", "mincut", "bench")

PACKAGE = "streamsparse"
API_SITE = "api"     # calls made through the package namespace itself


def self_times(name_ids, parents, starts, ends) -> np.ndarray:
    """Self time of every span: its duration minus the summed duration of
    the spans whose parent it is. A parent of -1 marks a root span."""
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def _home(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    head, _, tail = module.partition(".")
    if head != PACKAGE or tail not in LAYERS:
        return None
    return tail


def _public_methods(cls):
    if getattr(cls, "_is_protocol", False) or issubclass(cls, BaseException):
        return
    for attr, value in vars(cls).items():
        if not attr.startswith("_") and inspect.isfunction(value):
            yield attr, value


class Tracer:
    """Records spans for the public streamsparse callables while installed.

    Span names are "<home module>.<qualified name>@<call site>", where the
    call site is the module the callable was reached through ("api" for the
    package namespace, empty for methods). Observers registered with
    observe() see the arguments and the result of a call outside its span,
    so their cost is charged to the caller, not to the observed layer.
    """

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._observers: dict[str, tuple] = {}

    def observe(self, qualname: str, post, pre=None) -> None:
        """Call post(token, args, result) after each call of the callable
        qualname (e.g. "window.SlidingWindowState.push"), with token the
        value pre(args) returned before the call (None without pre)."""
        self._observers[qualname] = (pre, post)

    # -- patching --------------------------------------------------------

    def _span_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, qualname: str, site: str):
        sid = self._span_id(f"{qualname}@{site}")
        pre, post = self._observers.get(qualname, (None, None))
        stack, ids, parents = self._stack, self.name_ids, self.parents
        starts, ends, clock = self.starts, self.ends, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args) if pre is not None else None
            idx = len(ids)
            ids.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(token, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [(API_SITE, self.package)]
        modules += [(name, getattr(self.package, name)) for name in LAYERS]
        wrapped: dict[int, object] = {}
        for site, module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                home = _home(value)
                if home is None:
                    continue
                if inspect.isfunction(value):
                    qualname = f"{home}.{value.__name__}"
                    self._patch(module, attr, self._wrap(value, qualname, site))
                elif inspect.isclass(value) and id(value) not in wrapped:
                    wrapped[id(value)] = value
                    for meth, fn in _public_methods(value):
                        qualname = f"{home}.{value.__name__}.{meth}"
                        self._patch(value, meth, self._wrap(fn, qualname, ""))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def profile(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, summed self seconds, summed inclusive seconds)."""
        if self._stack != [-1]:
            raise RuntimeError("profile() called with spans still open")
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        own = self_times(ids, self.parents, self.starts, self.ends)
        dur = (np.frombuffer(self.ends, dtype=float)
               - np.frombuffer(self.starts, dtype=float))
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        own_sum = np.bincount(ids, weights=own, minlength=k)
        dur_sum = np.bincount(ids, weights=dur, minlength=k)
        return {name: (int(calls[i]), float(own_sum[i]), float(dur_sum[i]))
                for i, name in enumerate(self.names) if calls[i]}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                 parents=np.frombuffer(self.parents, dtype=np.int32),
                 starts=np.frombuffer(self.starts, dtype=float),
                 ends=np.frombuffer(self.ends, dtype=float))
