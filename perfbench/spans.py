"""In-memory span tracer that wraps ledlab from outside.

`Tracer.install` rebinds every public function and method of the loaded
``ledlab`` modules to a wrapper that records one span per call: the
span's name, start, end and parent.  A function imported by name into
another module (``gyrodynamics`` holds ``gyrational_mass``; the package
namespace re-exports most of the library) is rebound in every namespace
that holds it, so all callers see the same wrapper.  Class methods are
patched on the class, which every namespace shares.  `uninstall` puts
the originals back.

Spans are named after the defining module and the qualified name, e.g.
``gyrodynamics.GyroSolver.step``.  Only calls made while `active` is set
are recorded, so the benchmark can run its oracles through the same
library without tracing them.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

PACKAGE = "ledlab"


def span_name(fn) -> str:
    module = fn.__module__.split(".")[-1] if fn.__module__ != PACKAGE else PACKAGE
    return f"{module}.{fn.__qualname__}"


def _traceable_method(cls, name) -> bool:
    if name == "__init__":
        return not dataclasses.is_dataclass(cls)
    return not name.startswith("_")


class Tracer:
    """Records spans of the wrapped calls; single-threaded by design."""

    def __init__(self, work=None):
        # work: span name -> f(args, kwargs, result) giving a count to add
        self.work_fns = dict(work or {})
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.work = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------
    def _intern(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name: str, fn):
        idx = self._intern(name)
        work_fn = self.work_fns.get(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if work_fn is not None:
                self.work[idx] += work_fn(args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------
    def install(self, modules=None) -> None:
        """Rebind public functions and methods in every ledlab namespace."""
        if modules is None:
            modules = [m for k, m in sorted(sys.modules.items())
                       if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        wrappers: dict[int, object] = {}
        seen_classes: set[int] = set()
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType):
                    if value.__name__.startswith("_") or not self._ours(value):
                        continue
                    key = id(value)
                    if key not in wrappers:
                        wrappers[key] = self.wrap(span_name(value), value)
                    self._rebind(mod, attr, value, wrappers[key])
                elif inspect.isclass(value) and self._ours(value) and id(value) not in seen_classes:
                    seen_classes.add(id(value))
                    self._install_class(value)

    @staticmethod
    def _ours(obj) -> bool:
        mod = getattr(obj, "__module__", "") or ""
        return mod == PACKAGE or mod.startswith(PACKAGE + ".")

    def _install_class(self, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if not _traceable_method(cls, attr):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                inner = raw.__func__
                if not isinstance(inner, types.FunctionType):
                    continue
                wrapped = type(raw)(self.wrap(span_name(inner), inner))
            elif isinstance(raw, types.FunctionType):
                wrapped = self.wrap(span_name(raw), raw)
            else:
                continue
            self._rebind(cls, attr, raw, wrapped)

    def _rebind(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------
    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, list(self.span_name), list(self.span_parent),
                           list(self.span_start), list(self.span_end), dict(self.work))


def self_times(parent, start, end):
    """Self time of each span: its duration minus the part of it that its
    child spans cover (child intervals are clipped to the parent and
    merged, so overlapping children are not subtracted twice)."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        ivals = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered = 0.0
        cur_s, cur_e = None, None
        for s, e in ivals:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


@dataclasses.dataclass
class SpanSummary:
    """Per-name aggregates of a finished trace."""

    names: list
    span_name: list
    span_parent: list
    span_start: list
    span_end: list
    work_by_id: dict

    def __post_init__(self):
        self._ids = {n: i for i, n in enumerate(self.names)}
        self._self = self_times(self.span_parent, self.span_start, self.span_end)
        self._by_name = defaultdict(list)
        for i, n in enumerate(self.span_name):
            self._by_name[n].append(i)

    def known(self, name: str) -> bool:
        return name in self._ids

    def _spans(self, name):
        return self._by_name.get(self._ids.get(name), [])

    def _has_ancestor(self, i, anc) -> bool:
        p = self.span_parent[i]
        while p >= 0 and self.span_name[p] != anc:
            p = self.span_parent[p]
        return p >= 0

    def _under_parent(self, name, parent):
        pid = self._ids.get(parent)
        return [i for i in self._spans(name)
                if self.span_parent[i] >= 0 and self.span_name[self.span_parent[i]] == pid]

    def calls(self, name: str, parent: str = None) -> int:
        """Number of spans of `name` (only those directly under `parent`
        when it is given)."""
        if parent is None:
            return len(self._spans(name))
        return len(self._under_parent(name, parent))

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans of `name` with a span of `ancestor` somewhere above them."""
        anc = self._ids.get(ancestor)
        return sum(self._has_ancestor(i, anc) for i in self._spans(name))

    def self_s(self, name: str) -> float:
        return sum(self._self[i] for i in self._spans(name))

    def total_s(self, name: str, parent: str = None) -> float:
        """Inclusive time of `name`: its outermost spans, or only the spans
        directly under `parent` when it is given."""
        if parent is not None:
            spans = self._under_parent(name, parent)
        else:
            idx = self._ids.get(name)
            spans = [i for i in self._spans(name) if not self._has_ancestor(i, idx)]
        return sum(self.span_end[i] - self.span_start[i] for i in spans)

    def work(self, name: str) -> float:
        return self.work_by_id.get(self._ids.get(name), 0.0)
