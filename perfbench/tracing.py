"""Spans around the public surface of lcex, recorded from outside the package.

``Tracer.install`` replaces every public function of every lcex module, and
every public method and constructor of every lcex class, with a wrapper that
records one span per call: a name, a start and an end (perf_counter_ns) and
the index of the enclosing span.  Module attributes are replaced in every
lcex namespace that holds them, so calls made inside ``build_index`` are
timed too.  Spans stay in memory until ``spans()`` is read at the end.

Functions that answer one query or one position (``PER_CALL``) are left
unwrapped: ``rank_blocks`` calls them once per cover position and
``rank_blocks_by_sort`` once per comparison, so a span on each would cost
more than the work it times.  Their time counts toward the caller's self
time, and the serving process times them per call instead.
"""

from __future__ import annotations

import contextlib
import importlib
import pkgutil
import sys
import time
from array import array

import numpy as np

PER_CALL = frozenset({
    "navtree.NavTree.locate", "navtree.NavTree.level_ancestor",
    "navtree.short_lce", "tst.TruncatedSuffixTree.lca_prefix_len",
    "suffixes.SparseMin.query", "diffcover.DifferenceCover.h",
    "diffcover.CoverIndex.in_cover", "diffcover.CoverIndex.seg_rank",
    "diffcover.CoverIndex.pos_in_code", "blockcode.BlockCode.long_lce",
    "blockcode.BlockCode.posmap", "blockcode.BlockCode.rank_at",
    "lce.LceIndex.lce", "lce.LceIndex.short_lce", "lce.lce",
    "packed.PackedText.fetch", "packed.PackedText.decode",
    "packed.bit_short_lce", "packed.leading_equal_bits", "packed.bit_lce",
    "packed.packed_lce", "packed.PackedLce.lce", "packed.PackedLce.bit_lce",
    "textstore.Text.symbol", "textstore.Text.check_range",
    "oracle.naive_lce",
})


def lcex_modules():
    import lcex

    mods = [lcex]
    for info in pkgutil.iter_modules(lcex.__path__):
        mods.append(importlib.import_module(f"lcex.{info.name}"))
    return mods


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """In-memory span recorder over the lcex public surface."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.active = False

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public surface of every lcex module."""
        mods = lcex_modules()
        wrapped: dict[int, object] = {}
        classes = []
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", "") or ""
                if attr.startswith("_") or not owner.startswith("lcex."):
                    continue
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__ and not issubclass(obj, BaseException):
                        classes.append(obj)
                    continue
                if not callable(obj):
                    continue
                name = f"{_short(owner)}.{attr}"
                if name in PER_CALL:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(name, obj)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])
        for cls in classes:
            for attr, obj in list(vars(cls).items()):
                if attr != "__init__" and attr.startswith("_"):
                    continue
                if not callable(obj) or isinstance(obj, (staticmethod, classmethod, type)):
                    continue
                base = f"{_short(cls.__module__)}.{cls.__name__}"
                name = base if attr == "__init__" else f"{base}.{attr}"
                if name in PER_CALL:
                    continue
                self._undo.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(name, obj))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def spans(self) -> list[dict]:
        return [{"name": nm, "start_ns": s, "end_ns": e, "parent": p}
                for nm, s, e, p in zip(self.names, self.start, self.end, self.parent)]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name of duration minus the time covered by children,
    summed over every span of that name."""
    child = [0] * len(spans)
    for sp in spans:
        if sp["parent"] >= 0:
            child[sp["parent"]] += sp["end_ns"] - sp["start_ns"]
    out: dict[str, float] = {}
    for k, sp in enumerate(spans):
        own = sp["end_ns"] - sp["start_ns"] - child[k]
        out[sp["name"]] = out.get(sp["name"], 0.0) + own / 1e9
    return out


class CallCounter:
    """Counts calls of chosen methods, installed on their classes."""

    def __init__(self, targets: dict[str, tuple[type, str]]):
        self.counts = dict.fromkeys(targets, 0)
        self._undo = []
        for key, (cls, attr) in targets.items():
            fn = vars(cls)[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._counting(key, fn))

    def _counting(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def close(self) -> None:
        for cls, attr, fn in reversed(self._undo):
            setattr(cls, attr, fn)


def resident_bytes(obj) -> int:
    """Estimated bytes held by obj: numpy buffers it owns, containers with
    their elements, and objects through their __dict__.  Ints outside the
    small-int cache count once per reference; callables count nothing."""
    seen: set[int] = set()
    total = 0
    stack = [obj]
    while stack:
        o = stack.pop()
        if o is None or isinstance(o, bool) or callable(o) or id(o) in seen:
            continue
        if isinstance(o, int):
            if not -5 <= o <= 256:
                total += sys.getsizeof(o)
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)   # ndarray: includes its buffer when it owns it
        if isinstance(o, np.ndarray):
            if o.base is not None and not o.flags.owndata and id(o.base) not in seen:
                stack.append(o.base)
        elif isinstance(o, (list, tuple)):
            if o and type(o[0]) is int:
                total += sum(sys.getsizeof(x) for x in o
                             if type(x) is int and not -5 <= x <= 256)
            else:
                stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif hasattr(o, "__dict__") and not isinstance(o, type):
            stack.append(vars(o))
    return total
