"""Layer spans recorded from outside the program.

install() replaces every public function of each hkpell layer module, in
every hkpell namespace that binds it, by a wrapper that records a span
(name, start, end, parent span, item id).  Calls between layers inside the
package therefore land in the trace too.  The public methods DiscGroup.qbar
and DiscGroup.elements are wrapped as lattice spans; HeegnerKey constructions
are counted.  A span's self time is its duration minus the time its child
spans cover.

Spans live in flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

LAYERS = ("arith", "pell", "lattice", "rrinv", "cones", "autgroups", "periods", "cli")
UNIT = "pell.fundamental_solution"


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            yield name, obj


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _caches(mod):
    """The lru_cache functions bound in mod, seen through any tracing wrapper."""
    for name, obj in vars(mod).items():
        while not hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__"):
            obj = obj.__wrapped__
        if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == mod.__name__:
            yield name, obj


def cached_entries() -> int:
    """Entries held by the package's lru_caches and by mutable default
    arguments used as caches (such as lattice._det_cached)."""
    held = 0
    for layer in LAYERS[:-1]:  # not cli: importing it would change the process
        mod = importlib.import_module(f"hkpell.{layer}")
        held += sum(fn.cache_info().currsize for _, fn in _caches(mod))
        for obj in vars(mod).values():
            defaults = getattr(obj, "__defaults__", None) or ()
            held += sum(len(d) for d in defaults if isinstance(d, (dict, list, set)))
    return held


def cache_counts() -> dict:
    """Hits and misses of the unit cache (0 if the unit is not cached), and
    entries held by pell's lru_caches."""
    caches = dict(_caches(importlib.import_module("hkpell.pell")))
    unit = caches.get("fundamental_solution")
    info = unit.cache_info() if unit else None
    return {"pell.unit.hits": info.hits if info else 0,
            "pell.unit.misses": info.misses if info else 0,
            "pell.cache_entries": sum(fn.cache_info().currsize for fn in caches.values())}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {}
        self.current_item = [-1]
        self._stack = [-1]

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, on_miss=None):
        nid = self._name_id(name)
        stack, cur = self._stack, self.current_item
        names, starts, ends, parents, items = (
            self.name, self.start, self.end, self.parent, self.item)
        clock = time.perf_counter
        # on_miss sees every computed result: cache misses, or every call of
        # a function without a cache
        info = getattr(fn, "cache_info", None) if on_miss else None

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            items.append(cur[0])
            ends.append(0.0)
            stack.append(idx)
            misses = info().misses if info else 0
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_miss and (info is None or info().misses != misses):
                on_miss(result)
            return result

        return functools.wraps(fn)(traced)

    def _count_unit_bits(self, unit) -> None:
        self.counts["pell.unit.bits"] += unit.a.bit_length()

    def install(self) -> None:
        """Wrap the public layer functions in every hkpell namespace, for the
        rest of this process's life."""
        mods = {layer: importlib.import_module(f"hkpell.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for name, fn in _public_functions(mod):
                span = f"{layer}.{name}"
                hook = self._count_unit_bits if span == UNIT else None
                wrapped[id(fn)] = self.wrap(span, fn, hook)
        for mod in [importlib.import_module("hkpell"), *mods.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
        disc = mods["lattice"].DiscGroup
        for meth in ("qbar", "elements"):
            setattr(disc, meth, self.wrap(f"lattice.{meth}", getattr(disc, meth)))
        key_cls = mods["periods"].HeegnerKey
        init, counts = key_cls.__init__, self.counts

        def counted_init(obj, *args, **kwargs):
            counts["periods.keys"] += 1
            init(obj, *args, **kwargs)

        setattr(key_cls, "__init__", counted_init)

    # -- spans from another process ----------------------------------------

    def export(self) -> dict:
        return {"names": self.names, "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "counts": dict(self.counts)}

    def absorb(self, data: dict, item: int) -> None:
        """Append spans exported by a child process, tagged with `item`."""
        base = len(self.start)
        ids = [self._name_id(n) for n in data["names"]]
        self.name.extend(ids[i] for i in data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.item.extend([item] * len(data["name"]))
        self.counts.update(data["counts"])

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self seconds."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += own[i]
        return {"calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(self.counts), "spans": n}

    def write(self, path: str) -> None:
        """Spans as gzip'd tab-separated lines: name start end parent item."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\titem\n")
            for i in range(len(self.start)):
                f.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                        f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.item[i]}\n")
