"""Outside-in tracer for the logvf package.

The tracer wraps the public functions and a few public methods of each
layer module, rebinds every name in every ``logvf`` module that refers to a
wrapped function (``report``, ``cli``, ``normalform``, ``cech`` and
``liealg`` import with ``from .x import y``), and puts the originals back
on ``restore``.  Spans live in memory as ``[name, start, end, parent,
request]`` lists and are written out at the end of a run.

Each layer is a module; a span's layer is the first component of its name.
``poly`` is counted but not timed: its calls are too many and too short
for a span each, so its time shows in the self time of its callers, as
does that of ``orderings``, which is not wrapped at all.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

PACKAGE = "logvf"

# modules whose public functions get a span each
SPAN_MODULES = ("report", "cli", "derlog", "standard_bases", "normalform",
                "liealg", "cech", "linalg", "vfield")

# public methods that get a span: (module, class, method)
SPAN_METHODS = (
    ("normalform", "CoordChange", "make"),
    ("normalform", "CoordChange", "then"),
    ("vfield", "VectorField", "apply"),
    ("vfield", "VectorField", "bracket"),
)


def _rref_cells(args, kwargs, result) -> int:
    matrix = args[0] if args else kwargs["A"]
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _box_columns(signature):
    def columns(args, kwargs, result) -> int:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        basis = bound.arguments["basis"]
        return bound.arguments["bound"] ** len(basis[0].vars) if basis else 0
    return columns


def _terms_out(args, kwargs, result) -> int:
    return len(result.terms) if result is not NotImplemented else 0


Work = Callable[[tuple, dict, object], int]


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.request_id: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------------

    def span(self, name: str, fn: Callable,
             work: Optional[Tuple[str, Work]] = None) -> Callable:
        """fn wrapped in a span named `name`, counting `name.calls`."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls_key] += 1
            record = [name, clock(), None,
                      stack[-1] if stack else None, self.request_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if work is not None:
                counts[work[0]] += work[1](args, kwargs, result)
            return result

        return traced

    def counted(self, calls_key: str, fn: Callable,
                work: Optional[Tuple[str, Work]] = None) -> Callable:
        """fn wrapped to count calls (and work) without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def count(*args, **kwargs):
            counts[calls_key] += 1
            result = fn(*args, **kwargs)
            if work is not None:
                counts[work[0]] += work[1](args, kwargs, result)
            return result

        return count

    # -- installing --------------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of the imported package and rebind every name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        replace: Dict[int, Callable] = {}
        for layer in SPAN_MODULES:
            module = modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module):
                work = None
                if (layer, name) == ("linalg", "rref"):
                    work = ("linalg.rref.cells", _rref_cells)
                elif (layer, name) == ("cech", "d1_kernel_search"):
                    work = ("cech.box_columns",
                            _box_columns(inspect.signature(fn)))
                replace[id(fn)] = self.span(f"{layer}.{name}", fn, work)
        try:
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    wrapper = replace.get(id(value))
                    if wrapper is not None:
                        self._patch(module, attr, wrapper)
            for layer, cls_name, meth in SPAN_METHODS:
                cls = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
                self._wrap_method(cls, meth, functools.partial(
                    self.span, f"{layer}.{cls_name}.{meth}"))
            poly = modules[f"{PACKAGE}.poly"].Polynomial
            self._wrap_method(poly, "substitute", functools.partial(
                self.counted, "poly.substitute.calls"))
            for meth in ("__mul__", "__rmul__"):
                self._wrap_method(poly, meth, lambda fn: self.counted(
                    "poly.mul.calls", fn, ("poly.mul.terms_out", _terms_out)))
        except BaseException:
            self.restore()
            raise

    def _wrap_method(self, cls, meth: str, make: Callable) -> None:
        original = vars(cls)[meth]
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        self._patch(cls, meth, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- requests ----------------------------------------------------------------

    def mark(self) -> Tuple[int, Counter]:
        return len(self.spans), self.counts.copy()

    def rollback(self, mark: Tuple[int, Counter]) -> None:
        """Drop the spans and counts recorded since `mark`."""
        length, counts = mark
        del self.spans[length:]
        self.counts.clear()
        self.counts.update(counts)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counts": dict(sorted(self.counts.items()))}, fh)
            fh.write("\n")
            for record in self.spans:
                json.dump(record, fh)
                fh.write("\n")


def package_modules() -> Dict[str, object]:
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def public_functions(module) -> Iterable[Tuple[str, Callable]]:
    for name, value in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield name, value


# -- self time ---------------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _rid in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, _rid) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children[idx]
                   if min(e, end) > max(s, start)]
        out.append((end - start) - _covered(clipped))
    return out


def layer_self_times(spans: List[list],
                     scale: Optional[Dict[int, float]] = None
                     ) -> Dict[str, float]:
    """Self time per layer; `scale` maps a request id to the factor its
    spans' times are multiplied by (see hostspeed.py)."""
    scale = scale or {}
    totals: Dict[str, float] = defaultdict(float)
    for record, own in zip(spans, self_times(spans)):
        totals[record[0].split(".", 1)[0]] += own * scale.get(record[4], 1.0)
    return dict(totals)
