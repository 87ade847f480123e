"""Layer spans and counters recorded from outside the library.

The tracer wraps every public function and method of each matroidkit
layer module, rebinding the module attributes that hold them (including
names imported into other modules and functions held in module-level
dicts and tuples).  While recording, a call into a layer whose caller is
in another layer opens a span; calls inside the same layer are only
counted, because they do not change any layer's self time.  Spans are
kept in memory as ``(name, layer, start, end, parent, op)`` tuples.

Instances of ``Matroid`` built while the tracer is installed get their
rank oracle wrapped too, so oracle evaluations are counted and timed as a
span of the layer that defined the oracle (constructions for uniform,
graphic, linear, table and restriction oracles; contraction for
contractions).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "matroidkit"
LAYERS = (
    "core",
    "constructions",
    "closure",
    "contraction",
    "bases",
    "coloring",
    "compactness",
    "lemmas",
    "files",
    "cli",
)
# Bit and formatting helpers called per subset from every layer.  A span
# per call would cost more than the work it measures; their time counts
# to the calling layer.
UNWRAPPED = {"core.bits", "core.mask_of", "core.canonical", "core.set_literal"}

COUNT_NAMES = (
    "core.rank_calls",
    "core.oracle_evals",
    "core.mask_table_builds",
    "bases.ordered_bases",
    "coloring.candidate_listings",
    "compactness.levels_checked",
    "lemmas.checks",
)


def _mask_table_build(args, kwargs):
    # the table is built on the first call only; later calls return the cache
    return 1 if getattr(args[0], "_mask_table", 1) is None else 0


def _levels_walked(args, kwargs):
    depth = args[2] if len(args) > 2 else kwargs.get("depth", 0)
    return depth + 1


# qualified name -> (counter, increment(args, kwargs) or None for 1 per call)
CALL_COUNTERS = {
    "core.Matroid.rank": ("core.rank_calls", None),
    "core.Matroid.mask_table": ("core.mask_table_builds", _mask_table_build),
    "compactness.extend_coloring": ("compactness.levels_checked", _levels_walked),
    "compactness.restriction_colorings": ("compactness.levels_checked", None),
}
# generator functions whose yields are counted
YIELD_COUNTERS = {
    "bases.ordered_bases": "bases.ordered_bases",
    "coloring.all_canonical_listings": "coloring.candidate_listings",
    "coloring.hall_violator_listings": "coloring.candidate_listings",
}


def _layer_of(module_name: str) -> str | None:
    head, _, tail = module_name.partition(".")
    if head == PACKAGE and tail in LAYERS:
        return tail
    return None


class Tracer:
    """Install wrappers, record spans and counts, restore on uninstall."""

    def __init__(self):
        self.recording = False
        self.op = None
        self.spans: list = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._undo: list = []

    def reset(self):
        self.spans = []
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def paused(self):
        was = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = was

    # --- span bookkeeping ---------------------------------------------

    def _open(self, layer: str):
        """Open a span unless the caller is already in this layer."""
        stack = self._stack
        if stack and stack[-1][1] == layer:
            return None
        idx = len(self.spans)
        self.spans.append(None)
        stack.append((idx, layer))
        return idx, time.perf_counter()

    def _close(self, token, name: str, layer: str):
        end = time.perf_counter()
        idx, start = token
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans[idx] = (name, layer, start, end, parent, self.op)

    # --- wrappers -----------------------------------------------------------

    def _wrap_function(self, fn, layer: str, qname: str):
        tracer = self
        if qname.startswith("lemmas.check_"):
            counter, increment = "lemmas.checks", None
        else:
            counter, increment = CALL_COUNTERS.get(qname, (None, None))

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.calls[layer] += 1
            if counter is not None:
                tracer.counts[counter] += 1 if increment is None else increment(args, kwargs)
            token = tracer._open(layer)
            if token is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(token, qname, layer)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, layer: str, qname: str):
        tracer = self
        counter = YIELD_COUNTERS.get(qname)

        def steps(it):
            # each resumption of the generator is its own span
            while True:
                if not tracer.recording:
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                else:
                    token = tracer._open(layer)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        if token is not None:
                            tracer._close(token, qname, layer)
                    if counter is not None:
                        tracer.counts[counter] += 1
                yield value

        def traced(*args, **kwargs):
            if tracer.recording:
                tracer.calls[layer] += 1
            return steps(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def wrap_oracle(self, oracle):
        """Count and time one instance's rank oracle under its defining layer."""
        layer = _layer_of(getattr(oracle, "__module__", "") or "") or "core"
        name = f"{layer}.oracle"
        tracer = self

        def traced_oracle(subset):
            if not tracer.recording:
                return oracle(subset)
            tracer.counts["core.oracle_evals"] += 1
            token = tracer._open(layer)
            if token is None:
                return oracle(subset)
            try:
                return oracle(subset)
            finally:
                tracer._close(token, name, layer)

        return traced_oracle

    def _wrapper_for(self, fn, layer: str, qname: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, qname)
        return self._wrap_function(fn, layer, qname)

    # --- installation ---------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap every public function and method of the layer modules."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrapped: dict[int, object] = {}
        for name, mod in modules.items():
            layer = _layer_of(name)
            if layer is None:
                continue
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                    continue
                if inspect.isfunction(obj) and f"{layer}.{attr}" not in UNWRAPPED:
                    wrapped[id(obj)] = self._wrapper_for(obj, layer, f"{layer}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(obj, layer)
        for name, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and any(id(v) in wrapped for v in obj.values()):
                    # dispatch tables such as cli._HANDLERS: rebind values in place
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._undo.append((obj, key, value))
                            obj[key] = wrapped[id(value)]
                elif isinstance(obj, tuple) and any(
                    isinstance(t, tuple) and any(id(v) in wrapped for v in t) for t in obj
                ):
                    # tables of (key, function) pairs such as lemmas.BATTERY
                    self._set(mod, attr, tuple(
                        tuple(wrapped.get(id(v), v) for v in t) if isinstance(t, tuple) else t
                        for t in obj
                    ))

    def _wrap_methods(self, cls, layer: str):
        for attr, obj in sorted(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            qname = f"{layer}.{cls.__name__}.{attr}"
            self._set(cls, attr, self._wrapper_for(obj, layer, qname))
        if cls.__name__ == "Matroid" and layer == "core":
            original_init = cls.__dict__["__init__"]
            tracer = self

            def init(obj, n, oracle, *args, **kwargs):
                original_init(obj, n, tracer.wrap_oracle(oracle), *args, **kwargs)

            self._set(cls, "__init__", init)

    def uninstall(self):
        self.recording = False
        for owner, name, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._undo = []

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` are ``(name, layer, start, end, parent, op)`` tuples where
    ``parent`` indexes into the same list (or is None).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, layer, start, end, parent, op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, layer, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if cur_end is None or c_start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c_start, c_end
            else:
                cur_end = max(cur_end, c_end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def layer_self_seconds(spans) -> dict[str, float]:
    totals = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        totals[span[1]] += own
    return totals


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tlayer\tstart\tend\tparent\top\n")
        for idx, (name, layer, start, end, parent, op) in enumerate(spans):
            fh.write(
                f"{idx}\t{name}\t{layer}\t{start:.9f}\t{end:.9f}\t"
                f"{'' if parent is None else parent}\t{'' if op is None else op}\n"
            )
