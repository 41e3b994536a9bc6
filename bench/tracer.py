"""Benchmark-side tracing of folnerlab's layer boundaries.

The tracer replaces public functions of the library with thin wrappers,
both in the module that defines them and under every name another folnerlab
module imported them as (``from .fusion import boundary_decomposition`` in
``reldim`` binds a second name), so internal calls are caught too. Nothing in
the library itself changes; ``uninstall`` puts every original back.

Two kinds of wrapper:

* a span records name, start, end, thread, parent span and task index. Each
  thread keeps its own span stack. A span that opens on a thread with an
  empty stack while ``util.map_ordered`` is running is parented to that
  ``map_ordered`` span, so pool workers nest under the pool.
* a counter only counts calls (for the per-label hot paths where timing
  every call would swamp the measurement). Counts are kept per thread and
  summed at the end, so concurrent increments are never lost.

A span's self time is its duration minus the part of its interval covered
by the union of its children's intervals; children that overlap in time on
different threads are therefore not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from time import perf_counter

# (module, attribute) of each timed public function; "Class.method" names a
# method. The span name is "<module>.<short name>".
SPANS = (
    ("fusion", "ball"),
    ("fusion", "boundary_decomposition"),
    ("fusion", "weighted_size"),
    ("folner", "folner_search"),
    ("folner", "isoperimetric_profile"),
    ("folner", "verify_certificate"),
    ("util", "map_ordered"),
    ("polalg", "restricted_mult_matrix"),
    ("polalg", "full_mult_matrix"),
    ("polalg", "RestrictedOperator.elements_from_coords"),
    ("exactla", "rank_nullity"),
    ("exactla", "nullspace_basis"),
    ("reldim", "kernel_dim_estimate"),
    ("reldim", "exact_mvn_dim_finite"),
    ("solvers", "ore_pair"),
    ("tower", "tower_kernel_dims"),
    ("tower", "QuotientMap.push_matrix"),
    ("cli", "main"),
    ("serialize", "canonical_dumps"),
)

# Counted, not timed: called once per label or term in the inner loops.
COUNTERS = (
    ("fusion", "FusionRing.check_label"),
    ("fusion", "*.product"),          # every ring class that defines product
    ("polalg", "PolAlgebra.multiply"),
)


class Tracer:
    """Spans and counters for one traced batch, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, thread, start, end, parent, task)
        self.task: int | None = None   # index of the task being run
        self.facts: dict[int, dict] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts: list[dict] = []
        self._lock = threading.Lock()
        self._adopt: int | None = None  # open map_ordered span, for pool roots
        self._patches: list[tuple] = []

    # -- per-thread state ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> dict:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def counts(self) -> dict:
        """Counters summed over threads; "max" counters take the maximum."""
        total: dict[str, int] = {}
        for counts in self._thread_counts:
            for name, n in counts.items():
                if name in _MAXIMA:
                    total[name] = max(total.get(name, 0), n)
                else:
                    total[name] = total.get(name, 0) + n
        return total

    def task_facts(self) -> dict:
        return self.facts.setdefault(self.task, {})

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn, on_return):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._adopt
            sid = next(tracer._ids)
            adopting = name == "util.map_ordered"
            if adopting:
                outer, tracer._adopt = tracer._adopt, sid
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if adopting:
                    tracer._adopt = outer
                tracer.spans.append((sid, name, threading.get_ident(), start, end,
                                     parent, tracer.task))
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer._counts()
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, orig, new):
        """Rebind every folnerlab module-level name that refers to ``orig``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "folnerlab" or modname.startswith("folnerlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, attr, new)

    def install(self, package) -> None:
        import importlib

        def module(modname):
            try:
                return importlib.import_module(f"{package.__name__}.{modname}")
            except ImportError:
                return None

        # a layer function that a later version removed is simply not traced
        # and reports zero calls
        for modname, attr in SPANS:
            mod = module(modname)
            name = f"{modname}.{attr.rsplit('.', 1)[-1]}"
            on_return = _FACTS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    self._patch(cls, meth, self._span_wrapper(name, cls.__dict__[meth], on_return))
            elif callable(getattr(mod, attr, None)):
                orig = getattr(mod, attr)
                self._patch_function(orig, self._span_wrapper(name, orig, on_return))
        for modname, attr in COUNTERS:
            mod = module(modname)
            if mod is None:
                continue
            cls_name, meth = attr.split(".")
            name = f"{modname}.{meth}"
            if cls_name == "*":
                owners = [obj for obj in vars(mod).values()
                          if isinstance(obj, type) and obj.__module__ == mod.__name__]
            else:
                owners = [getattr(mod, cls_name, None)]
            owners = [cls for cls in owners if cls is not None and meth in cls.__dict__]
            for cls in owners:
                self._patch(cls, meth, self._counter_wrapper(name, cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time of every span: duration minus the union of its children."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, _, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            out[sid] = (end - start) - covered
        return out


# -- facts read from arguments and results, outside the library ------------------

def _operator_facts(tracer, args, op):
    rows, cols = op.matrix.shape
    nnz = len(op.matrix.entries) if op.matrix.entries is not None \
        else int((op.matrix.array != 0).sum())
    tracer.task_facts().setdefault("operators", []).append([rows, cols, nnz])
    counts = tracer._counts()
    counts["polalg.operator_nnz"] = counts.get("polalg.operator_nnz", 0) + nnz
    counts["polalg.operator_cells"] = counts.get("polalg.operator_cells", 0) + rows * cols


def _rank_facts(tracer, args, result):
    rows, cols = args[0].shape
    tracer.task_facts().setdefault("ranks", []).append([rows, cols, result[1]])
    counts = tracer._counts()
    counts["exactla.max_cols"] = max(counts.get("exactla.max_cols", 0), cols)


def _kernel_facts(tracer, args, basis):
    rows, cols = args[0].shape
    tracer.task_facts().setdefault("kernels", []).append([rows, cols, len(basis)])
    counts = tracer._counts()
    counts["exactla.kernel_vectors"] = counts.get("exactla.kernel_vectors", 0) + len(basis)


def _output_facts(tracer, args, text):
    counts = tracer._counts()
    counts["serialize.output_bytes"] = counts.get("serialize.output_bytes", 0) \
        + len(text.encode())


_MAXIMA = {"exactla.max_cols"}

_FACTS = {
    "polalg.restricted_mult_matrix": _operator_facts,
    "exactla.rank_nullity": _rank_facts,
    "exactla.nullspace_basis": _kernel_facts,
    "serialize.canonical_dumps": _output_facts,
}


def layer_metrics(tracer: Tracer) -> dict:
    """Calls and self time per span name, plus the counters, of one batch."""
    selfs = tracer.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for sid, name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[sid]
    return {"calls": calls, "self_s": self_s, "counts": tracer.counts()}
