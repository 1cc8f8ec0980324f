"""Spans around the public functions of ``causet_qft``, installed from outside it.

:meth:`Tracer.install` replaces every public function of every imported
``causet_qft`` module with a wrapper that records a span, including the
copies other modules re-imported (``scattering.xi_matrix``,
``fock.op_matmul``, ``cli.thread_cap``, ...), so a call through any name is
seen.  A span is ``[name, start, end, parent, run]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``run`` identifies the CLI
invocation.  Spans stay in memory until the process reports them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# Per-element helpers on single vectors, group elements and momenta.  The
# causet workload calls them about 2.4 million times per invocation at under
# a microsecond each; a span would cost more than the call and would be
# charged to the layers the per-layer metrics isolate.  Their time stays in
# their callers' self time.
SCALAR_HELPERS = frozenset(
    {
        "causet.precedes",
        "causet.children",
        "causet.parents",
        "causet.in_cone",
        "lattice.norm_sq3",
        "lattice.norm_sq4",
        "lattice.inner3_doubled",
        "lattice.minkowski_doubled",
        "fock.phase",
        "symmetry.apply3",
        "symmetry.apply4",
        "symmetry.multiply",
    }
)

# Methods that are layer boundaries in their own right.
METHODS = (("fock", "FieldOperator", "as_matrix"),)


def _matmul_flops(a: np.ndarray, b: np.ndarray) -> int:
    """Floating-point operations of ``a @ b`` computed from the shapes."""
    per_madd = 8 if np.iscomplexobj(a) or np.iscomplexobj(b) else 2
    return per_madd * a.shape[0] * a.shape[1] * b.shape[1]


# Work counters computed from a call's arguments, recorded as ``<name>.flops``.
METERS = {"util.op_matmul": _matmul_flops}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        meter = METERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if meter is not None:
                key = f"{name}.flops"
                self.counters[key] = self.counters.get(key, 0) + meter(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "causet_qft") -> None:
        """Wrap the package's public functions and :data:`METHODS` under every name.

        Spans nest on one stack, so wrapped functions must run on one thread;
        the package's only thread pool (``symmetry.no_boost_search``) runs a
        private function, which is not wrapped.
        """
        modules = [m for key, m in sorted(sys.modules.items()) if key.startswith(package + ".")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in SCALAR_HELPERS
                ):
                    wrappers[obj] = self.wrap(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        for short, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{package}.{short}"], cls_name)
            setattr(cls, method, self.wrap(f"{short}.{cls_name}.{method}", getattr(cls, method)))


def summarize(spans: list[list], window: tuple[float, float]) -> dict:
    """Inclusive seconds, self seconds and calls per span name, and the unspanned time.

    A span's self time is its duration minus that of its direct children.
    ``unspanned_s`` is the part of ``window`` that no top-level span covers,
    so the self times plus ``unspanned_s`` add up to the window.  A recursive
    function's inclusive time counts nested calls once per level.
    """
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    functions: dict[str, dict] = {}
    covered = 0.0
    for index, (name, start, end, parent, _) in enumerate(spans):
        stats = functions.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        stats["s"] += end - start
        stats["self_s"] += end - start - child_s[index]
        stats["calls"] += 1
        if parent < 0:
            covered += end - start
    return {"functions": functions, "unspanned_s": (window[1] - window[0]) - covered}
