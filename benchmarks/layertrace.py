"""Per-layer tracing of the `waring` package from outside its code.

Each layer is one module.  `LayerTracer.install` wraps every public function
of each module, and every public method of the classes it defines, and then
rebinds each name in every package module that imported the function, so
`from .solver import build_quotient` in `vsp` and `cli` is traced too.
Dunder methods and properties stay unwrapped: they run per scalar or per term,
and their cost shows in the self time of the callers.  A few wrappers also
count the sizes that drive the cost of a layer (see COUNTS).

Spans live in memory: per wrapped function, the call count, total time and
self time (total minus the time of wrapped calls made inside it).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = (
    "cli", "serialize", "monomials", "polynomial", "cyclotomic",
    "ideals", "groebner", "solver", "linalg", "vsp",
)
COUNTS = (
    "cyclotomic.scalars_created",
    "polynomial.power_terms",
    "solver.trace_dim",
    "solver.trace_calls",
    "solver.trace_phis",
    "groebner.basis_size",
    "linalg.exact_rank_calls",
)


class LayerTracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"waring.{name}") for name in LAYERS}
        self.package = importlib.import_module("waring")
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.stats: dict[str, list[float]] = {}  # "layer.name" -> [calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._phis: set = set()

    # -- patching ----------------------------------------------------------

    def install(self):
        originals = {}
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        for mod in list(self.modules.values()) + [self.package]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._set(mod, name, originals[id(obj)])
        cyclo = self.modules["cyclotomic"].CycloScalar
        self._set(cyclo, "__init__", self._counting_init(cyclo.__init__))

    def uninstall(self):
        for owner, name, old in reversed(self._saved):
            setattr(owner, name, old)
        self._saved.clear()

    def _set(self, owner, name, new):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _wrap_methods(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(label, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self._wrap(label, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, name, self._wrap(label, raw))

    def _counting_init(self, init):
        counts = self.counts

        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            counts["cyclotomic.scalars_created"] += 1
            return init(*args, **kwargs)

        return wrapper

    def _wrap(self, label, fn):
        stats = self.stats.setdefault(label, [0, 0.0, 0.0])
        stack = self._stack
        observe = self._observers().get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- counters ------------------------------------------------------------

    def _observers(self):
        counts = self.counts

        def power_terms(args, result):
            counts["polynomial.power_terms"] += len(result.terms)

        def trace(args, result):
            q = args[0]
            counts["solver.trace_dim"] += q.dim
            counts["solver.trace_calls"] += 1
            key = (str(q.spec), str(q.phi))
            if key not in self._phis:
                self._phis.add(key)
                counts["solver.trace_phis"] += 1

        def basis(args, result):
            counts["groebner.basis_size"] += len(result)

        def rank(args, result):
            counts["linalg.exact_rank_calls"] += 1

        return {
            "polynomial.power_linear_form": power_terms,
            "solver.trace_form_rank": trace,
            "groebner.groebner_basis": basis,
            "linalg.exact_rank": rank,
        }

    def new_command(self):
        """Distinct phi are counted per CLI command, so repeats across commands stay visible."""
        self._phis.clear()
