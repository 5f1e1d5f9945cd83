"""Layer tracing for hasse5 from outside the package.

The tracer replaces selected public functions and methods of ``hasse5``
modules with wrappers that record spans or counts.  Nothing under ``src/``
changes: the wrappers are installed into the already-imported modules, in
every ``hasse5.*`` namespace that holds the original function object, so that
calls through a ``from .ffactor import factor_ff`` binding are traced too.

Spans are aggregated in memory while the sweep runs; ``Tracer.report()``
returns the aggregate once at the end.

Metric naming is ``<module>.<qualname>.<stat>`` (for example
``modpoly.divmod_.self_s``); the stats are

  calls     number of calls (every call, recursive ones included)
  total_s   inclusive wall time, counted once per outermost call
  self_s    wall time minus the time of traced callees
  p50_s/p90_s  per-call wall time percentiles (per-prime entry points only)
"""

from __future__ import annotations

import importlib
import itertools
import sys
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "hasse5"
SPAN, COUNT, ENTRY = "span", "count", "entry"

# (module, qualname, kind).  SPAN: timed; ENTRY: timed with per-call
# durations kept for percentiles; COUNT: hot scalar methods, counted only.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cli", "main", SPAN),
    ("cli", "Cache.load", SPAN),
    ("modpoly", "divmod_", SPAN),
    ("modpoly", "mul", SPAN),
    ("modpoly", "pow_mod", SPAN),
    ("modpoly", "gcd", SPAN),
    ("modpoly", "eval_at", SPAN),
    ("ffactor", "factor_ff", SPAN),
    ("ffactor", "squarefree_decompose", SPAN),
    ("ffactor", "distinct_degree", SPAN),
    ("ffactor", "equal_degree", SPAN),
    ("ffactor", "roots_in", SPAN),
    ("hasse", "build_hasse", SPAN),
    ("hasse", "build_ss", SPAN),
    ("classno", "h5l", SPAN),
    ("classno", "h_minus_p", SPAN),
    ("census", "census", ENTRY),
    ("modeq", "verify_class_equation", ENTRY),
    ("modeq", "build_k5p", SPAN),
    ("modeq", "phi5_xp_x", SPAN),
    ("modeq", "cofactor_resultant", SPAN),
    ("fp", "make_extension", SPAN),
    ("fricke", "supersingular_j_fp2", SPAN),
    ("fricke", "build_ss5star", SPAN),
    ("fricke", "verify_fricke", ENTRY),
    ("poly", "resultant", SPAN),
    ("poly", "det_bareiss", SPAN),
    ("icosa", "icosa_resultant", SPAN),
    ("icosa", "norm_to_Q", SPAN),
    ("icosa", "equality_ledger", SPAN),
    ("fp", "FqElem.__mul__", COUNT),
    ("fp", "ExtField._reduce", COUNT),
    ("poly", "Poly.__mul__", COUNT),
    ("numfield", "CycNum.__mul__", COUNT),
)

# Cantor-Zassenhaus random draws: every ops class in ffactor that has one.
DRAW_METHOD = "rand_nonconst"

_NP_HEADROOM = 2**62  # the int64 bound modpoly's numpy paths are gated on


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    depth: int = 0
    durations: list[float] | None = None
    extra: dict[str, float] = field(default_factory=dict)


def _divmod_hook(stat: Stat, args) -> None:
    """Computed cost of schoolbook division and whether the numpy path runs."""
    f, g, p = args[0], args[1], args[2]
    nf, ng = len(f), len(g)
    if ng and nf >= ng:
        stat.extra["coeff_ops"] = stat.extra.get("coeff_ops", 0) + (nf - ng + 1) * ng
        if nf > 64 and ng * (p - 1) ** 2 < _NP_HEADROOM:
            stat.extra["np_calls"] = stat.extra.get("np_calls", 0) + 1


def _mul_hook(stat: Stat, args) -> None:
    stat.extra["coeff_ops"] = stat.extra.get("coeff_ops", 0) + len(args[0]) * len(args[1])


def _equal_degree_hook(stat: Stat, args) -> None:
    # equal_degree(f, d, ...) performs exactly one successful split unless
    # f is already of degree d.
    if len(args[0]) - 1 != args[1]:
        stat.extra["splits"] = stat.extra.get("splits", 0) + 1


HOOKS = {
    "modpoly.divmod_": _divmod_hook,
    "modpoly.mul": _mul_hook,
    "ffactor.equal_degree": _equal_degree_hook,
}


class Tracer:
    """Installs the wrappers and aggregates what they record."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str, str], float] = {}
        self.counters: dict[str, itertools.count] = {}
        self.cache_hits = 0
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._names: list[str] = []
        self._child_time: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    @staticmethod
    def _modules() -> list:
        return [m for n, m in sorted(sys.modules.items()) if m is not None and n.startswith(PACKAGE + ".")]

    def install(self) -> None:
        for mod_name, _, _ in TARGETS:
            try:
                importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                pass
        modules = self._modules()
        for mod_name, qualname, kind in TARGETS:
            name = f"{mod_name}.{qualname}"
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner, attr = self._resolve(module, qualname)
            if owner is None:
                self.missing.append(name)
                continue
            original = owner.__dict__[attr]
            wrapper = self._counter(name, original) if kind == COUNT else self._span(name, original, kind)
            if isinstance(owner, type):
                # a class: rebind every alias of the method (e.g. __rmul__ = __mul__)
                self._rebind(owner, original, wrapper)
            else:
                for m in modules:
                    self._rebind(m, original, wrapper)
            self.installed.append(name)
        self._install_draw_counter()

    def _rebind(self, namespace, original, wrapper) -> None:
        for key, value in list(vars(namespace).items()):
            if value is original:
                setattr(namespace, key, wrapper)
                self._undo.append((namespace, key, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._undo:
            namespace, key, original = self._undo.pop()
            setattr(namespace, key, original)

    @staticmethod
    def _resolve(module, qualname: str):
        if module is None:
            return None, None
        *path, attr = qualname.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if attr not in getattr(owner, "__dict__", {}):
            return None, None
        return owner, attr

    def _install_draw_counter(self) -> None:
        counter = itertools.count()
        self.counters["ffactor.draws"] = counter
        ffactor = sys.modules.get(f"{PACKAGE}.ffactor")
        if ffactor is None:
            return
        for obj in list(vars(ffactor).values()):
            if isinstance(obj, type) and DRAW_METHOD in obj.__dict__:
                method = obj.__dict__[DRAW_METHOD]
                self._rebind(obj, method, self._wrap_count(method, counter))

    # -- wrappers ----------------------------------------------------------

    @staticmethod
    def _wrap_count(original, counter):
        def counted(*args, **kwargs):
            next(counter)
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    def _counter(self, name: str, original):
        counter = itertools.count()
        self.counters[name] = counter
        return self._wrap_count(original, counter)

    def _span(self, name: str, original, kind: str):
        stat = self.stats.setdefault(name, Stat(durations=[] if kind == ENTRY else None))
        hook = HOOKS.get(name)
        names, child_time, edges = self._names, self._child_time, self.edges
        is_cache_load = name == "cli.Cache.load"
        tracer = self

        def traced(*args, **kwargs):
            if hook is not None:
                try:
                    hook(stat, args)
                except (TypeError, IndexError):
                    pass
            parent = names[-1] if names else None
            names.append(name)
            child_time.append(0.0)
            stat.depth += 1
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat.depth -= 1
                names.pop()
                stat.calls += 1
                stat.self_s += dt - child_time.pop()
                if stat.depth == 0:
                    stat.total_s += dt
                if stat.durations is not None:
                    stat.durations.append(dt)
                if child_time:
                    child_time[-1] += dt
                if parent is not None:
                    key = (parent, name)
                    edges[key] = edges.get(key, 0.0) + dt
            if is_cache_load and result is not None:
                tracer.cache_hits += 1
            return result

        traced.__wrapped__ = original
        return traced

    # -- results -----------------------------------------------------------

    def report(self) -> dict:
        """The aggregate as plain JSON-ready data."""
        spans = {}
        for name, s in self.stats.items():
            row = {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            row.update(s.extra)
            if s.durations is not None:
                row["durations"] = s.durations
            spans[name] = row
        counts = {}
        for name, counter in self.counters.items():
            # itertools.count yields the number of increments taken so far
            counts[name] = next(counter)
        return {
            "spans": spans,
            "counts": counts,
            "edges": [[p, c, t] for (p, c), t in sorted(self.edges.items())],
            "cache_hits": self.cache_hits,
            "installed": self.installed,
            "missing": self.missing,
        }
