"""Outside-in tracer for the translation_lab package.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces every
public function of every package module with a timing wrapper, in each module
that binds it (a ``from .operators import compose`` copies the reference, so
``compose`` is rebound in ``operators``, ``gallery``, ``cli`` and the package
namespace alike).  It also wraps a few methods by hand:

* ``multiply``/``invert`` on every group context class, so that internal
  ``self.multiply`` calls and factor arithmetic are counted per group kind;
* ``GroupContext.ball`` and ``SubsetSpec.contains``;
* ``GroupElement.__init__`` and every subset predicate, which are counted but
  not timed, because their bodies are too small to time without swamping them.

A span's self time is its duration minus the time covered by the spans it
called.  Spans are folded into per-name totals in memory as they close (the
workloads make millions of calls, too many to keep one record each) and read
once at the end with ``Tracer.stats``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

PACKAGE = "translation_lab"

# group context ``kind`` -> metric-name suffix
KINDS = {
    "free": "free",
    "free-abelian": "free_abelian",
    "finite": "finite",
    "amalgam": "amalgam",
    "hnn": "hnn",
}

OPERATOR_GROUPS = {
    "build": (
        "zero_operator",
        "identity_operator",
        "generator_operator",
        "track_operator",
        "coset_projection",
        "domain_projection",
    ),
    "algebra": ("compose", "compose_chain", "adjoint", "combine", "subtract", "mask_clipped_rows"),
    "rank": ("rank_of_vectors", "matrix_rank"),
}


def package_modules():
    """The package's modules, keyed by short name (the layer names)."""
    pkg = importlib.import_module(PACKAGE)
    modules = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        modules[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return pkg, modules


class Tracer:
    def __init__(self):
        # name -> [calls, total seconds, self seconds]
        self._spans: dict[str, list] = {}
        self._counts: dict[str, int] = {}
        # child-time accumulators of the open spans; the bottom entry is the root
        self._stack: list[float] = [0.0]

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name: str, fn, on_result=None):
        stat = self._spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stack[-1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - children
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _adder(self, name: str, measure):
        counts = self._counts
        counts.setdefault(name, 0)

        def add(result):
            counts[name] += measure(result)

        return add

    def _counted(self, name: str, fn):
        counts = self._counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Patch the imported package in place; there is no uninstall."""
        pkg, modules = package_modules()
        namespaces = [pkg, *modules.values()]
        hooks = {
            "operators.make_window": self._adder("operators.window.points", len),
            "operators.guarded_equal": self._adder("operators.rows_compared", lambda m: m.rows_compared),
            "reports.dumps": self._adder("reports.bytes", lambda text: len(text.encode())),
        }
        clipped = self._adder("operators.clipped_rows", lambda op: len(op.clipped_rows))
        for fn_name in OPERATOR_GROUPS["build"]:
            hooks[f"operators.{fn_name}"] = clipped

        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                span = f"{layer}.{name}"
                wrapper = self._timed(span, obj, hooks.get(span))
                for ns in namespaces:
                    for bound_name, bound in list(vars(ns).items()):
                        if bound is obj:
                            setattr(ns, bound_name, wrapper)

        groups = modules["groups"]
        for cls in _subclasses(groups.GroupContext):
            own = vars(cls)
            if "multiply" in own:
                cls.multiply = self._timed(f"groups.multiply.{cls.kind}", own["multiply"])
            if "invert" in own:
                cls.invert = self._timed(f"groups.invert.{cls.kind}", own["invert"])
            if "ball" in own:
                cls.ball = self._timed("groups.ball", own["ball"], self._adder("groups.ball.elements", len))
        groups.GroupElement.__init__ = self._counted("groups.element_new", groups.GroupElement.__init__)

        subset_spec = modules["subsets"].SubsetSpec
        subset_spec.contains = self._timed("subsets.contains", subset_spec.contains)
        spec_init = subset_spec.__init__
        count_predicate = functools.partial(self._counted, "subsets.predicate")

        @functools.wraps(spec_init)
        def init_with_counted_predicate(spec, *args, **kwargs):
            spec_init(spec, *args, **kwargs)
            object.__setattr__(spec, "predicate", count_predicate(spec.predicate))

        subset_spec.__init__ = init_with_counted_predicate

    # -- results ----------------------------------------------------------------

    def stats(self) -> dict:
        """Per-span ``{"calls", "total_s", "self_s"}`` plus the bare counters."""
        return {
            "spans": {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in self._spans.items()
                if calls
            },
            "counts": dict(self._counts),
        }


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def layer_metrics(stats: dict) -> dict:
    """Fold span totals into ``{name: (value, unit)}``, the per-layer metrics of BENCHMARK.json.

    Metrics of layers that did not run read 0, so every traced run reports
    every name.
    """
    spans = stats["spans"]
    counts = stats["counts"]

    def calls(*names):
        return sum(spans[n]["calls"] for n in names if n in spans)

    def self_s(*names):
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def module_self(layer):
        return sum(s["self_s"] for n, s in spans.items() if n.split(".", 1)[0] == layer)

    def per_call_us(seconds, n):
        return seconds / n * 1e6 if n else 0.0

    out = {}
    for kind, suffix in KINDS.items():
        name = f"groups.multiply.{kind}"
        out[f"groups.multiply.calls.{suffix}"] = (calls(name), "count")
        out[f"groups.multiply.self_s.{suffix}"] = (self_s(name), "s")
        out[f"groups.multiply.us_per_call.{suffix}"] = (per_call_us(self_s(name), calls(name)), "us")
    inverts = [n for n in spans if n.startswith("groups.invert.")]
    out["groups.invert.calls"] = (calls(*inverts), "count")
    out["groups.invert.self_s"] = (self_s(*inverts), "s")
    out["groups.ball.elements"] = (counts.get("groups.ball.elements", 0), "count")
    out["groups.ball.self_s"] = (self_s("groups.ball"), "s")
    out["groups.element_new.calls"] = (counts.get("groups.element_new", 0), "count")

    contains = calls("subsets.contains")
    predicate = counts.get("subsets.predicate", 0)
    out["subsets.contains.calls"] = (contains, "count")
    out["subsets.contains.self_s"] = (self_s("subsets.contains"), "s")
    out["subsets.contains.us_per_call"] = (per_call_us(self_s("subsets.contains"), contains), "us")
    out["subsets.predicate.calls"] = (predicate, "count")
    out["subsets.cache_hit_ratio"] = ((contains - predicate) / contains if contains else 0.0, "ratio")

    out["operators.window.points"] = (counts.get("operators.window.points", 0), "count")
    out["operators.window.self_s"] = (self_s("operators.make_window"), "s")
    for group, names in OPERATOR_GROUPS.items():
        out[f"operators.{group}.self_s"] = (self_s(*(f"operators.{n}" for n in names)), "s")
    out["operators.guarded_equal.self_s"] = (self_s("operators.guarded_equal"), "s")
    out["operators.rows_compared"] = (counts.get("operators.rows_compared", 0), "count")
    out["operators.clipped_rows"] = (counts.get("operators.clipped_rows", 0), "count")

    for layer in ("geometry", "universal", "gallery", "tracks", "group_algebra"):
        out[f"{layer}.self_s"] = (module_self(layer), "s")
    out["configs.load.self_s"] = (module_self("configs"), "s")
    out["reports.dumps.self_s"] = (module_self("reports"), "s")
    out["reports.bytes"] = (counts.get("reports.bytes", 0), "count")
    out["cli.dispatch.self_s"] = (module_self("cli"), "s")
    return out
