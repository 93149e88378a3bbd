"""Spans around calls into lrc's layers, recorded from outside the package.

``Tracer.installed()`` replaces each traced function by a timing wrapper in
every lrc module that holds it (the modules import names with
``from .x import y``, so ``embed_operator`` lives in both ``lrc.channels``
and ``lrc.circuits``), and restores the originals on exit.  Spans stay in
memory as parallel lists, each with the index of its parent span, and a
layer's self time is its span minus the spans directly inside it.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict

import lrc
import lrc.channels
import lrc.circuits
import lrc.cli
import lrc.codes
import lrc.compiler
import lrc.verify
import lrc.weyl
from lrc.verify import CHECK_NAMES

MODULES = (lrc, lrc.weyl, lrc.codes, lrc.channels, lrc.circuits, lrc.compiler, lrc.verify, lrc.cli)

#: Public functions timed per layer; the weyl entries are WeylOperator methods.
FUNCTIONS = {
    "weyl": ("mul", "embed", "dagger", "conjugate_matrix", "to_matrix"),
    "codes": (
        "enumerate_stabilizers",
        "logical_weyls",
        "logical_basis_state",
        "encoding_isometry",
        "projector_for_syndrome",
        "syndrome_of",
    ),
    "channels": (
        "compose",
        "natural_rep",
        "average",
        "lift_local_superop",
        "weyl_transfer_matrix",
        "embed_operator",
        "reset_sites",
        "apply_local_channel",
    ),
    "circuits": ("evaluate", "validate", "expand_gadget"),
    "compiler": ("instantiate", "realize_gadget", "gadget_components"),
    "verify": ("averaged_extraction_channels", "instance_channel", "coherence_metrics"),
    "cli": ("main", "reports_to_json"),
}

#: Register dimensions of the instance workloads, reported per dimension.
EVALUATE_DIMS = (8, 16, 27, 32, 81, 128, 256)

CACHED_MODULES = ("weyl", "codes", "channels", "circuits")


def lru_caches(module_names=None):
    """Every functools.lru_cache function defined in the lrc modules."""
    out = []
    for mod in MODULES[1:]:
        short = mod.__name__.split(".")[-1]
        if module_names is not None and short not in module_names:
            continue
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out.append((short, obj))
    return out


def clear_caches():
    for _, fn in lru_caches():
        fn.cache_clear()


def metric_units() -> dict:
    """Every per-layer metric the tracer produces, name -> unit."""
    units = {}
    for layer, names in FUNCTIONS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units["channels.compose.flops"] = "flop"
    units["channels.embed_operator.bytes"] = "B"
    for dim in EVALUATE_DIMS:
        units[f"circuits.evaluate.ms.D{dim}"] = "ms"
    units["circuits.branches.final_max"] = "count"
    units["circuits.branches.total"] = "count"
    units["circuits.inexact_results"] = "count"
    units["compiler.instances"] = "count"
    for check in CHECK_NAMES:
        units[f"verify.{check}.s"] = "s"
    for module in CACHED_MODULES:
        for stat in ("hits", "misses", "size"):
            units[f"{module}.cache.{stat}"] = "count"
    return units


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.counters = defaultdict(float)
        self.evaluate_ms = defaultdict(list)

    # -- span recording ----------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Timing wrapper; after(args, kwargs, result, seconds) adds counters."""
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = end = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, end - starts[index])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name, fn):
        """Span per next() of the generator fn returns."""
        step = self.wrap(name, next)

        def wrapper(*args, **kwargs):
            stream = fn(*args, **kwargs)
            while True:
                try:
                    item = step(stream)
                except StopIteration:
                    return
                self.counters["compiler.instances"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters -------------------------------------------------------------------

    def _after_compose(self, args, kwargs, result, seconds):
        self.counters["channels.compose.flops"] += 8 * args[0].dim ** 6

    def _after_embed_operator(self, args, kwargs, result, seconds):
        self.counters["channels.embed_operator.bytes"] += result.nbytes

    def _after_evaluate(self, args, kwargs, result, seconds):
        self.evaluate_ms[args[0].dim].append(seconds * 1e3)
        branches = len(result.branches)
        c = self.counters
        c["circuits.branches.final_max"] = max(c["circuits.branches.final_max"], branches)
        c["circuits.branches.total"] += branches
        c["circuits.inexact_results"] += not result.exact

    def _after_run_check(self, args, kwargs, result, seconds):
        name = args[0] if args else kwargs["name"]
        self.counters[f"verify.{name}.s"] += seconds

    # -- patching ---------------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name in every lrc module; restore on exit."""
        hooks = {
            "channels.compose": self._after_compose,
            "channels.embed_operator": self._after_embed_operator,
            "circuits.evaluate": self._after_evaluate,
            "verify.run_check": self._after_run_check,
        }
        saved = []
        try:
            weyl_cls = lrc.weyl.WeylOperator
            for name in FUNCTIONS["weyl"]:
                original = vars(weyl_cls)[name]
                wrapper = self.wrap(f"weyl.{name}", original)
                for attr, value in list(vars(weyl_cls).items()):
                    if value is original:
                        saved.append((weyl_cls, attr, original))
                        setattr(weyl_cls, attr, wrapper)
            targets = [(layer, name) for layer, names in FUNCTIONS.items() if layer != "weyl" for name in names]
            targets.append(("verify", "run_check"))
            for layer, name in targets:
                metric = f"{layer}.{name}"
                original = getattr(sys.modules[f"lrc.{layer}"], name)
                if name == "instantiate":
                    wrapper = self.wrap_generator(metric, original)
                else:
                    wrapper = self.wrap(metric, original, hooks.get(metric))
                for mod in MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = {name: 0.0 for name in metric_units()}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0.0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (
                self.ends[i] - self.starts[i] - child[i]
            )
        out.update(self.counters)
        for dim, samples in self.evaluate_ms.items():
            out[f"circuits.evaluate.ms.D{dim}"] = statistics.median(samples)
        for module, fn in lru_caches(CACHED_MODULES):
            info = fn.cache_info()
            out[f"{module}.cache.hits"] += info.hits
            out[f"{module}.cache.misses"] += info.misses
            out[f"{module}.cache.size"] += info.currsize
        return out

    def write(self, path):
        """Spans as [name, start_s, end_s, parent_index] rows."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [n, round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        path.write_text(json.dumps({"spans": rows}, separators=(",", ":")))
