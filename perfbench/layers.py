"""Per-layer tracing from outside the library.

The tracer replaces selected public functions and hot operators of the
`quiddity` package with timing wrappers while a traced pass runs, then
restores the originals.  A function is patched in every module that
bound it by name (for example `quiddity.reducibility.is_quiddity` and
`quiddity.classify.is_quiddity` are separate bindings of one function),
so calls are seen whichever module makes them.

Every traced call is a span on one call stack: its parent is the frame
below it, and its self time is its duration minus the time covered by
its child spans.  Ordinary functions also run an observer on exit that
derives counters such as `embed.bits` from the arguments and result.
The hot operators (`Mat2.__mul__`, `FieldElement.__mul__`,
`QPoly.__divmod__`) are called hundreds of thousands of times per job,
so they skip the observer and keep only a call count and self time.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


# (metric prefix, defining module, function name)
_FUNCTIONS = [
    ("core.is_quiddity", "quiddity.core", "is_quiddity"),
    ("core.canonical_multipliers", "quiddity.core", "canonical_multipliers"),
    ("numfield.subgroup_member", "quiddity.numfield", "subgroup_member"),
    ("numfield.field_make", "quiddity.numfield", "field_make"),
    ("numfield.isolate_roots", "quiddity.numfield", "isolate_roots"),
    ("numfield.embed", "quiddity.numfield", "embed"),
    ("numfield.modulus_compare", "quiddity.numfield", "modulus_compare"),
    ("polycrit.gauss_disk_count_strict", "quiddity.polycrit", "gauss_disk_count_strict"),
    ("polycrit.schur_cohn_count", "quiddity.polycrit", "schur_cohn_count"),
    ("polycrit.irreducible_over_Q", "quiddity.polycrit", "irreducible_over_Q"),
    ("polynomials.qpoly_at_disk", "quiddity.polynomials", "qpoly_at_disk"),
    ("polynomials.refine_real_root", "quiddity.polynomials", "refine_real_root"),
    ("polynomials.real_roots_isolated", "quiddity.polynomials", "real_roots_isolated"),
    ("polynomials.composed_product", "quiddity.polynomials", "composed_product"),
    ("classify.enumerate_quiddities", "quiddity.classify", "enumerate_quiddities"),
    ("classify.irreducible_census", "quiddity.classify", "irreducible_census"),
    ("classify.classify", "quiddity.classify", "classify"),
    ("reducibility.find_reduction", "quiddity.reducibility", "find_reduction"),
    ("reducibility.witness_replay", "quiddity.reducibility", "witness_replay"),
]

# (metric prefix, defining module, class, method names bound to one
# function, hot operator?)
_METHODS = [
    ("core.Mat2.mul", "quiddity.core", "Mat2", ("__mul__",), True),
    ("numfield.FieldElement.mul", "quiddity.numfield", "FieldElement", ("__mul__", "__rmul__"), True),
    ("polynomials.QPoly.divmod", "quiddity.polynomials", "QPoly", ("__divmod__",), True),
    ("numfield.NumberField.refined", "quiddity.numfield", "NumberField", ("refined",), False),
]

# Every per-layer metric: name -> (unit, workload whose wall time it
# should move).  The self-test checks each is nonzero on that workload.
METRICS: dict[str, tuple[str, str]] = {
    "core.Mat2.mul.calls": ("count", "census"),
    "core.is_quiddity.calls": ("count", "census"),
    "core.is_quiddity.self_s": ("s", "census"),
    "core.canonical_multipliers.calls": ("count", "census"),
    "core.canonical_multipliers.self_s": ("s", "census"),
    "numfield.FieldElement.mul.calls": ("count", "census"),
    "numfield.FieldElement.mul.self_s": ("s", "census"),
    "polynomials.QPoly.divmod.calls": ("count", "census"),
    "polynomials.QPoly.divmod.self_s": ("s", "census"),
    "numfield.subgroup_member.calls": ("count", "census"),
    "numfield.subgroup_member.self_s": ("s", "census"),
    "numfield.field_make.calls": ("count", "roots"),
    "numfield.field_make.self_s": ("s", "roots"),
    "numfield.isolate_roots.self_s": ("s", "roots"),
    "numfield.embed.calls": ("count", "roots"),
    "numfield.embed.self_s": ("s", "roots"),
    "numfield.embed.bits": ("bits", "roots"),
    "numfield.refine.nonreal_s_per_bit": ("s/bit", "roots"),
    "numfield.refine.real_s_per_bit": ("s/bit", "roots"),
    "numfield.modulus_compare.calls": ("count", "roots"),
    "numfield.modulus_compare.self_s": ("s", "roots"),
    "numfield.modulus_compare.exact_ratio": ("ratio", "roots"),
    "polycrit.gauss_disk_count_strict.calls": ("count", "roots"),
    "polycrit.gauss_disk_count_strict.self_s": ("s", "roots"),
    "polycrit.gauss_disk_count_strict.none_ratio": ("ratio", "roots"),
    "polynomials.qpoly_at_disk.self_s": ("s", "roots"),
    "polycrit.schur_cohn_count.calls": ("count", "polycrit"),
    "polycrit.schur_cohn_count.self_s": ("s", "polycrit"),
    "polycrit.irreducible_over_Q.calls": ("count", "polycrit"),
    "polycrit.irreducible_over_Q.self_s": ("s", "polycrit"),
    "polycrit.irreducible_over_Q.unknown_ratio": ("ratio", "polycrit"),
    "polynomials.refine_real_root.calls": ("count", "roots"),
    "polynomials.refine_real_root.self_s": ("s", "roots"),
    "polynomials.real_roots_isolated.self_s": ("s", "polycrit"),
    "polynomials.composed_product.calls": ("count", "roots"),
    "polynomials.composed_product.self_s": ("s", "roots"),
    "classify.enumerate_quiddities.self_s": ("s", "census"),
    "classify.enumerate_quiddities.words": ("count", "census"),
    "classify.enumerate_quiddities.dedup_ratio": ("ratio", "census"),
    "classify.irreducible_census.self_s": ("s", "census"),
    "classify.classify.self_s": ("s", "roots"),
    "reducibility.find_reduction.calls": ("count", "census"),
    "reducibility.find_reduction.self_s": ("s", "census"),
    "reducibility.find_reduction.slots_scanned": ("count", "census"),
    "reducibility.find_reduction.hit_ratio": ("ratio", "census"),
    "reducibility.witness_replay.self_s": ("s", "census"),
    "trace.overhead_ratio": ("ratio", "census"),
}


def enumeration_words(n_max: int, k_bound: int) -> int:
    """Prefix and suffix words the meet-in-the-middle search builds:
    for each size n, all words of length ceil(n/2) and floor(n/2)."""
    base = 2 * k_bound + 1
    return sum(base ** ((n + 1) // 2) + base ** (n // 2) for n in range(2, n_max + 1))


def slots_scanned(n: int, witness) -> int:
    """Position of the witness in the forced-boundary scan order
    (reflection, then rotation, then summand size), counted from one;
    the whole scan, 2n(n-3) slots, when there is no witness."""
    per_image = n - 3
    if witness is None:
        return 2 * n * per_image
    l = n + 2 - witness.split_m
    return int(witness.reflected) * n * per_image + witness.rotation * per_image + (l - 3) + 1


class Tracer:
    """Patches the library while installed; collects per-layer stats."""

    def __init__(self):
        self.stats: dict[str, LayerStat] = {}
        self._stack: list[list] = []  # one frame per open span
        self._patches: list[tuple[Any, str, Any]] = []
        self.active = False  # set while a job's library calls run

    # -- collection ---------------------------------------------------------

    def reset(self) -> None:
        self.stats = {}
        self._stack = []

    def abandon_stack(self) -> None:
        """Drop frames left open by a call interrupted mid-flight."""
        self._stack = []

    def _stat(self, name: str) -> LayerStat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStat()
        return st

    def _counts(self) -> tuple[int, int]:
        """Call counts that observers compare before and after a span."""
        return (
            self._stat("polynomials.composed_product").calls,
            self._stat("core.canonical_multipliers").calls,
        )

    def _wrap(self, name: str, fn: Callable, hot: bool, on_exit: Optional[Callable]) -> Callable:
        tracer = self
        clock = time.perf_counter

        if hot:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                stack = tracer._stack
                frame = [0.0]  # [time in child spans]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    if stack and stack[-1] is frame:
                        stack.pop()
                        if stack:
                            stack[-1][0] += dur
                    st = tracer._stat(name)
                    st.calls += 1
                    st.self_s += dur - frame[0]
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                stack = tracer._stack
                # [time in child spans, counts at entry]
                frame = [0.0, tracer._counts()]
                stack.append(frame)
                t0 = clock()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    dur = clock() - t0
                    if stack and stack[-1] is frame:
                        stack.pop()
                        if stack:
                            stack[-1][0] += dur
                    st = tracer._stat(name)
                    st.calls += 1
                    st.self_s += dur - frame[0]
                    if on_exit is not None:
                        on_exit(tracer, st, args, kwargs, result, dur, frame)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every traced function and operator."""
        if self._patches:
            return
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "quiddity" or name.startswith("quiddity."))
        ]
        for name, modname, attr in _FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(name, original, False, _ON_EXIT.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, modname, cls_name, methods, hot in _METHODS:
            cls = getattr(importlib.import_module(modname), cls_name)
            original = cls.__dict__[methods[0]]
            wrapper = self._wrap(name, original, hot, _ON_EXIT.get(name))
            for meth in methods:
                if cls.__dict__.get(meth) is original:
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived metrics ----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values for everything collected since reset."""
        s = self._stat
        out: dict[str, float] = {}
        for name in METRICS:
            if name == "trace.overhead_ratio":
                continue
            prefix, _, kind = name.rpartition(".")
            st = s(prefix)
            if kind == "calls":
                out[name] = st.calls
            elif kind == "self_s":
                out[name] = st.self_s
            elif kind.endswith("_ratio"):
                base = st.extra.get("ratio_base", st.calls)
                out[name] = st.extra.get(kind, 0) / base if base else 0.0
            elif name.startswith("numfield.refine."):
                kind = kind.split("_s_per_bit")[0]
                ref = s("numfield.NumberField.refined")
                bits = ref.extra.get(kind + "_bits", 0.0)
                out[name] = ref.extra.get(kind + "_s", 0.0) / bits if bits else 0.0
            else:
                out[name] = st.extra.get(kind, 0)
        return out


# -- per-function observers ---------------------------------------------------


def _embed_exit(tracer, st, args, kwargs, result, dur, frame):
    st.add("bits", args[2] if len(args) > 2 else kwargs.get("precision", 0))


def _modulus_exit(tracer, st, args, kwargs, result, dur, frame):
    if tracer._counts()[0] > frame[1][0]:
        st.add("exact_ratio", 1)


def _gauss_exit(tracer, st, args, kwargs, result, dur, frame):
    if result is None:
        st.add("none_ratio", 1)


def _irreducible_exit(tracer, st, args, kwargs, result, dur, frame):
    if result is not None and result.status == "Unknown":
        st.add("unknown_ratio", 1)


def _enumerate_exit(tracer, st, args, kwargs, result, dur, frame):
    if result is None:
        return
    st.add("words", enumeration_words(result.n_max, result.k_bound))
    st.add("dedup_ratio", len(result.members))
    st.add("ratio_base", tracer._counts()[1] - frame[1][1])


def _find_reduction_exit(tracer, st, args, kwargs, result, dur, frame):
    t = args[0]
    st.add("slots_scanned", slots_scanned(t.n, result))
    if result is not None:
        st.add("hit_ratio", 1)


def _refined_exit(tracer, st, args, kwargs, result, dur, frame):
    field, index = args[0], args[1]
    old = field.root_boxes[index]
    new = result.root_boxes[index] if result is not None else old
    if new.width <= 0 or new.width >= old.width:
        return
    kind = "real" if old.is_real_line() else "nonreal"
    st.add(kind + "_bits", math.log2(old.width / new.width))
    st.add(kind + "_s", dur)


_ON_EXIT = {
    "numfield.embed": _embed_exit,
    "numfield.modulus_compare": _modulus_exit,
    "polycrit.gauss_disk_count_strict": _gauss_exit,
    "polycrit.irreducible_over_Q": _irreducible_exit,
    "classify.enumerate_quiddities": _enumerate_exit,
    "reducibility.find_reduction": _find_reduction_exit,
    "numfield.NumberField.refined": _refined_exit,
}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over traced passes."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
