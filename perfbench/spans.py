"""Span tracing of frobsplit from outside the package.

:class:`Tracer` replaces the public functions of each layer module, and a few
methods, with wrappers that record a span ``[name, start, end, parent]`` per
call.  Modules import each other's functions by name (``from .groebner
import reduced_gb``), so every module binding of a function is replaced, not
only the defining one.  :meth:`Tracer.remove` puts the originals back.

Spans are kept in memory for one job and folded into totals when the job
ends: calls and self time per span name (a span's duration minus its direct
children's), self time per layer, and the counters the benchmark names.
"""

from __future__ import annotations

import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "criteria", "frobenius", "ideal_ops", "groebner", "field_poly")
PRODUCERS = ("charp_certificate", "symb_certificate", "fsplit_certificate", "deformation_fibers")

# Methods traced besides the modules' public functions: (class, method, span name).
METHODS = (
    ("Polynomial", "__init__", "field_poly.Polynomial.new"),
    ("Polynomial", "__mul__", "field_poly.Polynomial.mul"),
    ("Polynomial", "multiply_monomial", "field_poly.Polynomial.multiply_monomial"),
    ("RingContext", "parse", "field_poly.RingContext.parse"),
)
# cli handlers are reached through a private dispatch table, so only the two
# public entry points are traced there.
CLI_FUNCTIONS = ("main", "parse_problem")


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.active = False
        self.spans: list[list] = []
        self.current = -1
        self.tags: dict[int, object] = {}
        self._gb_seen: dict[int, tuple] = {}
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Clear the accumulated totals, keeping the wrappers installed."""
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.job_s = 0.0

    # -- installing wrappers ----------------------------------------------------

    def install(self) -> None:
        lib = self.lib
        modules = [getattr(lib, layer) for layer in LAYERS] + [lib.package]
        for layer in LAYERS:
            mod = getattr(lib, layer)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                if layer == "cli" and attr not in CLI_FUNCTIONS:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for name, val in list(vars(m).items()):
                        if val is fn:
                            self._patch(m, name, wrapper)
        for cls_name, method, span_name in METHODS:
            cls = getattr(lib.field_poly, cls_name)
            self._patch(cls, method, self._wrap(span_name, getattr(cls, method)))
        replay_step = lib.criteria._replay_step
        self._patch(
            lib.criteria,
            "_replay_step",
            self._wrap("criteria.replay", replay_step, lambda args: f"criteria.replay.{args[1]['op']}"),
        )

    def remove(self) -> None:
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    def _patch(self, obj, name, value) -> None:
        self._patches.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def _wrap(self, name, fn, name_of=None):
        tracer = self
        hook = {
            "groebner.reduced_gb": self._on_reduced_gb,
            "ideal_ops.saturate": self._on_saturate,
        }.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans)
            rec = [name_of(args) if name_of else name, perf_counter(), 0.0, tracer.current]
            spans.append(rec)
            tracer.current = idx
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.current = rec[3]
            if hook is not None:
                hook(idx, args, result)
            return result

        return wrapper

    # -- per-call observations --------------------------------------------------

    def _on_reduced_gb(self, idx, args, result) -> None:
        # a cache hit returns the object an earlier call returned for the same
        # presentation and order
        presentation, order = args[0], args[1]
        _, seen = self._gb_seen.setdefault(id(presentation), (presentation, {}))
        hit = seen.get(order) is result
        seen[order] = result
        self.tags[idx] = (hit, len(result.elements))

    def _on_saturate(self, idx, args, result) -> None:
        self.tags[idx] = result.provenance["saturation_exponent"]

    # -- jobs -----------------------------------------------------------------

    def start_job(self) -> None:
        self.spans.clear()
        self.tags.clear()
        self._gb_seen.clear()
        self.current = -1
        self.active = True

    def end_job(self, job_s: float) -> list[str]:
        """Fold the job's spans into the totals; returns nesting errors."""
        self.active = False
        spans = self.spans
        errors = []
        child_s = [0.0] * len(spans)
        top_s = 0.0
        for name, start, end, parent in spans:
            dur = end - start
            if parent < 0:
                top_s += dur
            else:
                pstart, pend = spans[parent][1], spans[parent][2]
                if start < pstart or end > pend:
                    errors.append(f"span {name} escapes its parent {spans[parent][0]}")
                child_s[parent] += dur
        self_sum = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            own = (end - start) - child_s[i]
            self_sum += own
            self.calls[name] += 1
            self.self_s[name] += own
            self.total_s[name] += end - start
            self.self_s["layer:" + name.split(".", 1)[0]] += own
        unattributed = job_s - top_s
        self.self_s["layer:unattributed"] += unattributed
        if unattributed < 0 or abs(self_sum + unattributed - job_s) > 1e-6 * max(job_s, 1.0):
            errors.append("layer self times do not sum to the traced job time")
        self.job_s += job_s
        self._count(spans)
        spans.clear()
        self._gb_seen.clear()
        return errors

    def _count(self, spans) -> None:
        counts = self.counts
        for idx, tag in self.tags.items():
            name = spans[idx][0]
            if name == "groebner.reduced_gb":
                hit, elements = tag
                counts["groebner.reduced_gb.out_elements"] += elements
                if hit:
                    counts["groebner.reduced_gb.cache_hits"] += 1
                elif self._under(spans, idx, "frobenius.fedder_colon"):
                    counts["frobenius.fedder_colon.buchberger_runs"] += 1
            elif name == "ideal_ops.saturate":
                counts["ideal_ops.saturate.iterations"] += tag
        for idx, rec in enumerate(spans):
            if rec[0] == "groebner.member" and self._under(spans, idx, "frobenius.compatible_check"):
                counts["frobenius.compatible_check.memberships"] += 1
            elif rec[0].startswith("criteria.replay."):
                counts["criteria.replay.steps"] += 1

    @staticmethod
    def _under(spans, idx, ancestor) -> bool:
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    # -- results --------------------------------------------------------------

    def count_metrics(self) -> dict[str, int]:
        """Deterministic counters: call counts and the named work counts."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        return out
