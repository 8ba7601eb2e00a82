"""Outside-in spans for the traced benchmark run.

The tracer replaces the module attributes through which one gammag layer
calls another (for example ``gammag.theorems.gamma_product``) with timing
wrappers. Each wrapped call records one span: name, start, end, parent span
and the benchmark op that caused it. Spans live in flat arrays in memory and
are written out once, when the run ends. Nothing in the package changes;
``restore`` puts every original attribute back.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict

from expected import FUZZY_KINDS, REGISTRY_ORDER

# span name -> the "module.attribute" paths through which callers reach it.
# A name ending in "*" is completed from the call's arguments.
BOUNDARIES = (
    ("cli.main", ("cli.main",)),
    ("core.check_laws", ("core.check_laws", "cli.check_laws", "theorems.check_laws")),
    ("core.GammaMagma", ("finder.GammaMagma",)),
    ("crisp.enumerate_ideals", ("crisp.enumerate_ideals", "cli.enumerate_ideals")),
    ("crisp.set_product", ("crisp.set_product",)),
    ("crisp.is_intra_regular", (
        "crisp.is_intra_regular", "cli.is_intra_regular",
        "theorems.is_intra_regular", "finder.is_intra_regular",
    )),
    ("fuzzy.gamma_product", ("fuzzy.gamma_product", "theorems.gamma_product", "cli.gamma_product")),
    ("fuzzy.classify_fuzzy", ("fuzzy.classify_fuzzy", "cli.classify_fuzzy")),
    ("fuzzy.kind_violation.*", ("fuzzy.kind_violation", "theorems.kind_violation")),
    # classify_fuzzy reaches the kind scans through these predicates
    ("fuzzy.kind_violation.subgroupoid", ("fuzzy.is_fuzzy_subgroupoid",)),
    ("fuzzy.kind_violation.left", ("fuzzy.is_fuzzy_left",)),
    ("fuzzy.kind_violation.right", ("fuzzy.is_fuzzy_right",)),
    ("fuzzy.kind_violation.generalized_bi", ("fuzzy.is_fuzzy_generalized_bi",)),
    ("fuzzy.kind_violation.interior", ("fuzzy.is_fuzzy_interior",)),
    ("fuzzy.kind_violation.quasi", ("fuzzy.is_fuzzy_quasi",)),
    ("fuzzy.kind_violation.idempotent", ("fuzzy.is_fuzzy_idempotent",)),
    ("theorems.sample_subset", ("theorems.sample_subset",)),
    ("theorems.verify.*", ("theorems.verify", "cli.verify")),
    ("finder.enumerate_models", ("finder.enumerate_models", "cli.enumerate_models")),
)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def timed(self, fn, name: str):
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def timed_kind_violation(self, fn):
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            kind = args[2] if len(args) > 2 else kwargs["kind"]
            idx = open_("fuzzy.kind_violation." + kind)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def timed_verify(self, fn, capacity_error):
        open_, close, counts = self.open, self.close, self.counts

        def wrapper(*args, **kwargs):
            name = "theorems.verify." + (args[1] if len(args) > 1 else kwargs["theorem_id"])
            idx = open_(name)
            try:
                verdict = fn(*args, **kwargs)
            except capacity_error:
                counts["theorems.capacity_stops"] += 1
                raise
            finally:
                close(idx)
            counts[name + ".checked"] += verdict.checked
            return verdict

        return wrapper

    def timed_generator(self, fn, name: str, budget_error):
        """Each resumption of the generator is one span; the consumer's own
        work between resumptions stays outside it."""
        open_, close, counts = self.open, self.close, self.counts

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = open_(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except budget_error:
                        counts["finder.budget_stops"] += 1
                        raise
                    finally:
                        close(idx)
                    counts["finder.enumerate_models.models"] += 1
                    yield item
            finally:
                it.close()

        return wrapper

    def _wrapper_for(self, span: str, original, g):
        if span == "theorems.verify.*":
            return self.timed_verify(original, g.core.CapacityError)
        if span == "fuzzy.kind_violation.*":
            return self.timed_kind_violation(original)
        if span == "finder.enumerate_models":
            return self.timed_generator(original, span, g.finder.SearchBudgetError)
        return self.timed(original, span)

    def install(self, g) -> None:
        """Wrap every boundary attribute of the gammag modules in ``g``."""
        if self._installed:
            raise RuntimeError("tracer wrappers are already installed")
        for span, paths in BOUNDARIES:
            for path in paths:
                module_name, attr = path.split(".")
                module = getattr(g, module_name)
                original = getattr(module, attr)
                self._installed.append((module, attr, original))
                setattr(module, attr, self._wrapper_for(span, original, g))

    def restore(self) -> None:
        """Put back every original attribute, newest first."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path, ops: list[str], meta: dict) -> None:
        doc = {
            "meta": meta,
            "time_unit": "ns",
            "names": self.names,
            "ops": ops,
            "spans": {
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _covered(intervals, lo=None, hi=None) -> int:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0
    reach = None
    for s, e in sorted(intervals):
        if lo is not None:
            s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if reach is None or s >= reach:
            total += e - s
            reach = e
        elif e > reach:
            total += e - reach
            reach = e
    return total


def span_stats(names, name, start, end, parent) -> dict[str, dict[str, int]]:
    """Per span name: ``calls``, ``busy_ns`` and ``self_ns``.

    Busy time is the union of the name's spans, so a span nested in another
    of the same name is not counted twice. Self time is each span's duration
    minus the part of it that its child spans cover.
    """
    children = defaultdict(list)
    by_name = defaultdict(list)
    for i in range(len(name)):
        by_name[name[i]].append((start[i], end[i]))
        if parent[i] >= 0:
            children[parent[i]].append((start[i], end[i]))
    self_ns = defaultdict(int)
    for i in range(len(name)):
        own = end[i] - start[i]
        kids = children.get(i)
        if kids:
            own -= _covered(kids, start[i], end[i])
        self_ns[name[i]] += own
    return {
        names[nid]: {"calls": len(iv), "busy_ns": _covered(iv), "self_ns": self_ns[nid]}
        for nid, iv in by_name.items()
    }


def per_layer_metrics(stats, counts, passes: int, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each a value per pass of the op list and a unit."""
    def get(span, key):
        return stats.get(span, {}).get(key, 0)

    def sec(ns):
        return ns / 1e9 / passes

    out = {}

    def calls_and(span, key):
        out[span + ".calls"] = (get(span, "calls") / passes, "count")
        out[f"{span}.{key}_s"] = (sec(get(span, key + "_ns")), "s")

    calls_and("cli.main", "self")
    calls_and("core.check_laws", "busy")
    calls_and("core.GammaMagma", "busy")
    calls_and("crisp.enumerate_ideals", "self")
    calls_and("crisp.set_product", "busy")
    calls_and("crisp.is_intra_regular", "busy")
    calls_and("fuzzy.gamma_product", "busy")
    gp_calls = get("fuzzy.gamma_product", "calls")
    out["fuzzy.gamma_product.us_per_call"] = (
        get("fuzzy.gamma_product", "busy_ns") / 1e3 / gp_calls if gp_calls else 0.0, "us")
    for kind in FUZZY_KINDS:
        calls_and("fuzzy.kind_violation." + kind, "busy")
    calls_and("fuzzy.classify_fuzzy", "self")
    verify_self = 0
    for tid in REGISTRY_ORDER:
        span = "theorems.verify." + tid
        out[span + ".busy_s"] = (sec(get(span, "busy_ns")), "s")
        out[span + ".checked"] = (counts.get(span + ".checked", 0) / passes, "count")
        verify_self += get(span, "self_ns")
    out["theorems.verify.self_s"] = (sec(verify_self), "s")
    calls_and("theorems.sample_subset", "busy")
    out["theorems.capacity_stops"] = (counts.get("theorems.capacity_stops", 0) / passes, "count")
    span = "finder.enumerate_models"
    models = counts.get(span + ".models", 0)
    out[span + ".models"] = (models / passes, "count")
    out[span + ".busy_s"] = (sec(get(span, "busy_ns")), "s")
    out[span + ".self_s"] = (sec(get(span, "self_ns")), "s")
    out[span + ".us_per_model"] = (get(span, "busy_ns") / 1e3 / models if models else 0.0, "us")
    out["finder.budget_stops"] = (counts.get("finder.budget_stops", 0) / passes, "count")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
