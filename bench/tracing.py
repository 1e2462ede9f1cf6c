"""Spans around the library's public functions, and the per-layer table.

A traced pass rebinds each public function where its callers look it up
(the module attributes listed by ``lookup_sites``) and routes the
benchmark's own calls through the same wrappers.  Every call records a
span: function name, start, end, parent span and task id.  Spans stay in
memory and are written out when the pass ends; the per-layer metrics are
derived from them afterwards.  The library itself is not modified.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from types import ModuleType, SimpleNamespace
from typing import Callable

# public function -> the layer its span belongs to
LAYER_OF = {
    "poset_from_string": "construct",
    "debruijn_poset": "construct",
    "stripped_boolean_interval": "construct",
    "m_interval": "construct",
    "divisible_poset": "construct",
    "verify_binomial": "core.verify",
    "atomic_numbers": "core.atoms",
    "interval": "core.interval",
    "poset_to_json": "core.json",
    "poset_from_json": "core.json",
    "poset_to_dot": "core.json",
    "canonical_form": "iso.canon",
    "enumerate_interval_classes": "classify",
    "phi": "classify",
    "enumerate_intervals": "search",
    "extension_search": "search",
    "check_compatibility": "seqcheck",
    "decide_family": "seqcheck",
    "check_R_equivalence": "seqcheck",
    "main": "cli",
}

LAYERS = (
    "iso.canon", "classify", "core.verify", "core.atoms", "core.interval",
    "core.json", "search", "construct", "seqcheck", "cli",
)

# name, unit, better; the order of the per-layer table
PER_LAYER = (
    ("iso.canon.calls", "count", "lower"),
    ("iso.canon.self_s", "s", "lower"),
    ("iso.canon.p50_s", "s", "lower"),
    ("iso.canon.p99_s", "s", "lower"),
    ("iso.canon.elements", "count", "lower"),
    ("iso.canon.distinct_inputs", "count", "lower"),
    ("iso.canon.distinct_ratio", "ratio", "lower"),
    ("iso.canon.cap_hits", "count", "lower"),
    ("classify.calls", "count", "lower"),
    ("classify.self_s", "s", "lower"),
    ("classify.intervals", "count", "lower"),
    ("classify.classes", "count", "higher"),
    ("core.verify.calls", "count", "lower"),
    ("core.verify.self_s", "s", "lower"),
    ("core.verify.elements", "count", "lower"),
    ("core.atoms.calls", "count", "lower"),
    ("core.atoms.self_s", "s", "lower"),
    ("core.interval.calls", "count", "lower"),
    ("core.interval.self_s", "s", "lower"),
    ("core.json.calls", "count", "lower"),
    ("core.json.self_s", "s", "lower"),
    ("cli.io_bytes", "bytes", "lower"),
    ("search.calls", "count", "lower"),
    ("search.self_s", "s", "lower"),
    ("search.nodes", "count", "lower"),
    ("search.classes", "count", "higher"),
    ("search.capped", "count", "lower"),
    ("search.canon_per_node", "ratio", "lower"),
    ("construct.calls", "count", "lower"),
    ("construct.self_s", "s", "lower"),
    ("construct.elements", "count", "lower"),
    ("seqcheck.calls", "count", "lower"),
    ("seqcheck.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# metrics that are exact work counts: equal on every traced pass of a seed
EXACT = tuple(
    name for name, unit, _ in PER_LAYER if unit in ("count", "bytes", "ratio")
)


def labelled_key(p, extra=None) -> bytes:
    """Digest of a diagram under its native element order: two inputs
    share it exactly when they are the same labelled structure, ids aside."""
    pos = {x: (r, i) for r, lv in enumerate(p.levels) for i, x in enumerate(lv)}
    covers = sorted(pos[lo] + pos[hi][1:] for lo, hi in p.covers)
    pins = sorted((pos[x], c) for x, c in (extra or {}).items())
    text = repr((tuple(len(lv) for lv in p.levels), covers, pins))
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def _observe_canon(args, kwargs, result, exc):
    extra = kwargs.get("extra_colors", args[2] if len(args) > 2 else None)
    cap_hit = exc is not None and type(exc).__name__ == "CanonicalizationCapError"
    return {
        "elements": len(args[0].elements),
        "key": labelled_key(args[0], extra).hex(),
        "cap_hit": int(cap_hit),
    }


def _observe_elements_in(args, kwargs, result, exc):
    return {"elements": len(args[0].elements)}


def _observe_elements_out(args, kwargs, result, exc):
    return None if result is None else {"elements": len(result.elements)}


def _observe_classes(args, kwargs, result, exc):
    return None if result is None else {"classes": result.count}


def _observe_search(args, kwargs, result, exc):
    if result is None:
        return None
    return {
        "nodes": result.nodes,
        "classes": len(result.classes),
        "capped": int(result.verdict == "capped"),
    }


OBSERVERS: dict[str, Callable] = {
    "canonical_form": _observe_canon,
    "verify_binomial": _observe_elements_in,
    "enumerate_interval_classes": _observe_classes,
    "enumerate_intervals": _observe_search,
    "extension_search": _observe_search,
    **{name: _observe_elements_out for name, layer in LAYER_OF.items() if layer == "construct"},
}


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, task, counts, excluded]``;
    ``excluded`` is time the tracer spent on bookkeeping for the span's
    children, kept out of every layer's self time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.task = "setup"
        self._wrapped: dict[int, Callable] = {}
        self._installed: list[tuple[ModuleType, str, Callable]] = []

    def wrap(self, fn: Callable) -> Callable:
        """The traced version of a public library function (one per function)."""
        got = self._wrapped.get(id(fn))
        if got is not None:
            return got
        name = fn.__name__
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.task, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if observe is not None:
                    span[5] = observe(args, kwargs, result, exc)
                if parent >= 0:
                    spans[parent][6] += (span[1] - entered) + (clock() - span[2])

        self._wrapped[id(fn)] = traced
        return traced

    def install(self, modules: list[ModuleType]) -> None:
        """Rebind every public function where a library module looks it up."""
        for mod, attr in lookup_sites(modules):
            fn = getattr(mod, attr)
            self._installed.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn))

    def uninstall(self) -> None:
        """Put back what ``install`` rebound."""
        while self._installed:
            mod, attr, fn = self._installed.pop()
            setattr(mod, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s[:5] for s in self.spans], fh, separators=(",", ":"))


def lookup_sites(modules: list[ModuleType]) -> list[tuple[ModuleType, str]]:
    """Module attributes through which the library calls its own public
    functions: every imported one, plus ``iso.canonical_form``, which
    ``are_isomorphic`` looks up in its own module.  A module's own
    definitions are left alone otherwise, so a public function calling
    a sibling in the same module does not open a nested span."""
    sites = []
    for mod in modules:
        for attr in LAYER_OF:
            fn = getattr(mod, attr, None)
            if not callable(fn):
                continue
            if fn.__module__ != mod.__name__ or attr == "canonical_form":
                sites.append((mod, attr))
    return sites


def make_api(binposet: ModuleType, tracer: Tracer | None) -> SimpleNamespace:
    """The public functions the benchmark calls (``main`` is the CLI's),
    traced when a tracer is given."""
    api = {name: getattr(binposet, name) for name in LAYER_OF if name != "main"}
    api["main"] = binposet.cli.main
    if tracer is not None:
        api = {name: tracer.wrap(fn) for name, fn in api.items()}
    return SimpleNamespace(**api)


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(spans: list[list], io_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans.

    A span's self time is its duration minus the durations of its child
    spans and minus the tracer's bookkeeping for them."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    layer = [LAYER_OF[s[0]] for s in spans]
    m: dict[str, float] = {}
    for name in LAYERS:
        m[f"{name}.calls"] = 0
        m[f"{name}.self_s"] = 0.0
    for i, s in enumerate(spans):
        m[f"{layer[i]}.calls"] += 1
        m[f"{layer[i]}.self_s"] += (s[2] - s[1]) - child[i] - s[6]

    def total(lay: str, key: str) -> int:
        return sum(s[5][key] for i, s in enumerate(spans) if layer[i] == lay and s[5])

    def under(i: int, lay: str) -> bool:
        p = spans[i][3]
        while p >= 0:
            if layer[p] == lay:
                return True
            p = spans[p][3]
        return False

    canon = [i for i in range(len(spans)) if layer[i] == "iso.canon"]
    durations = sorted(spans[i][2] - spans[i][1] for i in canon)
    distinct = len({spans[i][5]["key"] for i in canon})
    m["iso.canon.p50_s"] = _quantile(durations, 0.50)
    m["iso.canon.p99_s"] = _quantile(durations, 0.99)
    m["iso.canon.elements"] = total("iso.canon", "elements")
    m["iso.canon.distinct_inputs"] = distinct
    m["iso.canon.distinct_ratio"] = distinct / len(canon) if canon else 0.0
    m["iso.canon.cap_hits"] = total("iso.canon", "cap_hit")
    m["classify.intervals"] = sum(
        1 for i, s in enumerate(spans)
        if layer[i] == "core.interval" and s[3] >= 0 and layer[s[3]] == "classify"
    )
    m["classify.classes"] = total("classify", "classes")
    m["core.verify.elements"] = total("core.verify", "elements")
    m["cli.io_bytes"] = io_bytes
    nodes = total("search", "nodes")
    m["search.nodes"] = nodes
    m["search.classes"] = total("search", "classes")
    m["search.capped"] = total("search", "capped")
    in_search = sum(1 for i in canon if under(i, "search"))
    m["search.canon_per_node"] = in_search / nodes if nodes else 0.0
    m["construct.elements"] = total("construct", "elements")
    return m
