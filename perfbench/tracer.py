"""Per-layer tracing from outside the program.

The tracer wraps module attributes at each layer boundary, as they are bound
where they are called (``faithfulness.induced_model``, not only
``graphs.induced_model``), records one span per call, and restores every
attribute on exit.  Spans are kept in memory as ``[layer, op, parent, start,
end]`` and written out when the run ends.  A layer's self time is its spans'
duration minus the part covered by their child spans.  A boundary that no
longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import gzip
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Boundary:
    layer: str
    module: str
    attr: str
    # Work counter fed from the call: "text_in", "text_out", "gate", "screen",
    # "verify" or "directings" (a generator; each `next` is its own span).
    counter: str = ""


def _bound(layer: str, attr: str, modules: tuple[str, ...], counter: str = "") -> list[Boundary]:
    return [Boundary(layer, f"graphfaith.{m}", attr, counter) for m in modules]


BOUNDARIES: list[Boundary] = [
    *_bound("cli", "run", ("cli",)),
    *_bound("text", "parse_graph_text", ("cli",), "text_in"),
    *_bound("text", "parse_model_text", ("cli",), "text_in"),
    *_bound("text", "parse_matrix_csv", ("cli",), "text_in"),
    *_bound("text", "model_to_text", ("cli",), "text_out"),
    # FaithfulnessVerdict.to_json_dict imports graph_to_text from graphs at call time.
    *_bound("text", "graph_to_text", ("cli", "graphs"), "text_out"),
    *_bound("graphs.separates", "separates", ("graphs", "cli")),
    *_bound("graphs.induced_model", "induced_model", ("cli", "faithfulness", "graphs")),
    *_bound("models.model_from_elementary", "model_from_elementary", ("graphs", "gaussian")),
    *[
        b
        for name in (
            "check_semi_graphoid",
            "check_intersection",
            "check_composition",
            "check_singleton_transitivity",
            "check_upward_stability",
        )
        for b in _bound("models.axiom_gate", name, ("faithfulness",), "gate")
    ],
    *_bound("preorders.directings", "_iter_anterial_directings", ("faithfulness",), "directings"),
    *_bound("preorders.minimal_preorder", "minimal_preorder", ("faithfulness",)),
    *_bound("faithfulness.screen", "_stabilities_hold", ("faithfulness",), "screen"),
    *_bound("faithfulness.verify", "is_faithful", ("faithfulness", "cli"), "verify"),
    *_bound("gaussian.model", "model_from_concentration", ("cli",)),
    *_bound("gaussian.model", "inverse", ("gaussian", "cli")),
    *_bound("gaussian.partial_covariance", "partial_covariance", ("gaussian",)),
]

# The model cache whose hits show input sharing between ops.
CACHE = ("graphfaith.graphs", "_induced_model_cached")

# Per-layer metrics: name, unit, better.  Values are per traced op.
PER_LAYER = [
    ("cli.calls", "count/op", "lower"),
    ("cli.self_s", "s/op", "lower"),
    ("text.calls", "count/op", "lower"),
    ("text.bytes", "bytes/op", "lower"),
    ("text.self_s", "s/op", "lower"),
    ("graphs.separates.calls", "count/op", "lower"),
    ("graphs.separates.self_s", "s/op", "lower"),
    ("graphs.separates.us_per_call", "us", "lower"),
    ("graphs.induced_model.calls", "count/op", "lower"),
    ("graphs.induced_model.cache_hits", "count/op", "lower"),
    ("graphs.induced_model.self_s", "s/op", "lower"),
    ("models.model_from_elementary.calls", "count/op", "lower"),
    ("models.model_from_elementary.self_s", "s/op", "lower"),
    ("models.axiom_gate.calls", "count/op", "lower"),
    ("models.axiom_gate.statements_in", "count/op", "lower"),
    ("models.axiom_gate.violations", "count/op", "lower"),
    ("models.axiom_gate.self_s", "s/op", "lower"),
    ("preorders.directings.candidates", "computed/op", "lower"),
    ("preorders.directings.yielded", "count/op", "lower"),
    ("preorders.directings.yield_ratio", "ratio", "higher"),
    ("preorders.directings.self_s", "s/op", "lower"),
    ("preorders.minimal_preorder.calls", "count/op", "lower"),
    ("preorders.minimal_preorder.self_s", "s/op", "lower"),
    ("faithfulness.screen.calls", "count/op", "lower"),
    ("faithfulness.screen.passed", "count/op", "lower"),
    ("faithfulness.screen.self_s", "s/op", "lower"),
    ("faithfulness.verify.calls", "count/op", "lower"),
    ("faithfulness.verify.confirmed", "count/op", "higher"),
    ("faithfulness.verify.confirm_ratio", "ratio", "higher"),
    ("faithfulness.verify.self_s", "s/op", "lower"),
    ("gaussian.model.self_s", "s/op", "lower"),
    ("gaussian.partial_covariance.calls", "count/op", "lower"),
    ("gaussian.partial_covariance.self_s", "s/op", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.absent_boundaries", "count", "lower"),
]


class Tracer:
    """Install with ``with tracer:`` around each traced op, after setting
    ``tracer.op``.  Spans and counts accumulate across installs."""

    def __init__(self, boundaries: list[Boundary] = BOUNDARIES):
        self.boundaries = boundaries
        self.layers = sorted({b.layer for b in boundaries})
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}
        self.gate_models: list = []
        self.directing_models: list = []
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._cache_before = None

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.absent = []
        for b in self.boundaries:
            module = sys.modules.get(b.module)
            original = getattr(module, b.attr, None)
            if original is None:
                self.absent.append(f"{b.module}.{b.attr}")
                continue
            self._saved.append((module, b.attr, original))
            setattr(module, b.attr, self._wrap(b, original))
        cache = self._cache()
        self._cache_before = cache.cache_info().hits if cache is not None else None
        if cache is None:
            self.absent.append(".".join(CACHE) + ".cache_info")
        return self

    def __exit__(self, *exc) -> None:
        cache = self._cache()
        if cache is not None and self._cache_before is not None:
            self._count("graphs.induced_model.cache_hits", cache.cache_info().hits - self._cache_before)
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @staticmethod
    def _cache():
        cache = getattr(sys.modules.get(CACHE[0]), CACHE[1], None)
        return cache if hasattr(cache, "cache_info") else None

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, b: Boundary, fn: Callable) -> Callable:
        layer = self.layers.index(b.layer)
        spans, stack = self.spans, self.stack
        name = b.layer

        def open_span() -> list:
            rec = [layer, self.op, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            return rec

        def close_span(rec: list) -> None:
            rec[4] = perf_counter()
            stack.pop()

        if b.counter == "directings":

            def generator(*args, **kwargs):
                self._count(name + ".calls")
                self.directing_models.append(args[0] if args else kwargs["model"])
                it = fn(*args, **kwargs)
                while True:
                    rec = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(rec)
                    self._count(name + ".yielded")
                    yield item

            return generator

        def wrapper(*args, **kwargs):
            rec = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(rec)
            self._count(name + ".calls")
            if b.counter == "text_in":
                self._count("text.bytes", len(args[0]))
            elif b.counter == "text_out":
                self._count("text.bytes", len(result))
            elif b.counter == "gate":
                self.gate_models.append(args[0])
                self._count(name + ".violations", result.count)
            elif b.counter == "screen":
                self._count(name + ".passed", bool(result))
            elif b.counter == "verify":
                self._count(name + ".confirmed", bool(result))
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per layer, seconds."""
        child = [0.0] * len(self.spans)
        for layer, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(self.layers, 0.0)
        for (layer, op, parent, start, end), covered in zip(self.spans, child):
            totals[self.layers[layer]] += (end - start) - covered
        return totals

    def metrics(self, ops: int, skeleton_edges: Callable) -> dict[str, float]:
        """The per-layer metrics over ``ops`` traced ops, in PER_LAYER order,
        except the ``trace.*`` entries, which the caller adds."""
        totals = dict(self.counts)
        totals.update({f"{layer}.self_s": seconds for layer, seconds in self.self_times().items()})
        totals["models.axiom_gate.statements_in"] = sum(m.statement_count() for m in self.gate_models)
        totals["preorders.directings.candidates"] = sum(4 ** skeleton_edges(m) for m in self.directing_models)
        out = {key: value / ops for key, value in totals.items()}

        def ratio(num: str, den: str, scale: float = 1.0) -> float:
            return scale * totals.get(num, 0) / totals[den] if totals.get(den) else 0.0

        out["graphs.separates.us_per_call"] = ratio("graphs.separates.self_s", "graphs.separates.calls", 1e6)
        out["preorders.directings.yield_ratio"] = ratio("preorders.directings.yielded", "preorders.directings.candidates")
        out["faithfulness.verify.confirm_ratio"] = ratio("faithfulness.verify.confirmed", "faithfulness.verify.calls")
        return {name: out.get(name, 0.0) for name, _, _ in PER_LAYER if not name.startswith("trace.")}

    def write(self, path: Path) -> None:
        """Write the spans, gzipped JSON, with layer names resolved by index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "columns": ["layer", "op", "parent", "start_s", "end_s"],
            "layers": self.layers,
            "absent": self.absent,
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
