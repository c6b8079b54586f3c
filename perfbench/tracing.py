"""Spans around the calls ``repspect analyze`` makes into each layer.

The tracer wraps functions at the names their callers look them up by, so
the program's own code is unchanged:

* ``parse_config``, ``run_analysis`` and ``emit_outputs`` in ``repspect.cli``;
* every public function ``run_analysis`` calls, in ``repspect.report``;
* ``Representation.table_images``;
* ``haar_matrices`` where ``repspect.commutant`` and ``repspect.moments``
  import it.

A span is named ``<layer>.<function>``, the layer being the module that
defines the function.  Spans are kept in memory and handed back at the end.
In timing mode a span records start and end; in memory mode it records the
tracemalloc high-water mark above its entry level instead, since tracemalloc
slows allocation-heavy layers several-fold and would corrupt self times.

The tracer also computes work counts from the arguments and results seen
at the wrappers.  They repeat exactly for a config, so they can be cited
as counts.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
import tracemalloc

CLI_CALLS = ("parse_config", "run_analysis", "emit_outputs")
REPORT_CALLS = (
    "enumerate_closure",
    "build_named_rep",
    "commutant_basis",
    "split_symmetric_skew",
    "classify_and_decide",
    "witness_invariant_subspace",
    "span_residual",
    "exact_discrete_overlap",
    "lower_bound_check",
    "check_discrete_invariance",
    "exact_finite_orbit_moments",
    "make_sampler",
    "estimate_squared_overlap",
    "overlap_convergence_trace",
    "expectation_identity_check",
    "coordinate_second_moments",
    "sn_cosine_identity",
)

# Counts computed from wrapper arguments and results, with their formulas;
# each adds up over the calls of one analysis unless its formula says "max".
COUNT_FORMULAS = {
    "groups.order": "|G| of the enumerated table (0 for continuous families)",
    "groups.haar_draws": "sum of size over haar_matrices calls",
    "representations.table_image_bytes": "|G| * n^2 * 8 when table_images materializes",
    "commutant.constraint_images": "k, the constraint images of the final nullspace stack",
    "commutant.constraint_rows": "k * n^2",
    "commutant.constraint_cols": "n^2",
    "commutant.constraint_bytes": "k * n^2 * n^2 * 8",
    "moments.pairs": "sum of n_pairs over estimate_squared_overlap and overlap_convergence_trace",
    "moments.coordinate_tensor_bytes": "max over calls of min(block, largest worker chunk) * n^2 * 8",
    "moments.orbit_pairs": "sum over calls of |G|^2 when the pair sum runs, else 0",
    "report.bytes": "bytes of the emitted report text",
}


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count(counts: dict, name: str, fn, args, kwargs, result) -> None:
    if name == "representations.table_images":
        counts["representations.table_image_bytes"] += result.nbytes
    elif name == "groups.enumerate_closure":
        counts["groups.order"] += result.order
    elif name == "groups.haar_matrices":
        counts["groups.haar_draws"] += _bound(fn, args, kwargs)["size"]
    elif name == "commutant.commutant_basis":
        k, n = result.constraints.shape[0], result.constraints.shape[1]
        counts["commutant.constraint_images"] += k
        counts["commutant.constraint_rows"] += k * n * n
        counts["commutant.constraint_cols"] += n * n
        counts["commutant.constraint_bytes"] += k * n**4 * 8
    elif name in ("moments.estimate_squared_overlap", "moments.overlap_convergence_trace"):
        counts["moments.pairs"] += _bound(fn, args, kwargs)["n_pairs"]
    elif name == "moments.coordinate_second_moments":
        a = _bound(fn, args, kwargs)
        rows = min(a["block"], math.ceil(a["n_samples"] / a["workers"]))
        nbytes = rows * a["sampler"].dim ** 2 * 8
        counts["moments.coordinate_tensor_bytes"] = max(
            counts["moments.coordinate_tensor_bytes"], nbytes
        )
    elif name == "moments.exact_finite_orbit_moments":
        if result.double_sum is not None:
            counts["moments.orbit_pairs"] += result.order**2
    elif name == "report.emit_outputs":
        counts["report.bytes"] += len(result["report_text"].encode())


class Tracer:
    """Records nested spans; ``memory`` selects tracemalloc peaks over times."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[dict] = []
        self.counts = dict.fromkeys(COUNT_FORMULAS, 0)
        self._stack: list[dict] = []

    def _enter(self, name: str) -> dict:
        span = {"name": name, "parent": self._stack[-1]["id"] if self._stack else None}
        span["id"] = len(self.spans)
        self.spans.append(span)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent["_high"] = max(parent["_high"], peak)
            tracemalloc.reset_peak()
            span["_base"] = span["_high"] = current
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            high = max(span.pop("_high"), peak)
            tracemalloc.reset_peak()
            if self._stack:
                parent = self._stack[-1]
                parent["_high"] = max(parent["_high"], high)
            span["peak_bytes"] = high - span.pop("_base")

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # table_images caches its stack: count only the call that builds it.
            fresh = name != "representations.table_images" or args[0]._images is None
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if fresh:
                _count(self.counts, name, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer entry points; call after importing ``repspect.cli``."""
        from repspect import cli, commutant, moments, report
        from repspect.representations import Representation

        def layer_name(fn) -> str:
            return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        for module, names in ((cli, CLI_CALLS), (report, REPORT_CALLS)):
            for attr in names:
                fn = getattr(module, attr)
                setattr(module, attr, self.wrap(fn, layer_name(fn)))
        Representation.table_images = self.wrap(
            Representation.table_images, "representations.table_images"
        )
        for module in (commutant, moments):
            module.haar_matrices = self.wrap(module.haar_matrices, "groups.haar_matrices")

    def self_seconds(self) -> dict:
        """Per span name: summed duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict = {}
        for s, inner in zip(self.spans, child_time):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - inner)
        return out

    def peak_megabytes(self) -> dict:
        """Per span name: the largest tracemalloc peak above entry, in MB."""
        out: dict = {}
        for s in self.spans:
            out[s["name"]] = max(out.get(s["name"], 0.0), s["peak_bytes"] / 1e6)
        return out
