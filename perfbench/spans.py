"""Per-layer spans, recorded around calls into ``revcomp``'s public functions.

:class:`Tracer` replaces each traced function, at every module that binds it,
with a wrapper that records a span (name, start, end, parent, work count).
Spans stay in memory; :meth:`Tracer.layer_metrics` folds them into the
per-layer metrics of ``BENCHMARK.json``.  The program itself is not changed.
"""
from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

from revcomp import asymptotic, channels, io, partition, quantum

MODULES = (channels, partition, asymptotic, quantum, io)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    work: int = 0
    child_time: float = 0.0


def _blocks(result, *args, **kwargs) -> int:
    return result.num_blocks


def _pairs(result, channel) -> int:
    n = channel.num_inputs
    return n * (n - 1) // 2


def _file_bytes(result, path) -> int:
    return os.path.getsize(path)


# name -> (module or class holding the function, attribute, work count)
FUNCTIONS = {
    "channels.reverse_fidelity_matrix": (channels, "reverse_fidelity_matrix", _pairs),
    "channels.ClassicalChannel.init": (channels.ClassicalChannel, "__post_init__", None),
    "partition.graph_from_fidelity_matrix": (partition, "graph_from_fidelity_matrix",
                                             lambda g, *a, **k: g.size),
    "partition.solve_greedy": (partition, "solve_greedy", _blocks),
    "partition.solve_exact": (partition, "solve_exact", _blocks),
    "partition.compress": (partition, "compress", None),
    "asymptotic.product_fidelity_matrix": (asymptotic, "product_fidelity_matrix",
                                           lambda m, *a, **k: m.size),
    "asymptotic.gamma_k": (asymptotic, "gamma_k", None),
    "asymptotic.min_s_bounded_partition_size": (asymptotic, "min_s_bounded_partition_size",
                                                None),
    "quantum.vector_kernel": (quantum, "vector_kernel", None),
    "quantum.channel_indistinguishability": (quantum, "channel_indistinguishability",
                                             lambda r, *a, **k: r.probe_count),
    "quantum.quantum_fidelity": (quantum, "quantum_fidelity", None),
    "quantum.DensityMatrix.init": (quantum.DensityMatrix, "__post_init__", None),
    "quantum.make_coarse_graining": (quantum, "make_coarse_graining", None),
    "quantum.verify_erasure_theorem": (quantum, "verify_erasure_theorem", None),
    "io.load_json": (io, "load_json", _file_bytes),
    "io.parse_channel_data": (io, "parse_channel_data", None),
    "io.dump_json": (io, "dump_json", lambda text, *a, **k: len(text.encode())),
}

# Per-layer metrics: (metric suffix, span field).  ``gamma_k`` spans are
# renamed after the call by the regime the result reports.
LAYERS = {
    "channels.reverse_fidelity_matrix": ("calls", "ms", "pairs"),
    "channels.ClassicalChannel.init": ("calls", "ms"),
    "partition.graph_from_fidelity_matrix": ("ms", "vertices"),
    "partition.solve_greedy": ("calls", "ms", "blocks"),
    "partition.solve_exact": ("calls", "ms", "blocks"),
    "partition.compress": ("self_ms",),
    "asymptotic.product_fidelity_matrix": ("ms", "entries"),
    "asymptotic.gamma_k.exact": ("calls", "ms"),
    "asymptotic.gamma_k.greedy_lower_bound": ("calls", "ms"),
    "asymptotic.gamma_k.closed_form": ("calls", "ms"),
    "asymptotic.min_s_bounded_partition_size": ("calls", "ms"),
    "quantum.vector_kernel": ("calls", "ms"),
    "quantum.channel_indistinguishability": ("ms", "probes"),
    "quantum.quantum_fidelity": ("calls", "ms"),
    "quantum.DensityMatrix.init": ("calls", "ms"),
    "quantum.make_coarse_graining": ("self_ms",),
    "quantum.verify_erasure_theorem": ("self_ms",),
    "io.load_json": ("ms", "bytes"),
    "io.parse_channel_data": ("ms",),
    "io.dump_json": ("ms", "bytes"),
    "cli.main": ("self_ms",),
}

UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "bytes": "bytes"}


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, work=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = self.spans[index]
            span.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_time += span.end - span.start
        if work is not None:
            span.work = work(result, *args, **kwargs)
        if name == "asymptotic.gamma_k":
            span.name = f"{name}.{result.method}"
        return result

    def _wrap(self, name: str, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, work=work, **kwargs)
        return traced

    def __enter__(self) -> "Tracer":
        for name, (owner, attr, work) in FUNCTIONS.items():
            original = getattr(owner, attr)
            traced = self._wrap(name, original, work)
            holders = [owner] if isinstance(owner, type) else [
                m for m in MODULES if getattr(m, attr, None) is original]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer totals over the recorded spans, divided by ``passes``."""
        totals = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "work": 0} for name in LAYERS}
        for span in self.spans:
            if span.name not in totals:
                continue
            t = totals[span.name]
            duration = span.end - span.start
            t["calls"] += 1
            t["ms"] += duration * 1e3
            t["self_ms"] += (duration - span.child_time) * 1e3
            t["work"] += span.work
        metrics = {}
        for name, fields in LAYERS.items():
            for field in fields:
                value = totals[name][field if field in ("calls", "ms", "self_ms") else "work"]
                metrics[f"{name}.{field}"] = (value / passes, UNITS.get(field, "count"))
        return metrics
