"""Per-layer spans recorded from outside qic.

The tracer replaces the module attributes that qic's callers look up with
wrappers that record a span per call: name, start, end, parent and
invocation id.  A wrapper is installed on the caller's binding, not the
defining module's: ``qic.enumeration`` imports ``interfere_repeated`` by
name, so the span sits on ``qic.enumeration.interfere_repeated``.  Spans
are kept in memory; the benchmark writes them out when it ends.

With ``memory=True`` every span also records its peak ``tracemalloc``
allocation above the level at which it opened (numpy reports its buffers
to tracemalloc).  That pass runs on its own so timing spans stay light.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from dataclasses import dataclass

# span name -> the caller-side bindings it wraps, as (module, attribute).
BINDINGS = {
    "cli.main": (("qic.cli", "main"),),
    "predicate.parse": (("qic.cli", "parse_dimacs"), ("qic.cli", "parse_expr"),
                        ("qic.cli", "parse_scheme")),
    "predicate.compile": (("qic.interference", "compile_mask"),
                          ("qic.ecc", "compile_mask")),
    "predicate.exclude": (("qic.enumeration", "with_exclusions"),),
    "interference.interfere": (("qic.enumeration", "interfere_repeated"),
                               ("qic.ecc", "interfere_repeated")),
    "state.prepare": (("qic.enumeration", "uniform_superposition"),
                      ("qic.ecc", "uniform_superposition")),
    "state.sample": (("qic.enumeration", "sample"),),
    "state.flip": (("qic.ecc", "apply_partial_bit_flip"),),
    "state.fidelity": (("qic.ecc", "fidelity"),),
    "enumeration.enumerate": (("qic.cli", "enumerate_solutions"),),
    "enumeration.verify": (("qic.enumeration", "verify"),),
    "ecc.experiment": (("qic.cli", "ecc_experiment"),),
    "ecc.encode": (("qic.ecc", "encode"),),
    "ecc.noise": (("qic.ecc", "inject_noise"),),
    "ecc.mass": (("qic.ecc", "checksum_valid_mass"),),
    "ecc.correct": (("qic.ecc", "correct"),),
    "reports.render": (("qic.cli", "render_json"), ("qic.cli", "render_csv")),
}

ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int | None
    parent: int  # index into the span list, -1 for a root
    invocation: int
    error: str | None = None
    peak_bytes: int | None = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.invocation = 0
        self._stack: list[int] = []
        # Per open span in memory mode: [traced bytes at open, peak seen].
        self._mem: list[list[int]] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for name, targets in BINDINGS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # Close the span on the way out: NormCollapse escapes
                # interfere_repeated on the last run of every exhaustive
                # enumeration.
                self._close(index, type(exc).__name__)
                raise
            self._close(index, None)
            return result
        return traced

    def _open(self, name: str) -> int:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), None, parent,
                               self.invocation))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int, error: str | None) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        span.error = error
        self._stack.pop()
        if self.memory:
            base, seen = self._mem.pop()
            top = max(seen, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = top - base
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], top)
            tracemalloc.reset_peak()


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(
                (span.start_ns, span.end_ns))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start_ns
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end_ns - span.start_ns - covered)
    return out


def layer_totals(spans: list[Span], invocation: int) -> dict[str, dict]:
    """Self time (ns), call count and errors per span name, one invocation.

    Every name in BINDINGS is present, with zeros for layers not called.
    """
    totals = {name: {"self_ns": 0, "calls": 0, "errors": 0}
              for name in BINDINGS}
    for span, own in zip(spans, self_times(spans)):
        if span.invocation != invocation:
            continue
        entry = totals[span.name]
        entry["self_ns"] += own
        entry["calls"] += 1
        entry["errors"] += span.error is not None
    return totals


def peak_bytes(spans: list[Span]) -> dict[str, int]:
    """Largest tracemalloc peak of any call, per span name."""
    peaks: dict[str, int] = {}
    for span in spans:
        if span.peak_bytes is not None:
            peaks[span.name] = max(peaks.get(span.name, 0), span.peak_bytes)
    return peaks
