"""Spans around the package's public stages, installed from outside it.

The tracer replaces module attributes where the callers look them up:
``verification.run_case`` finds its pipeline stages by name in the
``verification`` module, and ``statics`` and ``dynamics`` call
``scipy.sparse.linalg.splu``.  So no file of the package changes.  Every
call becomes a span with its parent; counts (system sizes, L+U fill, steps,
load calls) are exact.  A span's self time is its duration minus the time
its child spans cover.  The cost of taking counts sits in ``trace.count``
spans, so it is charged to the tracer and not to the stage it measures.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# verification-module attribute -> layer of its span
STAGES = {
    "builtin_case": "verification.case",
    "build_uniform_square_mesh": "mesh.build",
    "build_spaces": "spaces.build",
    "assemble": "assembly.matrices",
    "build_initial_data": "statics.initial",
    "integrate": "dynamics.integrate",
    "l2_error": "verification.error",
}
# layer of a factorization, by the stage that asked for it; the static LU is
# part of building the initial data
FACTOR_LAYERS = {"statics.initial": "statics.initial",
                 "dynamics.integrate": "dynamics.factor"}


@dataclass
class Span:
    layer: str
    parent: int | None
    mesh: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    stamps: list | None = None  # integrate: time after the initial state and each step


class Tracer:
    """Collects spans in memory; ``mesh`` tags spans with the current mesh."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.mesh: int | None = None

    def _begin(self, layer: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(layer, parent, self.mesh, time.perf_counter())
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, layer: str):
        span = self._begin(layer)
        try:
            yield span
        finally:
            self._end(span)

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)
        return traced

    def _factor_layer(self) -> str:
        for idx in reversed(self._open):
            layer = FACTOR_LAYERS.get(self.spans[idx].layer)
            if layer is not None:
                return layer
        return "linalg.factor"

    def _wrap_splu(self, splu):
        @functools.wraps(splu)
        def traced(A, *args, **kwargs):
            with self.span(self._factor_layer()) as span:
                lu = splu(A, *args, **kwargs)
            with self.span("trace.count"):
                span.counts.update(dim=A.shape[0], lu_nnz=lu.L.nnz + lu.U.nnz)
            return lu
        return traced

    def _wrap_assemble(self, assemble):
        @functools.wraps(assemble)
        def traced(*args, **kwargs):
            with self.span("assembly.matrices") as span:
                system = assemble(*args, **kwargs)
            with self.span("trace.count"):
                span.counts["matrix_nnz"] = sum(
                    m.nnz for m in (system.Amat, system.Bmat, system.Cmat, system.Mmat))
                system.load = self.wrap("assembly.load", system.load)
                system.dirichlet_load = self.wrap("assembly.load", system.dirichlet_load)
            return system
        return traced

    def _wrap_integrate(self, integrate):
        signature = inspect.signature(integrate)

        @functools.wraps(integrate)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            stamps = []
            bound.arguments["observers"] = [
                *bound.arguments.get("observers", ()),
                lambda *_: stamps.append(time.perf_counter())]
            with self.span("dynamics.integrate") as span:
                span.stamps = stamps
                return integrate(*bound.args, **bound.kwargs)
        return traced

    @contextmanager
    def installed(self, verification):
        """Patch the stages and ``splu`` for the duration of the block."""
        import scipy.sparse.linalg as spla

        special = {"assemble": self._wrap_assemble, "integrate": self._wrap_integrate}
        patches = [(spla, "splu", self._wrap_splu(spla.splu))]
        for name, layer in STAGES.items():
            fn = getattr(verification, name)
            patches.append((verification, name,
                            special[name](fn) if name in special else self.wrap(layer, fn)))
        saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
        try:
            for obj, name, new in patches:
                setattr(obj, name, new)
            yield self
        finally:
            for obj, name, old in saved:
                setattr(obj, name, old)

    # -- reduction -------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self, wall_s: float) -> dict:
        """Layer self times, per-mesh counts and the finest mesh's step times.

        ``other_s`` is the benchmark's own explicitly timed work (spans named
        ``other.*``: the import and the reference check); ``gap_s`` is the
        part of ``wall_s`` that no span covers.
        """
        own = self.self_times()
        layers: dict[str, float] = {}
        meshes: dict[int, dict] = {}
        for s, t in zip(self.spans, own):
            layers[s.layer] = layers.get(s.layer, 0.0) + t
            if s.mesh is None:
                continue
            m = meshes.setdefault(s.mesh, {"layers": {}, "counts": {"assembly.load_calls": 0}})
            m["layers"][s.layer] = m["layers"].get(s.layer, 0.0) + t
            counts = m["counts"]
            if s.layer == "assembly.load":
                counts["assembly.load_calls"] += 1
            elif s.layer == "assembly.matrices":
                counts["assembly.matrix_nnz"] = s.counts["matrix_nnz"]
            elif s.layer == "dynamics.integrate":
                counts["dynamics.steps"] = len(s.stamps) - 1
            elif "lu_nnz" in s.counts:  # a factorization, named by its module
                prefix = s.layer.split(".")[0]
                counts[f"{prefix}.lu_nnz"] = s.counts["lu_nnz"]
                counts[f"{prefix}.dim"] = s.counts["dim"]
        return {
            "layers": layers,
            "other_s": sum(t for name, t in layers.items() if name.startswith("other.")),
            "gap_s": wall_s - sum(layers.values()),
            "meshes": [{"n": n, **meshes[n]} for n in sorted(meshes)],
            "finest_steps": self._step_times(),
        }

    def _step_times(self) -> dict:
        """Per-step times on the last integrate call, first step excluded
        (it holds the lazy step factorization)."""
        run = [s for s in self.spans if s.layer == "dynamics.integrate"][-1]
        loads = sorted((s.start, s.end - s.start) for s in self.spans
                       if s.layer == "assembly.load" and run.start <= s.start <= run.end)
        starts = [t for t, _ in loads]
        step_ms, load_ms = [], []
        for prev, cur in zip(run.stamps[1:], run.stamps[2:]):
            lo, hi = bisect.bisect_left(starts, prev), bisect.bisect_left(starts, cur)
            step_ms.append(1e3 * (cur - prev))
            load_ms.append(1e3 * sum(d for _, d in loads[lo:hi]))
        return {"step_ms": step_ms, "load_ms": load_ms,
                "step_self_ms": [s - l for s, l in zip(step_ms, load_ms)]}
