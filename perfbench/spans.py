"""In-memory spans around the public functions the time step looks up at call time.

``advance()`` and ``init_state()`` resolve the stages, the Krylov solvers, the
fem kernels and the diagnostics through the globals of ``nspnp.scheme``, and
``run_case`` resolves ``advance``, ``init_state`` and ``error_norms`` through
the globals of ``nspnp.mms``.  Replacing those globals with timing wrappers
therefore sees every call without touching the package source.  The
``instrument`` context manager installs the wrappers and always restores the
originals.

Spans are kept in a list (name, start, end, parent index, step id, extra
info) and only turned into metrics or written out after the run.  Their
clock is the CPU time of the process: the benchmark runs on one thread, so
this is its wall time minus the time the host gave the processor to other
guests.  The analysis helpers at the bottom are pure functions of that list,
so they are unit tested on synthetic spans.
"""

from __future__ import annotations

import functools
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from statistics import mean, median

ADVANCE = "advance"
INIT_STATE = "init_state"
UNIT = "unit"  # one repetition of a workload, opened by the benchmark
CALIBRATE = "calibrate"  # a burst of reference-kernel runs, see calibrate.py

# Stage functions of nspnp.scheme -> the stage name used in metric names.
STAGES = {
    "step_concentrations": "transport",
    "step_potential": "potential",
    "compute_velocity_split": "velocity_split",
    "solve_xi": "xi",
    "pressure_projection": "projection",
}

# Solves inside one stage span, labelled in call order.  advance() does the
# c1 transport solve before c2, u1 before u2, and pressure before projection.
SOLVE_LABELS = {
    "transport": ("transport_c1", "transport_c2"),
    "potential": ("potential",),
    "velocity_split": ("velocity_u1", "velocity_u2"),
    "projection": ("pressure", "projection"),
}
ALL_SOLVE_LABELS = tuple(label for labels in SOLVE_LABELS.values() for label in labels)

# Krylov solvers and the matrix-vector products each of their iterations makes.
SOLVERS = {"cg": 1, "bicgstab": 2}

# fem and diagnostics functions seen through nspnp.scheme globals -> layer metric.
KERNELS = {
    "assemble_convection": "fem.assemble_convection_s",
    "assemble_drift": "fem.assemble_drift_s",
    "assemble_load": "fem.assemble_load_s",
    "field_at_quadrature": "fem.quadrature_eval_s",
    "gradient_at_quadrature": "fem.quadrature_eval_s",
    "load_from_quadrature": "fem.quadrature_eval_s",
    "quadrature_integral": "fem.quadrature_eval_s",
    "discrete_energy": "diagnostics.energy_s",
    "original_energy": "diagnostics.energy_s",
    "mass": "diagnostics.energy_s",
    "extrema": "diagnostics.energy_s",
}

# Lazy tau-keyed builds on Operators.
TAU_SETUP = ("velocity_system", "transport_base")

ERROR_NORMS = "error_norms"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    step: int | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of one process; step ids count advance() calls."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._step: int | None = None
        self._steps = 0

    def open(self, name: str) -> int:
        if name == ADVANCE:
            self._step = self._steps
            self._steps += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._step))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int):
        span = self.spans[index]
        span.end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if span.name == ADVANCE:
            self._step = None

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(span, args, result) adds info."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self.spans[index], args, result)
            return result

        return wrapper


def _solver_info(span: Span, args, result):
    _, report = result
    span.info.update(
        iterations=report.iterations,
        residual=report.residual,
        converged=report.converged,
        nnz=int(args[0].nnz),
    )


def _xi_info(span: Span, args, result):
    span.info["degenerate"] = result[2].degenerate


@contextmanager
def instrument(recorder: Recorder, full: bool, between=None):
    """Install span wrappers; boundary spans only unless full.

    The boundary spans (advance, init_state) give the end-to-end step and
    set-up times; full adds every stage, solver, kernel and lazy build.
    between(recorder), if given, runs after each advance() call, outside its
    span.
    """
    import nspnp.mms as mms
    import nspnp.scheme as scheme

    after_advance = None if between is None else (lambda *_: between(recorder))
    targets = [(mms, ADVANCE, after_advance), (mms, INIT_STATE, None)]
    if full:
        targets += [(scheme, name, _xi_info if name == "solve_xi" else None) for name in STAGES]
        targets += [(scheme, name, _solver_info) for name in SOLVERS]
        targets += [(scheme, name, None) for name in KERNELS]
        targets += [(mms, ERROR_NORMS, None)]
        targets += [(scheme.Operators, name, None) for name in TAU_SETUP]
    saved = []
    try:
        for owner, name, after in targets:
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, recorder.wrap(name, original, after))
        yield recorder
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span: Span, children) -> float:
    """The span's duration minus the part of it that the children cover."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - covered(clipped)


def warp(spans, reference: float) -> list[Span]:
    """The spans on a clock that skips calibration bursts and runs at reference speed.

    A burst's scale is reference / (median of its kernel times, info
    "kernel_s").  Between two bursts the clock advances at the mean of their
    scales, before the first and after the last burst at that burst's scale,
    and inside a burst not at all.  Every duration, self time and sum taken
    on the result is then in reference seconds and leaves the bursts out.
    """
    bursts = sorted((s for s in spans if s.name == CALIBRATE), key=lambda s: s.start)
    if not bursts:
        raise ValueError("no calibration bursts recorded")
    scales = [reference / median(b.info["kernel_s"]) for b in bursts]
    knots, slopes = [], []  # slopes[i] holds from knots[i] to knots[i + 1]
    for i, b in enumerate(bursts):
        knots += [b.start, b.end]
        after = scales[i] if i + 1 == len(bursts) else 0.5 * (scales[i] + scales[i + 1])
        slopes += [0.0, after]
    values = [0.0]
    for i in range(1, len(knots)):
        values.append(values[-1] + (knots[i] - knots[i - 1]) * slopes[i - 1])

    def at(t: float) -> float:
        i = bisect_right(knots, t) - 1
        if i < 0:
            return (t - knots[0]) * scales[0]
        return values[i] + (t - knots[i]) * slopes[i]

    return [replace(s, start=at(s.start), end=at(s.end)) for s in spans]


def children_of(spans) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            out.setdefault(s.parent, []).append(i)
    return out


def _nearest(spans, index: int, names) -> int | None:
    """Nearest proper ancestor whose name is in names."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in names:
            return parent
        parent = spans[parent].parent
    return None


def attribute_solves(spans) -> list[tuple[int, str, Span]]:
    """(step, label, span) for every solver call made inside advance().

    A solve belongs to the stage of its nearest stage ancestor and takes the
    label of its position among that stage span's solves; calls beyond the
    known labels fold into the stage's last label.  Solves outside advance()
    (the potential solve of init_state) have no step and are left out.
    """
    counts: dict[int, int] = {}
    out = []
    for i, s in enumerate(spans):
        if s.name not in SOLVERS or s.step is None:
            continue
        stage_index = _nearest(spans, i, STAGES)
        if stage_index is None:
            continue
        labels = SOLVE_LABELS[STAGES[spans[stage_index].name]]
        k = counts.get(stage_index, 0)
        counts[stage_index] = k + 1
        out.append((s.step, labels[min(k, len(labels) - 1)], s))
    return out


def mean_step_times(spans) -> list[float]:
    """Mean advance() time of each repetition ('unit' span).

    The ladder's steps differ in cost by tau and run in tau order, so a
    median over single steps would time only the stretch of the run where
    the median step falls; a mean per repetition covers the whole run.
    """
    totals: dict[int, list[float]] = {}
    for i, s in enumerate(spans):
        if s.name == ADVANCE:
            totals.setdefault(_nearest(spans, i, (UNIT,)), []).append(s.duration)
    return [mean(times) for times in totals.values()]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of the traced repetitions of a workload.

    Times inside the time step and the solver counts are means per advance()
    call (the iteration counts also give their largest step); tau_setup_s,
    xi_degenerate, unconverged and error_norms_s are per repetition, a
    repetition being one 'unit' span.
    """
    kids = children_of(spans)
    steps = [i for i, s in enumerate(spans) if s.name == ADVANCE]
    if not steps:
        raise ValueError("no advance() spans recorded")
    n_units = max(1, sum(1 for s in spans if s.name == UNIT))

    def per_step(total: float) -> float:
        return total / len(steps)

    def per_unit(total: float) -> float:
        return total / n_units

    m: dict[str, float] = {}
    stage_total = {stage: 0.0 for stage in STAGES.values()}
    advance_self = 0.0
    for i in steps:
        stage_children = [spans[c] for c in kids.get(i, []) if spans[c].name in STAGES]
        for c in stage_children:
            stage_total[STAGES[c.name]] += c.duration
        advance_self += self_time(spans[i], stage_children)
    for stage, total in stage_total.items():
        m[f"scheme.{stage}_s"] = per_step(total)
    m["scheme.advance_self_s"] = per_step(advance_self)
    m["scheme.advance_s"] = per_step(sum(spans[i].duration for i in steps))
    m["scheme.tau_setup_s"] = per_unit(sum(s.duration for s in spans if s.name in TAU_SETUP))
    m["scheme.xi_degenerate"] = per_unit(
        sum(1 for s in spans if s.name == "solve_xi" and s.info.get("degenerate") is not None)
    )

    in_step = [s for s in spans if s.step is not None]
    for solver in SOLVERS:
        m[f"sparse.{solver}_s"] = per_step(sum(s.duration for s in in_step if s.name == solver))
    per_label: dict[str, dict[int, int]] = {label: {} for label in ALL_SOLVE_LABELS}
    matvec_nnz = 0
    residual_max = 0.0
    for step, label, s in attribute_solves(spans):
        its = s.info["iterations"]
        per_label[label][step] = per_label[label].get(step, 0) + its
        matvec_nnz += its * SOLVERS[s.name] * s.info["nnz"]
        residual_max = max(residual_max, s.info["residual"])
    for label in ALL_SOLVE_LABELS:
        counts = [per_label[label].get(spans[i].step, 0) for i in steps]
        m[f"sparse.iters.{label}.mean"] = mean(counts)
        m[f"sparse.iters.{label}.max"] = max(counts)
    m["sparse.matvec_nnz"] = per_step(matvec_nnz)
    m["sparse.unconverged"] = per_unit(
        sum(1 for s in spans if s.name in SOLVERS and not s.info.get("converged", True))
    )
    m["sparse.residual_max"] = residual_max

    for metric in sorted(set(KERNELS.values())):
        m[metric] = per_step(sum(s.duration for s in in_step if KERNELS.get(s.name) == metric))
    m["fem.error_norms_s"] = per_unit(sum(s.duration for s in spans if s.name == ERROR_NORMS))
    return m


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("sparse.iters."):
        return "iterations"
    return {"sparse.matvec_nnz": "nnz", "sparse.residual_max": "1"}.get(metric, "count")


def to_records(spans, part: str) -> list[dict]:
    """JSON-ready rows; ids and parents index the spans of the same part."""
    return [
        {
            "part": part,
            "id": i,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            "step": s.step,
            **s.info,
        }
        for i, s in enumerate(spans)
    ]
