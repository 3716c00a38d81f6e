"""Self time, solve attribution and layer metrics of the benchmark's spans.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import spans  # noqa: E402
from spans import Recorder, Span, attribute_solves, covered, layer_metrics, self_time  # noqa: E402


class Clock:
    """Deterministic clock: each reading advances by one tick."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_covered_merges_overlaps_and_nesting():
    assert covered([]) == 0.0
    assert covered([(0, 2), (5, 6)]) == 3.0
    assert covered([(0, 4), (1, 2), (3, 6)]) == 6.0
    assert covered([(3, 6), (0, 4)]) == 6.0


def test_self_time_subtracts_children_clipped_to_the_span():
    parent = Span("p", 10.0, 20.0, None, None)
    kids = [
        Span("a", 11.0, 13.0, 0, None),
        Span("b", 12.0, 15.0, 0, None),  # overlaps a: counted once
        Span("c", 19.0, 25.0, 0, None),  # runs past the parent's end
        Span("d", 30.0, 31.0, 0, None),  # outside the parent
    ]
    assert self_time(parent, kids) == 10.0 - 4.0 - 1.0
    assert self_time(parent, []) == 10.0


def _burst(start, end, kernel_s):
    return Span("calibrate", start, end, None, None, {"kernel_s": kernel_s})


def test_warp_skips_bursts_and_scales_by_the_bracketing_bursts():
    timeline = [
        _burst(0.0, 1.0, [2.0]),  # scale 1 / 2
        Span("setup", 1.0, 5.0, None, None),
        _burst(5.0, 6.0, [0.5, 0.4, 1.0]),  # median 0.5: scale 2
        Span("unit", 6.0, 12.0, None, None),
        _burst(8.0, 9.0, [1.0]),  # inside the unit: scale 1
        Span("tail", 12.0, 13.0, None, None),
        Span("early", -2.0, -1.0, None, None),
    ]
    got = {s.name: s.duration for s in spans.warp(timeline, reference=1.0)}
    assert got["calibrate"] == 0.0
    assert got["setup"] == 4.0 * (0.5 + 2.0) / 2
    # 2 s between the bursts of scale 2 and 1, then 3 s after the last burst.
    assert got["unit"] == 2.0 * (2.0 + 1.0) / 2 + 3.0 * 1.0
    assert got["tail"] == 1.0
    assert got["early"] == 0.5  # before the first burst: its scale
    assert spans.warp(timeline, reference=3.0)[1].duration == 3.0 * got["setup"]
    with pytest.raises(ValueError):
        spans.warp(timeline[1:2], reference=1.0)


def test_calibrator_bursts_once_per_interval_of_measured_time():
    from calibrate import INTERVAL_S, Calibrator

    now = [0.0]
    cal = Calibrator(clock=lambda: now[0])
    cal.kernel = lambda: 0.0
    rec = Recorder(clock=Clock())
    cal.burst(rec)
    for t in (0.9 * INTERVAL_S, 1.5 * INTERVAL_S, 5.0 * INTERVAL_S):
        now[0] = t
        cal.burst_owed(rec)
    assert [len(s.info["kernel_s"]) for s in rec.spans] == [1, 1, 3]
    assert all(s.name == "calibrate" for s in rec.spans)


def test_recorder_parents_steps_and_order():
    rec = Recorder(clock=Clock())
    with rec.span("unit"):
        with rec.span("init_state"):
            with rec.span("step_potential"):
                pass
        for _ in range(2):
            with rec.span("advance"):
                with rec.span("solve_xi"):
                    pass
    names = [s.name for s in rec.spans]
    assert names == ["unit", "init_state", "step_potential", "advance", "solve_xi", "advance", "solve_xi"]
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0, 3, 0, 5]
    assert [s.step for s in rec.spans] == [None, None, None, 0, 0, 1, 1]
    assert all(s.end > s.start for s in rec.spans)

    outer = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(outer)


class _Report:
    def __init__(self, iterations):
        self.iterations = iterations
        self.residual = 1e-11 * iterations
        self.converged = True


class _Matrix:
    def __init__(self, nnz):
        self.nnz = nnz


def _step(rec, iterations, degenerate=None):
    """One synthetic advance() with the scheme's stage and solve order."""
    def solve(name, its, nnz):
        rec.wrap(name, lambda m: (None, _Report(its)), spans._solver_info)(_Matrix(nnz))

    with rec.span("advance"):
        with rec.span("step_concentrations"):
            with rec.span("assemble_convection"):
                pass
            solve("bicgstab", iterations["transport_c1"], 10)
            solve("bicgstab", iterations["transport_c2"], 10)
        with rec.span("step_potential"):
            solve("cg", iterations["potential"], 5)
        with rec.span("compute_velocity_split"):
            with rec.span("velocity_system"):
                pass
            solve("cg", iterations["velocity_u1"], 20)
            solve("cg", iterations["velocity_u2"], 20)
        rec.wrap("solve_xi", lambda: (1.0, 1.0, _Coeffs(degenerate)), spans._xi_info)()
        with rec.span("pressure_projection"):
            solve("cg", iterations["pressure"], 5)
            solve("cg", iterations["projection"], 20)
        with rec.span("discrete_energy"):
            pass


class _Coeffs:
    def __init__(self, degenerate):
        self.degenerate = degenerate


STEP1 = dict(transport_c1=3, transport_c2=4, potential=5, velocity_u1=6, velocity_u2=7, pressure=8, projection=9)
STEP2 = dict(transport_c1=1, transport_c2=2, potential=3, velocity_u1=4, velocity_u2=5, pressure=6, projection=7)


def _traced_unit():
    rec = Recorder(clock=Clock())
    with rec.span("unit"):
        with rec.span("init_state"):
            with rec.span("step_potential"):
                rec.wrap("cg", lambda m: (None, _Report(99)), spans._solver_info)(_Matrix(5))
        _step(rec, STEP1)
        _step(rec, STEP2, degenerate="linear")
        with rec.span("error_norms"):
            pass
    return rec


def test_solves_take_labels_from_stage_and_call_order():
    rec = _traced_unit()
    got = [(step, label, s.info["iterations"]) for step, label, s in attribute_solves(rec.spans)]
    want = [(0, label, its) for label, its in STEP1.items()] + [
        (1, label, its) for label, its in STEP2.items()
    ]
    assert got == want  # the init_state potential solve (99 iterations) is left out


def test_extra_solves_in_a_stage_fold_into_its_last_label():
    rec = Recorder(clock=Clock())
    with rec.span("advance"), rec.span("step_potential"):
        for its in (2, 3):
            rec.wrap("cg", lambda m, its=its: (None, _Report(its)), spans._solver_info)(_Matrix(1))
    assert [(label, s.info["iterations"]) for _, label, s in attribute_solves(rec.spans)] == [
        ("potential", 2),
        ("potential", 3),
    ]
    assert layer_metrics(rec.spans)["sparse.iters.potential.max"] == 5


def test_layer_metrics_account_for_advance_and_count_work():
    rec = _traced_unit()
    m = layer_metrics(rec.spans)
    stages = sum(m[f"scheme.{s}_s"] for s in spans.STAGES.values())
    assert stages + m["scheme.advance_self_s"] == pytest.approx(m["scheme.advance_s"])
    assert m["scheme.advance_self_s"] > 0  # the discrete_energy call sits directly in advance
    for label in spans.ALL_SOLVE_LABELS:
        assert m[f"sparse.iters.{label}.mean"] == (STEP1[label] + STEP2[label]) / 2
        assert m[f"sparse.iters.{label}.max"] == max(STEP1[label], STEP2[label])
    nnz = {"transport_c1": 10, "transport_c2": 10, "potential": 5, "velocity_u1": 20,
           "velocity_u2": 20, "pressure": 5, "projection": 20}
    per_iter = {label: nnz[label] * (2 if label.startswith("transport") else 1) for label in nnz}
    total = sum(per_iter[label] * (STEP1[label] + STEP2[label]) for label in nnz)
    assert m["sparse.matvec_nnz"] == total / 2
    assert m["scheme.xi_degenerate"] == 1
    assert m["sparse.unconverged"] == 0
    assert m["sparse.residual_max"] == pytest.approx(1e-11 * 9)
    assert m["scheme.tau_setup_s"] == 2 * 1.0  # one tick per velocity_system span, two steps
    assert m["fem.error_norms_s"] == 1.0
    assert m["fem.assemble_convection_s"] == 1.0


def test_mean_step_times_are_per_repetition():
    rec = Recorder(clock=Clock())
    with rec.span("unit"):
        with rec.span("advance"), rec.span("solve_xi"):  # 3 ticks
            pass
        with rec.span("advance"):  # 1 tick
            pass
    with rec.span("unit"):
        for _ in range(3):
            with rec.span("advance"):
                pass
    assert spans.mean_step_times(rec.spans) == [2.0, 1.0]


def test_metric_names_and_units_match_benchmark_json():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {row["name"]: row["unit"] for row in bench["per_layer"]}
    produced = set(layer_metrics(_traced_unit().spans))
    produced |= {"setup.mesh_s", "setup.operators_s", "setup.init_state_s", "trace.overhead_s"}
    assert produced == set(per_layer)
    assert all(spans.unit_of(name) == unit for name, unit in per_layer.items())
    assert {row["name"]: row["unit"] for row in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [row["name"] for row in bench["workloads"]] == list(run.WORKLOAD_NAMES)


def test_instrument_sees_every_stage_and_restores_the_globals():
    import nspnp.mms as mms
    import nspnp.scheme as scheme
    from nspnp.mesh import build_rect_mesh

    case = mms.example3()
    params = scheme.SchemeParams(tau=0.05, t_final=0.1, c0=case.c0)
    ops = scheme.Operators(build_rect_mesh(case.bounds, 4, 4))
    before = {name: getattr(scheme, name) for name in (*spans.STAGES, *spans.SOLVERS, *spans.KERNELS)}
    rec = Recorder()
    calls = []
    with spans.instrument(rec, full=True, between=calls.append), rec.span(spans.UNIT):
        mms.run_case(case, params, ops=ops)
    assert calls == [rec] * params.n_steps  # once after each advance()
    assert {name: getattr(scheme, name) for name in before} == before
    assert mms.advance is scheme.advance

    names = {s.name for s in rec.spans}
    assert set(spans.STAGES) | set(spans.SOLVERS) | {"advance", "init_state", "velocity_system"} <= names
    m = layer_metrics(rec.spans)
    stages = sum(m[f"scheme.{s}_s"] for s in spans.STAGES.values())
    assert stages + m["scheme.advance_self_s"] == pytest.approx(m["scheme.advance_s"], rel=1e-12)
    assert all(m[f"sparse.iters.{label}.mean"] > 0 for label in ("transport_c1", "velocity_u1", "pressure"))
    assert m["sparse.matvec_nnz"] > 0
