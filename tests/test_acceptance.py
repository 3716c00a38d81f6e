"""End-to-end acceptance gates at production resolution.

Four expensive ladders back these tests: two manufactured-solution
convergence sweeps compared against recorded reference error tables, a
source-free structure-preservation run, and the auxiliary-variable
consistency check.  The reference-table comparisons are strict: they flag
any systematic deviation from the recorded values instead of being tuned
to pass.  Expect several minutes of wall time for the whole module.
"""

from __future__ import annotations

import numpy as np
import pytest

from nspnp.cli import cmd_convergence, cmd_run, parse_config
from nspnp.mms import case_by_name, convergence_study, run_case
from nspnp.scheme import Operators, SchemeParams
from nspnp.selfcheck import run_all

pytestmark = pytest.mark.slow

# Reference final-time errors for the two manufactured benchmarks, one tuple
# per field in the order of the case's published tau ladder (largest first).
# Rates between consecutive ladder entries should sit near 1 (first order).

EX1_TAUS = (0.1, 0.05, 0.025, 0.0125)
EX1_L2 = {
    "c1": (1.76e-1, 8.49e-2, 4.17e-2, 2.06e-2),
    "c2": (5.89e-2, 2.85e-2, 1.40e-2, 6.94e-3),
    "phi": (6.30e-3, 3.16e-3, 1.65e-3, 9.13e-4),
    "u": (8.51e-2, 4.10e-2, 1.98e-2, 9.74e-3),
    "p": (5.28e-2, 2.04e-2, 9.04e-3, 4.11e-3),
}
EX1_H1 = {
    "c1": (8.09e-2, 4.00e-2, 2.13e-2, 9.32e-3),
    "c2": (2.71e-2, 1.34e-2, 7.13e-3, 3.43e-3),
    "phi": (2.85e-3, 1.45e-3, 7.94e-4, 4.05e-4),
    "u": (9.23e-2, 4.09e-2, 1.81e-2, 8.81e-3),
}

EX2_TAUS = (0.01, 0.005, 0.0025, 0.00125)
# The recorded c2 entry at tau=0.005 prints as 8.60e-3, contradicting both
# its own 0.95 rate column and the c1 column it must equal by the symmetry
# c2(x, y, t) = c1(x, y, t) of this case; the consistent 8.60e-4 is frozen.
EX2_L2 = {
    "c1": (1.67e-3, 8.60e-4, 4.42e-4, 2.29e-4),
    "c2": (1.67e-3, 8.60e-4, 4.42e-4, 2.29e-4),
    "phi": (1.79e-4, 9.23e-5, 4.75e-5, 2.48e-5),
    "u": (6.52e-3, 3.35e-3, 1.70e-3, 8.56e-4),
    "p": (2.70e-3, 1.26e-3, 5.75e-4, 2.62e-4),
}
EX2_H1 = {
    "c1": (7.65e-3, 3.96e-3, 2.06e-3, 1.11e-3),
    "c2": (7.65e-3, 3.96e-3, 2.06e-3, 1.11e-3),
    "phi": (7.90e-4, 4.11e-4, 2.16e-4, 1.18e-4),
    "u": (4.81e-2, 2.47e-2, 1.25e-2, 6.31e-3),
}

EX3_TAUS = (0.1, 0.05, 0.01, 0.005)

CHECK_NAMES = (
    "quadrature_exactness_deg5",
    "partition_of_unity",
    "operator_structure",
    "solvers_vs_dense",
    "singular_neumann_solver",
    "dirichlet_pinning",
    "sources_vs_finite_differences",
    "splitting_linearity",
    "velocity_preconditioner",
)


@pytest.fixture(scope="session")
def ex1_rows():
    case = case_by_name("example1")
    assert case.bounds == (-1.0, -1.0, 1.0, 1.0)
    assert case.nx == 40 and case.c0 == 10.0 and case.t_final == 1.0
    assert case.taus == EX1_TAUS
    params = SchemeParams(tau=EX1_TAUS[0], t_final=1.0, c0=10.0)
    return convergence_study(case, params, list(EX1_TAUS))


@pytest.fixture(scope="session")
def ex2_rows():
    case = case_by_name("example2")
    assert case.bounds == (-1.0, -1.0, 1.0, 1.0)
    assert case.nx == 80 and case.c0 == 10.0 and case.t_final == 0.1
    assert case.taus == EX2_TAUS
    params = SchemeParams(tau=EX2_TAUS[0], t_final=0.1, c0=10.0)
    return convergence_study(case, params, list(EX2_TAUS))


@pytest.fixture(scope="session")
def ex3_traces():
    case = case_by_name("example3")
    assert case.bounds == (0.0, 0.0, 1.0, 1.0)
    assert case.nx == 100 and case.c0 == 5.0 and case.t_final == 1.0
    assert case.taus == EX3_TAUS
    from nspnp.mesh import build_rect_mesh

    mesh = build_rect_mesh(case.bounds, case.nx, case.nx)
    ops = Operators(mesh, velocity_bc=case.velocity_bc)
    traces = {}
    for tau in EX3_TAUS:
        params = SchemeParams(tau=tau, t_final=case.t_final, c0=case.c0)
        _, records, _ = run_case(case, params, ops=ops)
        traces[tau] = records
    return traces


@pytest.fixture(scope="session")
def selfcheck_results():
    return {seed: {res.name: res for res in run_all(seed=seed)} for seed in (0, 1)}


def assert_error_column(rows, taus, field, norm, reference, rate_window):
    """All rates inside the window and every error within 2x of its reference."""
    lo, hi = rate_window
    lines = []
    failed = False
    for index, (row, tau) in enumerate(zip(rows, taus)):
        err = row[f"e_{field}_{norm}"]
        ref = reference[field][index]
        ratio = err / ref
        rate = row[f"rate_{field}_{norm}"]
        ok = 0.5 <= ratio <= 2.0 and (rate is None or lo <= rate <= hi)
        failed = failed or not ok
        rate_text = "" if rate is None else f"{rate:.2f}"
        lines.append(
            f"  tau={tau:<8g} {field}.{norm}: measured {err:.3e}"
            f" reference {ref:.3e} ratio {ratio:.2f} rate {rate_text}"
            f" {'' if ok else '<-- outside bounds'}"
        )
    message = (
        f"{field} {norm} column vs reference (ratio must lie in [0.5, 2],"
        f" rates in [{lo}, {hi}]):\n" + "\n".join(lines)
    )
    assert not failed, message


# --- criterion 1: coarse trigonometric benchmark ----------------------------


@pytest.mark.parametrize("field", ("c1", "c2", "phi", "u", "p"))
def test_ex1_l2_column(ex1_rows, field):
    assert_error_column(ex1_rows, EX1_TAUS, field, "L2", EX1_L2, (0.8, 1.4))


@pytest.mark.parametrize("field", ("c1", "c2", "phi", "u"))
def test_ex1_h1_column(ex1_rows, field):
    assert_error_column(ex1_rows, EX1_TAUS, field, "H1", EX1_H1, (0.8, 1.4))


# --- criterion 2: fine short-horizon benchmark ------------------------------


@pytest.mark.parametrize("field", ("c1", "c2", "phi", "u", "p"))
def test_ex2_l2_column(ex2_rows, field):
    assert_error_column(ex2_rows, EX2_TAUS, field, "L2", EX2_L2, (0.85, 1.2))


@pytest.mark.parametrize("field", ("c1", "c2", "phi", "u"))
def test_ex2_h1_column(ex2_rows, field):
    assert_error_column(ex2_rows, EX2_TAUS, field, "H1", EX2_H1, (0.85, 1.2))


# --- criterion 3: structure preservation at production resolution -----------


@pytest.mark.parametrize("tau", EX3_TAUS)
def test_ex3_discrete_energy_monotone(ex3_traces, tau):
    records = ex3_traces[tau]
    for before, after in zip(records, records[1:]):
        assert after.E_h <= before.E_h + 1e-10, (
            f"tau={tau}: E_h rose {before.E_h!r} -> {after.E_h!r}"
            f" at step {after.step}"
        )


@pytest.mark.parametrize("tau", EX3_TAUS)
def test_ex3_original_energy_monotone_after_first_step(ex3_traces, tau):
    records = ex3_traces[tau]
    for before, after in zip(records[1:], records[2:]):
        assert after.E_orig <= before.E_orig, (
            f"tau={tau}: E_orig rose {before.E_orig!r} -> {after.E_orig!r}"
            f" at step {after.step}"
        )


@pytest.mark.parametrize("tau", EX3_TAUS)
def test_ex3_mass_conservation(ex3_traces, tau):
    records = ex3_traces[tau]
    for attr in ("mass_c1", "mass_c2"):
        initial = getattr(records[0], attr)
        drift = max(abs(getattr(r, attr) - initial) for r in records)
        assert drift / abs(initial) <= 1e-9, f"tau={tau}: {attr} drifted {drift:.3e}"


def test_ex3_nodal_nonnegativity(ex3_traces):
    # Positivity is observed, not guaranteed, for this discretization; every
    # excursion below the soft floor is logged before the assertion.
    violations = []
    for tau, records in ex3_traces.items():
        for record in records:
            low = min(record.min_c1, record.min_c2)
            if low < -1e-6:
                violations.append((tau, record.step, low))
    for tau, step, low in violations:
        print(f"negative concentration {low:.3e} at tau={tau} step {step}")
    assert not violations, f"{len(violations)} steps fell below -1e-6"


# --- criterion 4: auxiliary variable tracks 1 at first order ----------------


def test_xi_deviation_shrinks_with_tau(ex3_traces):
    deviations = {
        tau: max(abs(r.xi - 1.0) for r in ex3_traces[tau][1:]) for tau in EX3_TAUS
    }
    coarse, fine = deviations[0.01], deviations[0.005]
    assert fine > 0.0
    assert coarse / fine >= 1.5, (
        f"max|xi-1| went {coarse:.3e} -> {fine:.3e} when tau halved"
        f" (ratio {coarse / fine:.2f} < 1.5)"
    )


# --- criterion 5: deterministic property suite ------------------------------


def test_property_suite_schema(selfcheck_results):
    assert tuple(selfcheck_results[0]) == CHECK_NAMES


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("name", CHECK_NAMES)
def test_property_suite(selfcheck_results, name, seed):
    result = selfcheck_results[seed][name]
    assert result.passed, f"seed {seed}: {result.detail}"


def test_repeated_runs_are_byte_identical(tmp_path):
    run_config = parse_config("case=example3\nnx=6\ntau=0.1\nt_final=0.3\n")
    sweep_config = parse_config("case=example1\nnx=8\ntaus=0.1 0.05\nt_final=0.2\n")
    for sub in ("a", "b"):
        out = tmp_path / sub
        cmd_run(run_config, out)
        cmd_convergence(sweep_config, out)
    for name in ("diagnostics.csv", "summary.csv", "errors.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"


def test_xi_stays_near_one_at_production_resolution(ex3_traces):
    # Sanity floor under criterion 4: deviations are small outright, not just
    # shrinking.  Guards against a ladder where xi wanders but still halves.
    for tau, records in ex3_traces.items():
        worst = max(abs(r.xi - 1.0) for r in records[1:])
        assert worst < 0.5, f"tau={tau}: xi deviated by {worst:.3f}"
        assert np.isfinite(worst)
