"""Time stepper: conservation, energy bookkeeping, root policy, determinism."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import nspnp.scheme as scheme
from nspnp.diagnostics import DIAG_COLUMNS
from nspnp.fem import assemble_load, interpolate
from nspnp.mesh import build_rect_mesh
from nspnp.mms import example1, example3
from nspnp.sparse import RepeatedBlock, cg
from nspnp.scheme import (
    Operators,
    SchemeParams,
    SourceTerms,
    _stable_roots,
    advance,
    compute_velocity_split,
    init_state,
    initial_record,
    pressure_projection,
    solve_xi,
    step_concentrations,
    step_potential,
)


@pytest.fixture(scope="module")
def ex3_ops():
    case = example3()
    mesh = build_rect_mesh(case.bounds, 8, 8)
    return case, Operators(mesh, velocity_bc=case.velocity_bc)


def small_run(case, ops, tau=0.05, steps=4, c0=5.0):
    params = SchemeParams(tau=tau, t_final=tau * steps, c0=c0)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    records = [initial_record(ops, state)]
    for _ in range(params.n_steps):
        state, rec = advance(ops, state, params, case.sources)
        records.append(rec)
    return params, state, records


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(tau=-0.1, t_final=1.0, c0=1.0)
    with pytest.raises(ValueError):
        SchemeParams(tau=0.1, t_final=0.0, c0=1.0)
    with pytest.raises(ValueError):
        SchemeParams(tau=0.1, t_final=1.0, c0=-1.0)
    with pytest.raises(ValueError):
        SchemeParams(tau=0.3, t_final=1.0, c0=1.0)  # horizon not a multiple
    assert SchemeParams(tau=0.1, t_final=1.0, c0=1.0).n_steps == 10


def test_init_state_bootstraps_potential_and_r(ex3_ops):
    case, ops = ex3_ops
    params = SchemeParams(tau=0.1, t_final=0.5, c0=5.0)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    # Potential solves the charge equation with zero mean.
    residual = ops.stiff_p1 @ state.phi.values - ops.mass_p1 @ (
        state.c1.values - state.c2.values
    )
    assert np.linalg.norm(residual) < 1e-8
    assert abs(ops.integral_mean(state.phi.values)) < 1e-12
    energy = 0.5 * state.phi.values @ (ops.stiff_p1 @ state.phi.values) + params.c0
    assert state.r == pytest.approx(np.sqrt(energy), rel=1e-12)
    assert state.time == 0.0 and state.step_index == 0


def test_init_state_warns_on_negative_concentration(ex3_ops):
    case, ops = ex3_ops
    params = SchemeParams(tau=0.1, t_final=0.1, c0=5.0)
    with pytest.warns(RuntimeWarning):
        init_state(
            ops,
            lambda x, y, t: np.cos(np.pi * x) - 0.5,
            case.c2_0,
            case.u_0,
            case.p_0,
            params,
        )


def test_source_free_masses_conserved_each_step(ex3_ops):
    case, ops = ex3_ops
    params, state, records = small_run(case, ops, steps=5)
    m1 = [rec.mass_c1 for rec in records]
    m2 = [rec.mass_c2 for rec in records]
    for seq in (m1, m2):
        drift = max(abs(v - seq[0]) for v in seq) / abs(seq[0])
        assert drift < 1e-9


def test_sourced_mass_balance_matches_load_integral():
    # With sources the discrete mass changes by exactly tau * (1^T load).
    case = example1()
    mesh = build_rect_mesh(case.bounds, 8, 8)
    ops = Operators(mesh, velocity_bc=case.velocity_bc)
    params = SchemeParams(tau=0.1, t_final=0.1, c0=10.0)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    c1, c2 = step_concentrations(ops, state, params, case.sources, t_next=0.1)
    load = assemble_load(ops.scalar_space, case.sources.f_c1, 0.1)
    before = np.sum(ops.mass_p1 @ state.c1.values)
    after = np.sum(ops.mass_p1 @ c1.values)
    assert after - before == pytest.approx(params.tau * load.values.sum(), abs=1e-9)


def test_energy_identity_residual_tiny(ex3_ops):
    case, ops = ex3_ops
    params, state, records = small_run(case, ops, steps=5)
    scale = max(1.0, records[0].E_h)
    for rec in records:
        assert abs(rec.energy_residual) <= 1e-12 * scale


def test_discrete_energy_monotone_and_dissipation_nonnegative(ex3_ops):
    case, ops = ex3_ops
    params, state, records = small_run(case, ops, steps=6)
    energies = [rec.E_h for rec in records]
    for a, b in zip(energies, energies[1:]):
        assert b - a <= 1e-10
    for rec in records:
        assert rec.diss_u >= -1e-12
        assert rec.diss_charge >= -1e-12
        assert rec.diss_drift >= -1e-12
    originals = [rec.E_orig for rec in records[1:]]
    for a, b in zip(originals, originals[1:]):
        assert b - a <= 1e-10


def test_zero_data_gives_xi_exactly_one(ex3_ops):
    # With zero velocity and equal constant concentrations the quadratic for
    # xi has roots {0, 1}; the closer-to-one policy must pick 1 exactly and r
    # must stay at sqrt(C0).
    case, ops = ex3_ops
    params = SchemeParams(tau=0.1, t_final=0.3, c0=5.0)
    zero = lambda x, y, t: np.zeros_like(x)
    state = init_state(
        ops,
        lambda x, y, t: np.ones_like(x),
        lambda x, y, t: np.ones_like(x),
        lambda x, y, t: np.zeros((2,) + x.shape),
        zero,
        params,
    )
    for _ in range(3):
        state, rec = advance(ops, state, params)
        # xi = b/a with a = 2*C0 and b = 2*r*sqrt(E); r = sqrt(C0) re-squared
        # costs one ulp, hence machine-epsilon slack rather than equality.
        assert rec.xi == pytest.approx(1.0, abs=5e-15)
        assert rec.r == pytest.approx(np.sqrt(params.c0), rel=1e-12)
        assert np.linalg.norm(state.u.values) < 1e-12


def test_stable_roots_cancellation_free():
    # Large b against tiny a*c: naive quadratic formula loses the small root.
    a, b, c = 1e-8, 1.0, 1e-8
    lo, hi = sorted(_stable_roots(a, b, c, b * b - 4 * a * c))
    assert lo == pytest.approx(1e-8, rel=1e-10)
    assert hi == pytest.approx(1e8, rel=1e-10)
    r1, r2 = _stable_roots(1.0, 3.0, 2.0, 1.0)
    assert sorted((r1, r2)) == pytest.approx([1.0, 2.0], rel=1e-14)


def test_advance_diag_record_matches_columns(ex3_ops):
    case, ops = ex3_ops
    params, state, records = small_run(case, ops, steps=2)
    row = records[-1].as_row()
    assert len(row) == len(DIAG_COLUMNS)
    assert records[-1].field_names() == DIAG_COLUMNS
    assert records[-1].step == 2
    assert records[-1].time == pytest.approx(2 * params.tau)


def test_velocity_boundary_values_exact_trace():
    # Tangential manufactured data: after a step the velocity matches the
    # prescribed trace on every boundary node exactly (pinned rows).
    case = example1()
    mesh = build_rect_mesh(case.bounds, 8, 8)
    ops = Operators(mesh, velocity_bc=case.velocity_bc)
    params = SchemeParams(tau=0.1, t_final=0.1, c0=10.0)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    state, _ = advance(ops, state, params, case.sources)
    bdofs = ops.velocity_space.boundary_dofs()
    expected = ops.boundary_values(state.time)
    np.testing.assert_allclose(state.u.values[:, bdofs], expected, atol=1e-13)
    np.testing.assert_allclose(state.u_hat.values[:, bdofs], expected, atol=1e-13)


def test_pressure_and_potential_zero_mean(ex3_ops):
    case, ops = ex3_ops
    params, state, records = small_run(case, ops, steps=3)
    assert abs(ops.integral_mean(state.p.values)) < 1e-12
    assert abs(ops.integral_mean(state.phi.values)) < 1e-12


def test_potential_and_pressure_solve_their_neumann_systems_to_round_off():
    # One factor of the P1 stiffness serves both solves; the residuals sit far
    # below the 1e-10 that the Krylov solves stopped at.
    case = example3()
    ops = Operators(build_rect_mesh(case.bounds, 16, 16), velocity_bc=case.velocity_bc)
    params = SchemeParams(tau=0.05, t_final=0.05, c0=case.c0)
    old = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    new, _ = advance(ops, old, params, case.sources)

    def relative_residual(x, rhs):
        rhs = rhs - rhs.mean()  # the consistent part
        return np.linalg.norm(ops.stiff_p1 @ x - rhs) / np.linalg.norm(rhs)

    charge = ops.mass_p1 @ (new.c1.values - new.c2.values)
    pressure = ops.stiff_p1 @ old.p.values - ops.div @ new.u_hat.values.ravel() / params.tau
    for x, rhs in ((new.phi.values, charge), (new.p.values, pressure)):
        assert relative_residual(x, rhs) <= 1e-11
        assert abs(ops.integral_mean(x)) <= 1e-14 * np.abs(x).max()


def test_step_potential_warns_on_incompatible_charge(ex3_ops):
    case, ops = ex3_ops
    scalar = ops.scalar_space
    c1 = interpolate(scalar, lambda x, y, t: np.ones_like(x), 0.0)
    c2 = interpolate(scalar, lambda x, y, t: np.zeros_like(x), 0.0)
    with pytest.warns(RuntimeWarning):
        step_potential(ops, c1, c2)


def test_reruns_are_bit_identical(ex3_ops):
    case, ops = ex3_ops

    def run():
        params, state, records = small_run(case, ops, steps=4)
        return state

    s1 = run()
    s2 = run()
    for name in ("c1", "c2", "phi", "u", "p"):
        np.testing.assert_array_equal(
            getattr(s1, name).values, getattr(s2, name).values
        )
    assert s1.r == s2.r


def test_operator_caches_reused_per_tau(ex3_ops):
    # Only the current tau is kept; asking for another one replaces it.
    case, ops = ex3_ops
    params = SchemeParams(tau=0.05, t_final=0.1, c0=5.0)
    other = dataclasses.replace(params, tau=0.025)
    for build in (ops.velocity_system, ops.transport_base):
        first = build(params)
        assert build(params) is first
        assert build(other) is not first
        assert build(params) is not first  # rebuilt: the other tau replaced it


def test_one_cell_mesh_steps():
    # No interior vertex: the two-level cycle has an empty coarse space.
    case = example3()
    params, state, records = small_run(
        case, Operators(build_rect_mesh(case.bounds, 1, 1), velocity_bc=case.velocity_bc), steps=2
    )
    assert records[-1].E_h <= records[0].E_h


@pytest.mark.parametrize("nx", [16, 32])
def test_velocity_iterations_stay_flat_under_refinement(nx, monkeypatch):
    # The two-level cycle keeps the u1/u2 CG counts bounded as h shrinks;
    # Jacobi-CG needs O(1/h) more iterations per halving.
    iterations = []

    def counting_cg(*args, **kwargs):
        x, report = cg(*args, **kwargs)
        iterations.append(report.iterations)
        return x, report

    monkeypatch.setattr(scheme, "cg", counting_cg)
    case = example3()
    ops = Operators(build_rect_mesh(case.bounds, nx, nx), velocity_bc=case.velocity_bc)
    params = SchemeParams(tau=0.05, t_final=0.1, c0=case.c0)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    for _ in range(params.n_steps):
        state, _ = advance(ops, state, params, case.sources)
        iterations.clear()
        compute_velocity_split(ops, state, params, case.sources, state.time + params.tau)
        assert len(iterations) == 2
        assert max(iterations) <= 30


def test_velocity_split_matches_jacobi_oracle():
    # Nonzero boundary data and sources: the split must agree with plain
    # Jacobi-CG on the same eliminated matrix, boundary entries included.
    case = example1()
    ops = Operators(build_rect_mesh(case.bounds, 8, 8), velocity_bc=case.velocity_bc)
    params = SchemeParams(tau=0.1, t_final=0.2, c0=case.c0)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    state, _ = advance(ops, state, params, case.sources)
    t_next = state.time + params.tau
    split = compute_velocity_split(ops, state, params, case.sources, t_next)

    system, _ = ops.velocity_system(params)
    matrix = RepeatedBlock(system.matrix)
    rhs1 = ops.mass_vec @ state.u.values.ravel() / params.tau + ops.div_t @ state.p.values
    rhs1 = rhs1 + assemble_load(ops.velocity_space, case.sources.f_u, t_next).values.ravel()
    g = ops.boundary_values(t_next)
    # CG never moves the pinned entries of its start vectors.
    np.testing.assert_array_equal(split.u1.values[:, ops.velocity_dirichlet], g)
    np.testing.assert_array_equal(split.u2.values[:, ops.velocity_dirichlet], 0.0)
    for got, rhs in (
        (split.u1.values.ravel(), system.reduce_rhs(rhs1, g)),
        (split.u2.values.ravel(), system.reduce_rhs(-split.forcing)),
    ):
        oracle, report = cg(matrix, rhs, tol=1e-14, max_iter=100_000)
        assert report.converged
        assert np.abs(got - oracle).max() <= 1e-9 * max(1.0, np.abs(oracle).max())
