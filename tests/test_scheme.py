"""Time stepper: conservation, energy bookkeeping, root policy, determinism."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import nspnp.diagnostics as diagnostics
import nspnp.scheme as scheme
from nspnp.diagnostics import DIAG_COLUMNS
from nspnp.fem import assemble_load, interpolate
from nspnp.mesh import build_rect_mesh
from nspnp.mms import case_operators, convergence_study, example1, example2, example3
from nspnp.sparse import bicgstab, cg, matvec
from nspnp.scheme import (
    Operators,
    SchemeParams,
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
    with pytest.raises(ValueError, match="overflows"):
        SchemeParams(tau=1e-300, t_final=1e10, c0=1.0)  # t_final / tau is inf
    for max_iter in (0, -5, 2.5):
        with pytest.raises(ValueError, match="max_iter"):
            SchemeParams(tau=0.1, t_final=1.0, c0=1.0, max_iter=max_iter)
    assert SchemeParams(tau=0.1, t_final=1.0, c0=1.0).n_steps == 10


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("name", ["tau", "t_final", "c0", "tol"])
def test_params_reject_non_finite_values(name, value):
    fields = dict(tau=0.1, t_final=1.0, c0=1.0, tol=1e-10)
    fields[name] = value
    with pytest.raises(ValueError, match=name):
        SchemeParams(**fields)


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
    loads = np.stack([
        assemble_load(ops.scalar_space, lambda x, y, t, k=k: case.sources(x, y, t)[k], 0.1).values
        for k in (0, 1)
    ])
    c1, c2 = step_concentrations(ops, state, params, loads)
    before = np.sum(ops.mass_p1 @ state.c1.values)
    after = np.sum(ops.mass_p1 @ c1.values)
    assert after - before == pytest.approx(params.tau * loads[0].sum(), abs=1e-9)


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


def _relative_max_error(got, want):
    scale = np.abs(want).max()
    return np.abs(got - want).max() / scale if scale else np.abs(got).max()


def test_sourced_advance_evaluates_the_case_data_once(monkeypatch):
    for case in (example1(), example2()):
        _check_case_data_evaluated_once(monkeypatch, case)


def _check_case_data_evaluated_once(monkeypatch, case):
    # A convergence ladder on one Operators evaluates the spatial source modes
    # once and the boundary data once per step.  The stages get the loads of
    # the pointwise sources and the boundary values at t^{n+1}.
    calls = {"modes": 0, "velocity_bc": 0}
    stage_args = []

    def counting(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    def capturing(name):
        stage = getattr(scheme, name)

        def wrapper(ops, state, params, *args):
            stage_args.append((name, state.time + params.tau, args))
            return stage(ops, state, params, *args)

        monkeypatch.setattr(scheme, name, wrapper)

    capturing("step_concentrations")
    capturing("compute_velocity_split")
    counted = dataclasses.replace(
        case,
        sources=dataclasses.replace(case.sources, modes=counting("modes", case.sources.modes)),
        velocity_bc=counting("velocity_bc", case.velocity_bc),
    )
    ops = case_operators(counted, nx=4)
    params = SchemeParams(tau=0.1, t_final=0.2, c0=case.c0)
    convergence_study(counted, params, (0.1, 0.05), ops=ops)
    monkeypatch.undo()
    assert calls == {"modes": 1, "velocity_bc": 2 + 4}
    assert len(stage_args) == 2 * (2 + 4)

    def term(k):
        return lambda x, y, t: case.sources(x, y, t)[k]

    def loads_at(t):
        return (
            np.stack([assemble_load(ops.scalar_space, term(k), t).values for k in (0, 1)]),
            assemble_load(ops.velocity_space, term(2), t).values,
        )

    for name, t_next, args in stage_args:
        loads, momentum_load = loads_at(t_next)
        if name == "step_concentrations":
            assert _relative_max_error(args[0], loads) <= 1e-14
        else:
            assert _relative_max_error(args[0], momentum_load) <= 1e-14
            np.testing.assert_array_equal(args[1], ops.boundary_values(t_next))
    for t in (0.0, 0.37, 1.0):
        for got, want in zip(ops.source_loads(counted.sources, t), loads_at(t)):
            assert _relative_max_error(got, want) <= 1e-14
    assert calls["modes"] == 1


def test_source_free_loads_are_zero(ex3_ops):
    _, ops = ex3_ops
    loads, momentum_load = ops.source_loads(None, 0.5)
    np.testing.assert_array_equal(loads, np.zeros((2, ops.scalar_space.n_dofs)))
    np.testing.assert_array_equal(momentum_load, np.zeros((2, ops.velocity_space.n_dofs)))


def test_pressure_and_potential_zero_mean(ex3_ops):
    case, ops = ex3_ops
    params, state, records = small_run(case, ops, steps=3)
    assert abs(ops.integral_mean(state.p.values)) < 1e-12
    assert abs(ops.integral_mean(state.phi.values)) < 1e-12


def test_potential_and_pressure_solve_their_neumann_systems_to_round_off():
    # One grid solver of the P1 stiffness serves both solves; the residuals sit
    # far below the 1e-10 that the Krylov solves stopped at.
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


@pytest.mark.parametrize("nx, ny", [(6, 6), (6, 3)], ids=["square", "rectangle"])
def test_systems_of_every_tau_share_the_modes_of_the_operators(nx, ny):
    # The sine modes of the lattice solve and the cosine modes of the transport's grid solve
    # do not depend on tau: built once per Operators, once per axis length, and shared.
    ops = Operators(build_rect_mesh((0.0, 0.0, 1.0, ny / nx), nx, ny))
    params = [SchemeParams(tau=tau, t_final=tau, c0=1.0) for tau in (0.05, 0.01)]
    lattice = [ops.velocity_system(p)[1] for p in params]
    grids = [ops.transport_base(p)[1].grid for p in params]
    for name in ("vy", "vy_t", "vx", "vx_t"):
        assert getattr(lattice[0], name) is getattr(lattice[1], name)
    assert (lattice[0].vy is lattice[0].vx) == (nx == ny)
    assert not np.array_equal(lattice[0].inverse, lattice[1].inverse)
    for grid in grids:
        assert grid.vy is ops.vertex_grid.vy and grid.vx is ops.vertex_grid.vx
        assert not np.array_equal(grid.inverse, ops.vertex_grid.inverse)


def test_advance_computes_the_new_velocity_mass_norm_once(ex3_ops, monkeypatch):
    # One product M u^{n+1} gives ||u^{n+1}||_M^2 to E_h, E_orig and the energy identity,
    # and M u^{n+1} / tau to the next step's right-hand side of u1.
    case, ops = ex3_ops
    params = SchemeParams(tau=0.05, t_final=0.1, c0=5.0)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    products, energies, u1_rhs = [], [], []

    def recording_matvec(matrix, x, out=None):
        products.append((matrix, x.copy(), matvec(matrix, x, out)))
        return products[-1][2]

    def recording_cg(matrix, b, **kwargs):
        if "x0" in kwargs and kwargs["preconditioner"] is not ops.projection_preconditioner:
            u1_rhs.append(b.copy())
        return cg(matrix, b, **kwargs)

    for module in (scheme, diagnostics):  # diagnostics.mass_norm_sq makes its own products
        monkeypatch.setattr(module, "matvec", recording_matvec)
    monkeypatch.setattr(scheme, "cg", recording_cg)
    for name in ("discrete_energy", "original_energy"):
        energy = getattr(scheme, name)

        def capturing(*args, _energy=energy, **kwargs):
            energies.append(kwargs["u_norm_sq"])
            return _energy(*args, **kwargs)

        monkeypatch.setattr(scheme, name, capturing)
    new_state, record = advance(ops, state, params, case.sources)
    advance(ops, new_state, params, case.sources)
    of_new_u = [
        product for matrix, x, product in products
        if matrix is ops.mass_p2 and np.array_equal(x, new_state.u.values)
    ]
    assert len(of_new_u) == 1 and of_new_u[0] is new_state.mass_u
    norm = float(np.vdot(new_state.u.values, of_new_u[0]))
    assert energies[:2] == [norm, norm]
    want = of_new_u[0] / params.tau + ops.pressure_load(new_state.p.values)
    want += ops.source_loads(case.sources, new_state.time + params.tau)[1]
    np.testing.assert_array_equal(u1_rhs[1], want)


def test_projection_uses_the_jacobi_preconditioner_of_the_operators(ex3_ops, monkeypatch):
    case, ops = ex3_ops
    params = SchemeParams(tau=0.05, t_final=0.1, c0=5.0)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    preconditioners = []

    def capturing_cg(*args, **kwargs):
        preconditioners.append(kwargs.get("preconditioner"))
        return cg(*args, **kwargs)

    monkeypatch.setattr(scheme, "cg", capturing_cg)
    pressure_projection(ops, state.u_hat, state, params)
    pressure_projection(ops, state.u_hat, state, params)
    assert preconditioners == [ops.projection_preconditioner] * 2


def test_dirichlet_dofs_are_held_by_cg_on_the_p2_pattern(ex3_ops):
    # No eliminated copy: the velocity system is M/tau + A on the arrays of the P2 mass's
    # pattern, one sum of data arrays because the stiffness keeps its stored zeros.
    _, ops = ex3_ops
    matrix, _ = ops.velocity_system(SchemeParams(tau=0.05, t_final=0.1, c0=5.0))
    assert np.shares_memory(matrix.indices, ops.mass_p2.indices)
    assert np.shares_memory(matrix.indptr, ops.mass_p2.indptr)
    assert not hasattr(ops, "projection_system")
    np.testing.assert_array_equal(ops.stiff_p2.indices, ops.mass_p2.indices)
    np.testing.assert_array_equal(ops.stiff_p2.indptr, ops.mass_p2.indptr)
    assert np.any(ops.stiff_p2.data == 0.0)


@pytest.mark.parametrize(
    "make, tau, want_u1, want_projection",
    [
        (example1, 0.05, [4, 4, 4, 4], [14, 14, 14, 14]),
        (example2, 0.01, [5, 5, 5, 5], [15, 14, 13, 12]),
        (example2, 0.025, [5, 4, 4, 4], [15, 14, 13, 13]),
    ],
    ids=["ex1", "ex2", "ex2-0.025"],
)
def test_dirichlet_solves_converge_relative_to_the_eliminated_rhs(
    make, tau, want_u1, want_projection, monkeypatch
):
    # cg's tol is relative to the norm of the eliminated system's right-hand side: b - A g on the
    # free rows and g on the fixed ones.  Measured at nx = 16 over 4 steps: with the norm of the
    # free rows alone the projection takes [18, 18, 18, 18] and [19, 18, 17, 17] iterations on the
    # first two cases, and with b in place of b - A g, u1 takes [5, 5, 4, 4] on the third.
    case = make()
    ops = case_operators(case, 16)
    params = SchemeParams(tau=tau, t_final=4 * tau, c0=case.c0)
    u1, projection = [], []

    def counting_cg(*args, **kwargs):
        x, report = cg(*args, **kwargs)
        if kwargs.get("preconditioner") is ops.projection_preconditioner:
            projection.append(report.iterations)
        elif "x0" in kwargs:  # u2 starts from zero
            u1.append(report.iterations)
        return x, report

    monkeypatch.setattr(scheme, "cg", counting_cg)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    for _ in range(params.n_steps):
        state, _ = advance(ops, state, params, case.sources)
    assert (u1, projection) == (want_u1, want_projection)


def test_relax_u1_drops_the_start_that_carries_the_boundary_layer(monkeypatch):
    # On ex3, u^n carries the projection's numerical boundary layer, and its residual exceeds
    # the right-hand side, so cg starts u1 from zero, as u2 does.  Measured at nx = 16: with
    # u^n kept as the start, u1 takes [4, 4, 3, 3] iterations.
    case = example3()
    ops = case_operators(case, 16)
    params = SchemeParams(tau=0.05, t_final=0.2, c0=case.c0)
    u1, u2 = [], []

    def counting_cg(*args, **kwargs):
        x, report = cg(*args, **kwargs)
        if kwargs["preconditioner"] is not ops.projection_preconditioner:
            (u1 if "x0" in kwargs else u2).append(report.iterations)
        return x, report

    monkeypatch.setattr(scheme, "cg", counting_cg)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    for _ in range(params.n_steps):
        state, _ = advance(ops, state, params, case.sources)
    assert u1 == [3, 3, 3, 3]
    assert all(a <= b for a, b in zip(u1, u2))


def test_operators_reject_a_mesh_that_is_not_the_uniform_grid():
    # The grid solvers hold for the uniform grid of the bounds only.
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 4, 4)
    x, y = mesh.vertices.T
    sheared = dataclasses.replace(mesh, vertices=np.stack([x + 0.3 * y, 0.2 * x + 0.9 * y], axis=1))
    with pytest.raises(ValueError, match="uniform grid"):
        Operators(sheared)


def test_one_cell_mesh_steps():
    # No interior vertex: the velocity lattice has a single interior point.
    case = example3()
    params, state, records = small_run(
        case, Operators(build_rect_mesh(case.bounds, 1, 1), velocity_bc=case.velocity_bc), steps=2
    )
    assert records[-1].E_h <= records[0].E_h


@pytest.mark.parametrize("nx", [16, 32])
def test_velocity_iterations_stay_flat_under_refinement(nx, monkeypatch):
    # The lattice grid solve keeps the u1/u2 CG counts bounded as h shrinks;
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
        no_load = np.zeros((2, ops.velocity_space.n_dofs))
        compute_velocity_split(ops, state, params, no_load, ops.boundary_values(state.time + params.tau))
        assert len(iterations) == 2
        assert max(iterations) <= 30


@pytest.mark.parametrize("nx", [16, 32])
def test_velocity_iterations_are_few_with_the_exact_p2_lattice_inverse(nx, monkeypatch):
    # Only the lumped mass separates the preconditioner from the velocity
    # system at tau = 0.05: u1 and u2 take a handful of CG iterations.
    case = example3()
    ops = Operators(build_rect_mesh(case.bounds, nx, nx), velocity_bc=case.velocity_bc)
    params = SchemeParams(tau=0.05, t_final=0.1, c0=case.c0)
    _, velocity_solve = ops.velocity_system(params)
    iterations = []

    def counting_cg(*args, **kwargs):
        x, report = cg(*args, **kwargs)
        if kwargs.get("preconditioner") is velocity_solve:
            iterations.append(report.iterations)
        return x, report

    monkeypatch.setattr(scheme, "cg", counting_cg)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    for _ in range(params.n_steps):
        state, _ = advance(ops, state, params, case.sources)
    assert len(iterations) == 2 * params.n_steps
    assert max(iterations) <= 8


@pytest.mark.parametrize("nx", [16, 32])
def test_velocity_iterations_are_at_most_four_with_the_alias_block_inverse(nx, monkeypatch):
    # At tau = 0.05 the alias-block inverse leaves the preconditioned velocity system within
    # 1e-2 of the identity: measured 3 or 4 CG iterations per solve at nx = 16, 3 at nx = 32.
    case = example3()
    ops = Operators(build_rect_mesh(case.bounds, nx, nx), velocity_bc=case.velocity_bc)
    params = SchemeParams(tau=0.05, t_final=0.1, c0=case.c0)
    _, velocity_solve = ops.velocity_system(params)
    iterations = []

    def counting_cg(*args, **kwargs):
        x, report = cg(*args, **kwargs)
        if kwargs.get("preconditioner") is velocity_solve:
            iterations.append(report.iterations)
        return x, report

    monkeypatch.setattr(scheme, "cg", counting_cg)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    for _ in range(params.n_steps):
        state, _ = advance(ops, state, params, case.sources)
    assert len(iterations) == 2 * params.n_steps
    assert max(iterations) <= 4


@pytest.mark.parametrize("nx", [16, 32])
def test_transport_iterations_stay_few(nx, monkeypatch):
    # Preconditioned by the grid solve of M/tau + A, BiCGStab only has to resolve
    # convection and drift: a few iterations per species at every resolution.
    iterations = []

    def counting_bicgstab(*args, **kwargs):
        x, report = bicgstab(*args, **kwargs)
        iterations.append(report.iterations)
        return x, report

    monkeypatch.setattr(scheme, "bicgstab", counting_bicgstab)
    case = example3()
    ops = Operators(build_rect_mesh(case.bounds, nx, nx), velocity_bc=case.velocity_bc)
    small_run(case, ops, tau=0.05, steps=4, c0=case.c0)
    assert len(iterations) == 8
    assert np.mean(iterations) <= 10


def test_transport_systems_share_the_pattern_of_the_base(ex3_ops, monkeypatch):
    case, ops = ex3_ops
    params = SchemeParams(tau=0.05, t_final=0.1, c0=5.0)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    state, _ = advance(ops, state, params, case.sources)
    base, factor = ops.transport_base(params)
    systems = []

    def capturing_bicgstab(matrix, *args, **kwargs):
        systems.append(matrix)
        assert kwargs["preconditioner"] is factor
        return bicgstab(matrix, *args, **kwargs)

    monkeypatch.setattr(scheme, "bicgstab", capturing_bicgstab)
    step_concentrations(ops, state, params, np.zeros((2, ops.scalar_space.n_dofs)))
    assert len(systems) == 2
    convection = scheme.assemble_convection(state.u, ops.scalar_space)
    drift = scheme.assemble_drift(state.phi)
    for system, sign in zip(systems, (1.0, -1.0)):
        assert np.shares_memory(system.indices, base.indices)
        assert np.shares_memory(system.indptr, base.indptr)
        want = (ops.mass_p1 / params.tau + ops.stiff_p1 + convection + sign * drift).toarray()
        assert np.abs(system.toarray() - want).max() <= 1e-13 * np.abs(want).max()


def test_transport_preconditioner_keeps_the_mass(ex3_ops):
    # The grid solve lumps the mass; its constant correction gives
    # 1^T S z = 1^T r for every transport matrix S, so BiCGStab keeps the ion
    # masses to round-off as an exact solve of M/tau + A did.
    case, ops = ex3_ops
    params, state, _ = small_run(case, ops, steps=1)
    base, preconditioner = ops.transport_base(params)
    convection = scheme.assemble_convection(state.u, ops.scalar_space)
    drift = scheme.assemble_drift(state.phi)
    r = np.random.default_rng(1).standard_normal(ops.scalar_space.n_dofs)
    for system in (base, base + convection + drift, base + convection - drift):
        assert abs((system @ preconditioner(r)).sum() - r.sum()) <= 1e-13 * np.abs(r).sum()
    ex2 = example2()
    _, state, records = small_run(ex2, case_operators(ex2, 16), tau=0.01, steps=5, c0=ex2.c0)
    for name in ("mass_c1", "mass_c2"):
        assert abs(getattr(records[-1], name) - getattr(records[0], name)) <= 1e-13 * getattr(records[0], name)


def test_drift_dissipation_matches_quadrature(ex3_ops):
    # The closed form of int (c1 + c2) |grad phi|^2 against the 7-point rule.
    case, ops = ex3_ops
    params, state, _ = small_run(case, ops, steps=1)
    no_load = np.zeros((2, ops.velocity_space.n_dofs))
    split = compute_velocity_split(ops, state, params, no_load, ops.boundary_values(state.time + params.tau))
    no_sources = np.zeros((2, ops.scalar_space.n_dofs))
    _, _, coeffs = solve_xi(ops, state, split, state.c1, state.c2, state.phi, params, no_sources)
    total_q = scheme.field_at_quadrature(state.c1) + scheme.field_at_quadrature(state.c2)
    grad_q = scheme.gradient_at_quadrature(state.phi)
    want = scheme.quadrature_integral(ops.scalar_space, total_q * np.sum(grad_q**2, axis=0))
    assert coeffs.drift_dissipation == pytest.approx(want, rel=1e-13)


def test_velocity_split_matches_jacobi_oracle():
    # Nonzero boundary data and sources: the split must agree with plain
    # Jacobi-CG on the same matrix and fixed dofs, boundary entries included.
    case = example1()
    ops = Operators(build_rect_mesh(case.bounds, 8, 8), velocity_bc=case.velocity_bc)
    params = SchemeParams(tau=0.1, t_final=0.2, c0=case.c0)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    state, _ = advance(ops, state, params, case.sources)
    t_next = state.time + params.tau
    g = ops.boundary_values(t_next)
    momentum_load = assemble_load(
        ops.velocity_space, lambda x, y, t: case.sources(x, y, t)[2], t_next
    ).values
    split = compute_velocity_split(ops, state, params, momentum_load, g)

    system, _ = ops.velocity_system(params)
    rhs1 = matvec(ops.mass_p2, state.u.values) / params.tau + ops.pressure_load(state.p.values)
    rhs1 = rhs1 + momentum_load
    # CG never moves the pinned entries of its start vectors.
    np.testing.assert_array_equal(split.u1.values[:, ops.velocity_dirichlet], g)
    np.testing.assert_array_equal(split.u2.values[:, ops.velocity_dirichlet], 0.0)
    start = np.zeros_like(rhs1)
    start[:, ops.velocity_dirichlet] = g
    for got, rhs, x0 in ((split.u1.values, rhs1, start), (split.u2.values, -split.forcing, None)):
        oracle, report = cg(system, rhs, x0=x0, tol=1e-14, max_iter=100_000, fixed=ops.velocity_dirichlet)
        assert report.converged
        assert np.abs(got - oracle).max() <= 1e-9 * max(1.0, np.abs(oracle).max())
