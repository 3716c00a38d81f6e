"""Solvers against dense oracles, singular systems, warm starts, preconditioners."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nspnp.fem import DirichletSystem, FunctionSpace, assemble_mass, assemble_stiffness, p1_to_p2_prolongation
from nspnp.mesh import build_rect_mesh
from nspnp.sparse import NeumannSolver, RepeatedBlock, SolveReport, TwoLevelPreconditioner, bicgstab, cg


def random_spd(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


def neumann_laplacian_1d(n: int) -> np.ndarray:
    """Singular tridiagonal stiffness of -u'' with natural ends; kernel = constants."""
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    a[0, 0] = a[-1, -1] = 1.0
    return a


@pytest.mark.parametrize("n", [5, 17, 50])
def test_cg_matches_dense_solve(n):
    a = random_spd(n, seed=n)
    rng = np.random.default_rng(n + 1)
    b = rng.standard_normal(n)
    x_ref = np.linalg.solve(a, b)
    x, report = cg(sp.csr_matrix(a), b, tol=1e-13)
    assert report.converged
    assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8


@pytest.mark.parametrize("n", [5, 17, 50])
def test_bicgstab_matches_dense_solve(n):
    rng = np.random.default_rng(2 * n)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    x_ref = np.linalg.solve(a, b)
    x, report = bicgstab(sp.csr_matrix(a), b, tol=1e-13)
    assert report.converged
    assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8


@pytest.mark.parametrize("n", [5, 17, 50])
def test_preconditioned_cg_matches_dense_solve(n):
    # Block Jacobi with 4x4 blocks: the block-diagonal part of an SPD matrix is SPD.
    a = random_spd(n, seed=n)
    block = np.arange(n) // 4
    block_jacobi = np.where(block[:, None] == block[None, :], a, 0.0)
    b = np.random.default_rng(n + 2).standard_normal(n)
    x_ref = np.linalg.solve(a, b)
    x, report = cg(sp.csr_matrix(a), b, tol=1e-13, preconditioner=lambda r: np.linalg.solve(block_jacobi, r))
    assert report.converged
    assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8


def test_repeated_block_matches_block_diagonal():
    block = sp.csr_matrix(random_spd(7, seed=3))
    full = sp.block_diag((block, block), format="csr")
    op = RepeatedBlock(block)
    x = np.random.default_rng(0).standard_normal(14)
    assert op.shape == full.shape and op.nnz == full.nnz
    np.testing.assert_array_equal(op.diagonal(), full.diagonal())
    np.testing.assert_array_equal(op @ x, full @ x)
    with pytest.raises(ValueError):
        op @ np.ones(7)


def scalar_p2_helmholtz(nx: int, tau: float):
    """Eliminated M/tau + A on scalar P2, and the P1 -> P2 prolongation of interior vertices."""
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), nx, nx)
    p2 = FunctionSpace.p2(mesh)
    system = DirichletSystem(assemble_mass(p2) / tau + assemble_stiffness(p2), p2.boundary_dofs())
    return system, p1_to_p2_prolongation(mesh)[:, ~mesh.vertex_on_boundary]


@pytest.mark.parametrize("tau", [1e-4, 0.05, 1e3])
def test_two_level_cycle_is_spd_and_keeps_dirichlet_dofs(tau):
    system, prolongation = scalar_p2_helmholtz(6, tau)
    cycle = TwoLevelPreconditioner(system.matrix, prolongation, system.dofs)
    rng = np.random.default_rng(11)
    n = system.n
    for _ in range(5):
        x, y = rng.standard_normal((2, 2 * n))  # two copies, as for a velocity
        bx, by = cycle(x), cycle(y)
        assert y @ bx == pytest.approx(x @ by, rel=1e-12)
        assert x @ bx > 0.0
        for k in range(2):
            dofs = k * n + system.dofs
            np.testing.assert_array_equal(bx[dofs], x[dofs])


def test_two_level_cycle_ignores_prolongation_rows_of_fixed_dofs():
    system, prolongation = scalar_p2_helmholtz(4, 0.05)
    rng = np.random.default_rng(2)
    noise = np.zeros(prolongation.shape)
    noise[system.dofs] = rng.standard_normal((system.dofs.size, prolongation.shape[1]))
    clean = TwoLevelPreconditioner(system.matrix, prolongation, system.dofs)
    dirty = TwoLevelPreconditioner(system.matrix, prolongation + sp.csr_matrix(noise), system.dofs)
    r = rng.standard_normal(system.n)
    np.testing.assert_array_equal(dirty(r), clean(r))


def test_two_level_cg_matches_dense_solve():
    system, prolongation = scalar_p2_helmholtz(6, 0.05)
    cycle = TwoLevelPreconditioner(system.matrix, prolongation, system.dofs)
    b = np.random.default_rng(5).standard_normal(system.n)
    x_ref = np.linalg.solve(system.matrix.toarray(), b)
    x, report = cg(system.matrix, b, tol=1e-13, preconditioner=cycle)
    assert report.converged and report.iterations < 20
    assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-10


def test_cg_and_bicgstab_agree_on_spd():
    a = sp.csr_matrix(random_spd(30, seed=9))
    b = np.sin(np.arange(30, dtype=float))
    x1, r1 = cg(a, b, tol=1e-13)
    x2, r2 = bicgstab(a, b, tol=1e-13)
    assert r1.converged and r2.converged
    assert np.linalg.norm(x1 - x2) / np.linalg.norm(x1) < 1e-10


def random_singular(n: int, seed: int) -> np.ndarray:
    """Dense symmetric positive semidefinite matrix whose kernel is exactly span(ones)."""
    a = random_spd(n, seed)
    centre = np.eye(n) - np.ones((n, n)) / n
    return centre @ a @ centre


@pytest.mark.parametrize(
    "a", [neumann_laplacian_1d(18), random_singular(25, seed=6)], ids=["laplacian-1d", "dense"]
)
def test_neumann_solve_matches_pinv(a):
    n = a.shape[0]
    b = np.random.default_rng(4).standard_normal(n)
    x = NeumannSolver(sp.csr_matrix(a))(b)
    assert x[0] == 0.0  # the pinned dof
    b -= b.mean()  # the consistent part, which the solve sees
    x_ref = np.linalg.pinv(a) @ b  # minimum-norm solution has zero mean here
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-12
    np.testing.assert_allclose(x - x.mean(), x_ref, rtol=0, atol=1e-10 * np.abs(x_ref).max())


def test_warm_start_at_solution_converges_immediately():
    a = sp.csr_matrix(random_spd(20, seed=1))
    b = np.arange(20, dtype=float)
    x_ref, _ = cg(a, b, tol=1e-13)
    x, report = cg(a, b, x0=x_ref, tol=1e-10)
    assert report.converged
    assert report.iterations <= 1
    x2, report2 = bicgstab(a, b, x0=x_ref, tol=1e-10)
    assert report2.converged
    assert report2.iterations <= 1


def test_zero_rhs_returns_zero():
    a = sp.csr_matrix(random_spd(12, seed=5))
    for solver in (cg, bicgstab):
        x, report = solver(a, np.zeros(12))
        assert report.converged
        np.testing.assert_array_equal(x, 0.0)


def test_nonconvergence_reported_not_raised():
    a = sp.csr_matrix(random_spd(40, seed=8))
    b = np.ones(40)
    x, report = cg(a, b, tol=1e-14, max_iter=1)
    assert not report.converged
    assert report.iterations == 1
    assert report.residual > 1e-14


@pytest.mark.parametrize("solver", [cg, bicgstab])
def test_non_finite_residual_stops_at_once(solver):
    a = sp.csr_matrix(random_spd(30, seed=3))
    b = np.ones(30)
    b[7] = np.nan
    x, report = solver(a, b, max_iter=1000)
    assert report.iterations <= 1
    assert not report.converged and np.isnan(report.residual)


def test_report_residual_is_true_relative_residual():
    a = sp.csr_matrix(random_spd(25, seed=13))
    b = np.cos(np.arange(25, dtype=float))
    x, report = cg(a, b, tol=1e-11)
    observed = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
    assert report.residual == pytest.approx(observed, rel=1e-6, abs=1e-16)


def test_solve_report_is_frozen():
    report = SolveReport(iterations=3, residual=1e-12, converged=True)
    with pytest.raises(AttributeError):
        report.iterations = 4  # type: ignore[misc]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_cg_residual_contract(n, seed):
    rng = np.random.default_rng(seed)
    a = random_spd(n, seed=seed % 1000)
    b = rng.standard_normal(n)
    x, report = cg(sp.csr_matrix(a), b, tol=1e-10)
    if report.converged:
        assert np.linalg.norm(b - a @ x) <= 1.01e-10 * np.linalg.norm(b)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_bicgstab_residual_contract(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 2.0 * n * np.eye(n)
    b = rng.standard_normal(n)
    x, report = bicgstab(sp.csr_matrix(a), b, tol=1e-10)
    if report.converged:
        assert np.linalg.norm(b - a @ x) <= 1.01e-10 * np.linalg.norm(b)
