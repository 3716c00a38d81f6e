"""Solvers against dense oracles, singular systems, warm starts, preconditioners, grid solves."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nspnp.fem import FunctionSpace, assemble_mass, assemble_stiffness
from nspnp.mesh import boundary_dofs, build_rect_mesh
from nspnp.scheme import Operators, SchemeParams
from nspnp.sparse import GridSolver, SolveReport, bicgstab, cg, lattice_alias_blocks, lattice_modes, matvec


def random_spd(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


def jacobi(a):
    """The diagonal preconditioner r -> r / diag(a); bicgstab has no default."""
    inv_diag = 1.0 / a.diagonal()
    return lambda r: inv_diag * r


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
    x, report = bicgstab(sp.csr_matrix(a), b, tol=1e-13, preconditioner=jacobi(a))
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


def nonsymmetric(n):
    rng = np.random.default_rng(2 * n)
    return rng.standard_normal((n, n)) + n * np.eye(n), rng.standard_normal(n)


@pytest.mark.parametrize("n", [5, 17, 50])
def test_preconditioned_bicgstab_matches_dense_solve(n):
    a, b = nonsymmetric(n)
    block = np.arange(n) // 4
    block_jacobi = np.where(block[:, None] == block[None, :], a, 0.0)
    x_ref = np.linalg.solve(a, b)
    x, report = bicgstab(
        sp.csr_matrix(a), b, tol=1e-13, preconditioner=lambda r: np.linalg.solve(block_jacobi, r)
    )
    assert report.converged
    assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8


@pytest.mark.parametrize("n", [5, 17, 50])
def test_bicgstab_with_the_exact_inverse_takes_one_iteration(n):
    a, b = nonsymmetric(n)
    inverse = np.linalg.inv(a)
    x, report = bicgstab(sp.csr_matrix(a), b, tol=1e-12, preconditioner=lambda r: inverse @ r)
    assert report.converged
    assert report.iterations <= 1


def test_matvec_is_the_scipy_product_bit_for_bit():
    a = sp.random(30, 20, density=0.3, format="csr", random_state=7)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(20)
    stack = rng.standard_normal((3, 20))
    strided = np.asfortranarray(stack)  # rows that are not contiguous, as of a transposed solve
    assert not strided[0].flags.c_contiguous
    np.testing.assert_array_equal(matvec(a, x), a @ x)
    want = np.stack([a @ row for row in stack])
    np.testing.assert_array_equal(matvec(a, stack), want)
    np.testing.assert_array_equal(matvec(a, strided), want)
    out = np.full((3, 30), np.nan)  # a given out is overwritten, not added to
    assert matvec(a, stack, out=out) is out
    np.testing.assert_array_equal(out, want)
    with pytest.raises(TypeError, match="CSR"):
        matvec(a.tocsc(), x)


@pytest.mark.parametrize("preconditioned", [False, True], ids=["jacobi", "given"])
def test_cg_on_stacked_rhs_matches_block_diagonal(preconditioned):
    block = sp.csr_matrix(random_spd(7, seed=3))
    full = sp.block_diag((block, block), format="csr")
    b = np.random.default_rng(0).standard_normal((2, 7))
    scale = np.linspace(0.5, 1.5, 7)  # an SPD diagonal map, applied to each row of a stack
    pre = (lambda r: np.tile(scale, 2) * r, lambda r: scale * r) if preconditioned else (None, None)
    x_full, report_full = cg(full, b.ravel(), tol=1e-13, preconditioner=pre[0])
    x, report = cg(block, b, tol=1e-13, preconditioner=pre[1])
    assert x.shape == b.shape and report.converged
    np.testing.assert_array_equal(x.ravel(), x_full)
    assert report == report_full
    with pytest.raises(ValueError):
        cg(block, np.ones((2, 6)))


def line_matrices(n: int, h: float):
    """1-D P1 stiffness and lumped mass (dense) of n cells of size h with natural ends."""
    k = (np.diag(np.r_[1.0, np.full(n - 1, 2.0), 1.0]) - np.eye(n + 1, k=1) - np.eye(n + 1, k=-1)) / h
    m = np.diag(np.r_[0.5, np.ones(n - 1), 0.5]) * h
    return k, m


def grid_operator(nx: int, ny: int, h: float, sigma: float, interior: bool = False) -> np.ndarray:
    """sigma M⊗M + M⊗K + K⊗M on the grid points (row-major, x fastest), dense."""
    (kx, mx), (ky, my) = line_matrices(nx, h), line_matrices(ny, h)
    if interior:
        kx, mx, ky, my = (a[1:-1, 1:-1] for a in (kx, mx, ky, my))
    return sigma * np.kron(my, mx) + np.kron(my, kx) + np.kron(ky, mx)


@pytest.mark.parametrize("nx, ny", [(6, 6), (7, 3)], ids=["square", "rectangle"])
def test_p1_stiffness_is_the_kronecker_sum_of_the_grid_lines(nx, ny):
    # Every cell cut along one diagonal: the diagonal edges carry no coupling.
    mesh = build_rect_mesh((-1.0, 0.0, 1.0, 2.0 * ny / nx), nx, ny)
    got = assemble_stiffness(FunctionSpace.p1(mesh)).toarray()
    want = grid_operator(nx, ny, mesh.h, 0.0)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def interior_line_modes(n: int, h: float):
    """(V, lam): lattice_modes(n, h) without the zero column, and the diagonal of V^T K V on the interior points."""
    v = lattice_modes(n, h)[:, :-1]
    k = line_matrices(2 * n, h / 2)[0][1:-1, 1:-1]
    return v, np.diag(v.T @ k @ v)


def interior_lattice_solver(nx: int, ny: int, h: float, sigma: float):
    """(sigma M⊗M + M⊗K + K⊗M)^-1 on the interior of the h/2 lattice of an nx by ny grid of cells of size h.

    In the sine modes V of sparse.lattice_modes, without their zero column,
    V^T M V = I and V^T K V = diag(lam) on each axis, so the inverse is
    V diag(1 / (sigma + lam_y + lam_x)) V^T.
    """
    (vy, lam_y), (vx, lam_x) = (interior_line_modes(n, h) for n in (ny, nx))
    inverse = 1.0 / (sigma + (lam_y[:, None] + lam_x))

    def solve(b: np.ndarray) -> np.ndarray:
        w = vy.T @ b.reshape(b.shape[:-1] + inverse.shape) @ vx
        return (vy @ (w * inverse) @ vx.T).reshape(b.shape)

    return solve


@pytest.mark.parametrize("interior", [False, True], ids=["natural", "interior"])
@pytest.mark.parametrize("nx, ny", [(6, 6), (7, 3), (1, 1)], ids=["square", "rectangle", "one-cell"])
def test_grid_solver_matches_dense_solve(nx, ny, interior):
    # natural: GridSolver on the vertices; interior: the Dirichlet-end sine modes on the h/2 lattice.
    h = 0.25
    rng = np.random.default_rng(nx + ny)
    for sigma in (0.0, 20.0):
        if interior:
            solver = interior_lattice_solver(nx, ny, h, sigma)
            a = grid_operator(2 * nx, 2 * ny, h / 2, sigma, interior=True)
        else:
            solver = GridSolver(nx, ny, h).shifted(sigma)
            a = grid_operator(nx, ny, h, sigma)
        b = rng.standard_normal((2, a.shape[0]))
        singular = sigma == 0.0 and not interior
        if singular:  # kernel span(ones): a consistent b, solutions up to a constant
            b -= b.mean(axis=1, keepdims=True)
        want = (np.linalg.pinv(a) @ b.T).T if singular else np.linalg.solve(a, b.T).T
        for got, w in ((solver(b), want), (solver(b[1]), want[1])):
            assert got.shape == w.shape
            if singular:
                got = got - got.mean(axis=-1, keepdims=True)
            assert np.abs(got - w).max() <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
def test_lattice_modes_diagonalize_the_interior_lines_and_fold_onto_the_vertex_modes(n):
    h = 0.25
    folded = lattice_modes(n, h)
    assert folded.shape == (2 * n - 1, 2 * n) and not folded[:, -1].any()  # the alias of mode n is zero
    v, lam = interior_line_modes(n, h)
    k, m = (a[1:-1, 1:-1] for a in line_matrices(2 * n, h / 2))
    assert np.abs(v.T @ m @ v - np.eye(2 * n - 1)).max() <= 1e-12
    assert np.abs(v.T @ k @ v - np.diag(lam)).max() <= 1e-12 * lam.max()
    # At the vertices, the even lattice points, column (1, p) of the (2, n) view is column (0, p),
    # a vertex mode, and mode n, column (0, n - 1), vanishes.
    at_vertices = folded[1::2].reshape(-1, 2, n)
    low, high = at_vertices[:, 0, :-1], at_vertices[:, 1, :-1]
    np.testing.assert_allclose(high, low, rtol=0, atol=1e-12 * np.abs(v).max())
    assert np.abs(at_vertices[:, 0, -1]).max(initial=0.0) <= 1e-12 * np.abs(v).max()
    k_vertex, m_vertex = (a[1:-1, 1:-1] for a in line_matrices(n, h))
    mu = np.diag(low.T @ k_vertex @ low)
    assert np.abs(low.T @ m_vertex @ low - np.eye(n - 1)).max(initial=0.0) <= 1e-12
    assert np.abs(low.T @ k_vertex @ low - np.diag(mu)).max(initial=0.0) <= 1e-12 * lam.max()


def eliminated(a, dofs) -> sp.csr_matrix:
    """diag(keep) a diag(keep) + diag(1 - keep): the symmetric elimination of the rows and columns dofs."""
    keep = np.ones(a.shape[0])
    keep[dofs] = 0.0
    return (sp.diags(keep) @ a @ sp.diags(keep) + sp.diags(1.0 - keep)).tocsr()


def velocity_system(nx: int, ny: int, tau: float):
    """(the eliminated scalar P2 M/tau + A of the velocity, its Dirichlet dofs, its lattice solve)."""
    mesh = build_rect_mesh((0.0, 0.0, 1.0, ny / nx), nx, ny)
    ops = Operators(mesh)
    matrix, solve = ops.velocity_system(SchemeParams(tau=tau, t_final=tau, c0=1.0))
    return eliminated(matrix, ops.velocity_dirichlet), ops.velocity_dirichlet, solve


@pytest.mark.parametrize("kind", ["stiffness", "helmholtz"])
def test_cg_holds_the_fixed_entries_and_solves_the_eliminated_system_on_the_others(kind):
    # The P2 stiffness, or M/tau + A on its pattern, at nx = 8 with its boundary dofs fixed.
    p2 = FunctionSpace.p2(build_rect_mesh((0.0, 0.0, 1.0, 1.0), 8, 8))
    a = assemble_stiffness(p2)
    if kind == "helmholtz":
        a = p2.pattern.matrix(assemble_mass(p2).data / 0.05 + a.data)
    fixed = p2.boundary_dofs()
    free = np.setdiff1d(np.arange(p2.n_dofs), fixed)
    dense = eliminated(a, fixed).toarray()
    rng = np.random.default_rng(8)
    b, x0 = rng.standard_normal((2, 2, p2.n_dofs))  # x0 carries the values g on the fixed rows

    def lifted(b, g):
        out = b - g @ a.toarray()[:, fixed].T
        out[..., fixed] = g
        return out

    want = np.linalg.solve(dense, lifted(b, x0[:, fixed]).T).T
    x, report = cg(a, b, x0=x0, tol=1e-13, fixed=fixed)
    assert report.converged and x.shape == b.shape
    np.testing.assert_array_equal(x[:, fixed], x0[:, fixed])
    assert np.abs(x - want)[:, free].max() <= 1e-10 * np.abs(want).max()
    # tol is relative to the eliminated system's right-hand side: its CG takes as many iterations.
    _, reference = cg(eliminated(a, fixed), lifted(b, x0[:, fixed]), x0=x0, tol=1e-13)
    assert reference.iterations == report.iterations
    for k in range(2):  # the (2, n) stack is the solve of each row
        row, report = cg(a, b[k], x0=x0[k], tol=1e-13, fixed=fixed)
        assert report.converged
        np.testing.assert_array_equal(row[fixed], x0[k, fixed])
        assert np.abs(row - want[k])[free].max() <= 1e-10 * np.abs(want[k]).max()
    # Without a start the fixed rows are zero.
    want = np.linalg.solve(dense, lifted(b, np.zeros((2, fixed.size))).T).T
    x, report = cg(a, b, tol=1e-13, fixed=fixed)
    assert report.converged
    np.testing.assert_array_equal(x[:, fixed], 0.0)
    assert np.abs(x - want)[:, free].max() <= 1e-10 * np.abs(want).max()


def test_cg_drops_a_start_that_is_worse_than_zero():
    # M/tau + A of the P2 velocity at nx = 8, its boundary dofs fixed at g.  A start whose residual
    # exceeds the eliminated right-hand side is replaced by the zero start that carries g, bit for
    # bit; a start better than zero is kept and saves iterations.
    p2 = FunctionSpace.p2(build_rect_mesh((0.0, 0.0, 1.0, 1.0), 8, 8))
    a = p2.pattern.matrix(assemble_mass(p2).data / 0.05 + assemble_stiffness(p2).data)
    fixed = p2.boundary_dofs()
    free = np.setdiff1d(np.arange(p2.n_dofs), fixed)
    rng = np.random.default_rng(12)
    b, g = rng.standard_normal((2, p2.n_dofs)), rng.standard_normal((2, fixed.size))
    zero = np.zeros((2, p2.n_dofs))
    zero[:, fixed] = g
    x, report = cg(a, b, x0=zero, tol=1e-10, fixed=fixed)
    assert report.converged and report.iterations > 2

    rhs = b - g @ a.toarray()[:, fixed].T  # the eliminated right-hand side
    rhs[:, fixed] = g
    bad, good = zero.copy(), zero.copy()
    bad[:, free] = 10.0 * rng.standard_normal((2, free.size))
    good[:, free] = x[:, free] + 1e-6 * rng.standard_normal((2, free.size))
    for start in (bad, good):
        residual = rhs - (eliminated(a, fixed) @ start.T).T
        assert (np.linalg.norm(residual) > np.linalg.norm(rhs)) == (start is bad)

    x_bad, report_bad = cg(a, b, x0=bad, tol=1e-10, fixed=fixed)
    np.testing.assert_array_equal(x_bad, x)
    assert report_bad == report
    x_good, report_good = cg(a, b, x0=good, tol=1e-10, fixed=fixed)
    assert report_good.converged and report_good.iterations < report.iterations
    for solution in (x, x_bad, x_good):
        np.testing.assert_array_equal(solution[:, fixed], g)


@pytest.mark.parametrize("tau", [1e-4, 0.05, 1e3])
def test_lattice_solve_is_spd_and_keeps_dirichlet_dofs(tau):
    matrix, dofs, solve = velocity_system(6, 6, tau)
    rng = np.random.default_rng(11)
    n = matrix.shape[0]
    for _ in range(5):
        x, y = rng.standard_normal((2, 2, n))  # (2, n) each, as for a velocity
        bx, by = solve(x), solve(y)
        assert bx.shape == x.shape
        assert np.vdot(y, bx) == pytest.approx(np.vdot(x, by), rel=1e-12)
        assert np.vdot(x, bx) > 0.0
        np.testing.assert_array_equal(bx[:, dofs], x[:, dofs])
        for k in range(2):
            np.testing.assert_array_equal(bx[k], solve(x[k]))


@pytest.mark.parametrize("nx, ny", [(6, 6), (6, 3)], ids=["square", "rectangle"])
def test_p2_stiffness_is_four_thirds_the_half_step_p1_minus_a_third_the_vertex_p1(nx, ny):
    # A_P2 = (4/3) A_P1(h/2) - (1/3) E^T A_P1(h) E on the interior points of the h/2 lattice,
    # E the injection at the vertices: the identity that LatticeSolver inverts.
    mesh = build_rect_mesh((0.0, 0.0, 1.0, ny / nx), nx, ny)
    fine = build_rect_mesh(mesh.bounds, 2 * nx, 2 * ny)  # its vertices are the P2 lattice, in order
    lattice = np.arange(fine.n_vertices).reshape(2 * ny + 1, 2 * nx + 1)
    inner = lattice[1:-1, 1:-1].ravel()
    vertices = np.setdiff1d(np.arange(mesh.n_vertices), boundary_dofs(mesh, "p1"))
    injection = (lattice[::2, ::2][1:-1, 1:-1].ravel()[:, None] == inner).astype(float)
    a_p2 = assemble_stiffness(FunctionSpace.p2(mesh)).toarray()[np.ix_(inner, inner)]
    a_half = assemble_stiffness(FunctionSpace.p1(fine)).toarray()[np.ix_(inner, inner)]
    a_vertex = assemble_stiffness(FunctionSpace.p1(mesh)).toarray()[np.ix_(vertices, vertices)]
    combination = (4.0 / 3.0) * a_half - (1.0 / 3.0) * injection.T @ a_vertex @ injection
    assert np.abs(combination - a_p2).max() <= 1e-13 * np.abs(a_p2).max()


def alias_block_inverse(mesh, tau: float) -> np.ndarray:
    """Dense V B^-1 V^T on the interior of the h/2 lattice, the identity on its frame.

    V = V_y ⊗ V_x are the folded sine modes of sparse.lattice_modes, and B
    is V^T S V, S the P2 M/tau + A on the interior points, with only the
    entries that couple two aliases of one vertex mode kept: columns (a, p)
    and (b, q) of the (2, n) views are aliases on both axes when p = q.  The
    zero columns of V are left out.
    """
    n = mesh.n_p2_nodes
    inner = np.setdiff1d(np.arange(n), boundary_dofs(mesh, "p2"))
    p2 = FunctionSpace.p2(mesh)
    s = (assemble_mass(p2) / tau + assemble_stiffness(p2)).toarray()[np.ix_(inner, inner)]
    v = np.kron(lattice_modes(mesh.ny, mesh.h), lattice_modes(mesh.nx, mesh.h))
    group = np.add.outer(np.arange(2 * mesh.ny) % mesh.ny * mesh.nx, np.arange(2 * mesh.nx) % mesh.nx).ravel()
    real = np.abs(v).max(axis=0) > 0
    v, group = v[:, real], group[real]
    b = np.where(group[:, None] == group, v.T @ s @ v, 0.0)
    want = np.eye(n)
    want[np.ix_(inner, inner)] = v @ np.linalg.solve(b, v.T)
    return want


@pytest.mark.parametrize("tau", [1e-4, 0.05, 1e3])
@pytest.mark.parametrize(
    "nx, ny", [(6, 6), (6, 3), (1, 1), (3, 5)], ids=["square", "rectangle", "one-cell", "odd-tall"]
)
def test_lattice_solve_is_the_inverse_of_the_p2_helmholtz(nx, ny, tau):
    # Of the consistent P2 M/tau + A in the alias blocks of the lattice sine modes, on the interior
    # points of the h/2 lattice, the non-Dirichlet P2 dofs.
    mesh = build_rect_mesh((0.0, 0.0, 1.0, ny / nx), nx, ny)
    *_, solve = velocity_system(nx, ny, tau)
    want = alias_block_inverse(mesh, tau)
    got = solve(np.eye(want.shape[0]))  # row k is the solve of unit vector k; the solve is symmetric
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("tau", [1e-4, 0.05, 1e3])
@pytest.mark.parametrize("nx", [4, 8])
def test_lattice_preconditioned_velocity_spectrum_is_bounded(nx, tau):
    # Spectral equivalence of the alias-block inverse and the P2 operator:
    # the bounds hold at every h and tau, which keeps the CG counts flat.
    matrix, _, solve = velocity_system(nx, nx, tau)
    a = matrix.toarray()
    lam = scipy.linalg.eigvalsh(a, np.linalg.inv(solve(np.eye(a.shape[0]))))
    assert 0.3 <= lam.min() and lam.max() <= 1.5


@pytest.mark.parametrize("tau", [0.05, 1e3])
@pytest.mark.parametrize("nx", [8, 16])
def test_lattice_preconditioned_velocity_spectrum_is_near_one_when_stiffness_weighs(nx, tau):
    # B holds the stiffness exactly and leaves out only the consistent mass's
    # couplings along the cells' diagonals that are odd in both axes, so once
    # tau is not small the preconditioned operator is close to the identity.
    matrix, _, solve = velocity_system(nx, nx, tau)
    a = matrix.toarray()
    lam = scipy.linalg.eigvalsh(a, np.linalg.inv(solve(np.eye(a.shape[0]))))
    assert 0.9 <= lam.min() and lam.max() <= 1.1


@pytest.mark.parametrize("tau", [1e-4, 0.05])
@pytest.mark.parametrize("nx", [4, 8, 16])
def test_alias_block_preconditioned_velocity_spectrum_is_tight(nx, tau):
    # Only the mass's couplings along the cells' diagonals, odd in both axes, are left out of
    # the alias blocks, so the spectrum closes on 1 as h^2/tau falls.  Measured: [0.556, 1.444],
    # [0.587, 1.413], [0.719, 1.281] at tau = 1e-4 and 1 -+ 1.77e-2, 5.01e-3, 1.29e-3 at
    # tau = 0.05, for nx = 4, 8, 16.
    matrix, _, solve = velocity_system(nx, nx, tau)
    a = matrix.toarray()
    lam = scipy.linalg.eigvalsh(a, np.linalg.inv(solve(np.eye(a.shape[0]))))
    bound = 0.45 if tau == 1e-4 else {4: 0.02, 8: 0.006, 16: 0.0015}[nx]
    assert 1.0 - bound <= lam.min() and lam.max() <= 1.0 + bound


@pytest.mark.parametrize("nx, ny", [(4, 4), (8, 8), (6, 3)], ids=["4", "8", "rectangle"])
def test_alias_block_inverse_of_the_p2_stiffness_is_exact(nx, ny):
    # A_P2 couples a mode only with its aliases: its alias blocks invert it to round-off.
    ops = Operators(build_rect_mesh((0.0, 0.0, 1.0, ny / nx), nx, ny))
    a = eliminated(ops.stiff_p2, ops.velocity_dirichlet).toarray()
    solve = ops.velocity_lattice.shifted(0.0)
    lam = scipy.linalg.eigvalsh(a, np.linalg.inv(solve(np.eye(a.shape[0]))))
    assert np.abs(lam - 1.0).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_lattice_alias_blocks_are_the_alias_blocks_of_the_dense_line_operators(n):
    # F[c, d + 2] holds the entries of v^T P_c S_d v between the two aliases (a, p) and (b, p).
    v = lattice_modes(n, 0.25)
    blocks = lattice_alias_blocks(v)
    points = np.arange(1, 2 * n)  # the interior lattice points
    for c in (0, 1):
        for d in range(-2, 3):
            dense = v.T @ np.diag(points % 2 == c) @ np.eye(2 * n - 1, k=d) @ v
            want = np.einsum("apbp->abp", dense.reshape(2, n, 2, n))
            assert np.abs(blocks[c, d + 2] - want).max() <= 1e-14 * np.abs(v).max() ** 2


def test_lattice_preconditioned_cg_matches_dense_solve():
    matrix, _, solve = velocity_system(6, 6, 0.05)
    b = np.random.default_rng(5).standard_normal(matrix.shape[0])
    x_ref = np.linalg.solve(matrix.toarray(), b)
    x, report = cg(matrix, b, tol=1e-13, preconditioner=solve)
    assert report.converged and report.iterations < 20
    assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-10


def test_cg_and_bicgstab_agree_on_spd():
    a = sp.csr_matrix(random_spd(30, seed=9))
    b = np.sin(np.arange(30, dtype=float))
    x1, r1 = cg(a, b, tol=1e-13)
    x2, r2 = bicgstab(a, b, tol=1e-13, preconditioner=jacobi(a))
    assert r1.converged and r2.converged
    assert np.linalg.norm(x1 - x2) / np.linalg.norm(x1) < 1e-10


@pytest.mark.parametrize("nx, ny", [(6, 6), (7, 3)], ids=["square", "rectangle"])
def test_neumann_solve_matches_pinv(nx, ny):
    # The pure Neumann P1 stiffness, singular with kernel span(ones), solved
    # by the grid solver of sigma = 0 as Operators.solve_neumann does.
    mesh = build_rect_mesh((0.0, 0.0, 1.0, ny / nx), nx, ny)
    a = assemble_stiffness(FunctionSpace.p1(mesh)).toarray()
    b = np.random.default_rng(4).standard_normal(a.shape[0])
    b -= b.mean()  # the consistent part
    x = GridSolver(nx, ny, mesh.h)(b)
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
    x2, report2 = bicgstab(a, b, x0=x_ref, tol=1e-10, preconditioner=jacobi(a))
    assert report2.converged
    assert report2.iterations <= 1


class CountingCsr:
    """A CSR matrix that counts its products: matvec reads data once per vector."""

    format = "csr"

    def __init__(self, matrix):
        self.matrix = matrix
        self.shape, self.indptr, self.indices = matrix.shape, matrix.indptr, matrix.indices
        self.products = 0

    @property
    def data(self):
        self.products += 1
        return self.matrix.data

    def diagonal(self):
        return self.matrix.diagonal()


def test_cg_makes_no_product_that_the_answer_does_not_need():
    a = sp.csr_matrix(random_spd(20, seed=4))
    b = np.sin(np.arange(20, dtype=float))
    # Without a start: one product per iteration and one convergence check.
    counting = CountingCsr(a)
    x, report = cg(counting, b, tol=1e-10)
    assert report.converged
    assert counting.products == report.iterations + 1
    # A start costs one product for its residual, and nothing else.
    counting = CountingCsr(a)
    x_start, report_start = cg(counting, b, x0=np.zeros(20), tol=1e-10)
    assert counting.products == report_start.iterations + 2
    np.testing.assert_array_equal(x_start, x)
    assert report_start == report


@pytest.mark.parametrize("n, exit", [(20, "half step"), (30, "full step")])
def test_bicgstab_makes_no_product_that_the_answer_does_not_need(n, exit):
    # Two products per iteration, less the one that an exit on the half-step
    # residual s skips, and one to verify the answer; a start costs one more.
    a, b = nonsymmetric(n)
    counting = CountingCsr(sp.csr_matrix(a))
    x, report = bicgstab(counting, b, tol=1e-10, preconditioner=jacobi(a))
    assert report.converged
    products = 2 * report.iterations + (exit == "full step")
    assert counting.products == products
    counting = CountingCsr(sp.csr_matrix(a))
    x_start, report_start = bicgstab(counting, b, x0=np.zeros(n), tol=1e-10, preconditioner=jacobi(a))
    assert counting.products == products + 1
    np.testing.assert_array_equal(x_start, x)
    assert report_start == report
    assert report.residual == float(np.linalg.norm(b - sp.csr_matrix(a) @ x) / np.linalg.norm(b))


def indefinite(n: int, seed: int) -> np.ndarray:
    """Symmetric, with one negative eigenvalue: CG meets p^T A p <= 0."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.concatenate([np.linspace(1.0, 2.0, n - 1), [-0.5]])) @ q.T


@pytest.mark.parametrize("exit", ["converged", "max_iter", "curvature"])
def test_cg_report_residual_is_the_true_residual_bit_for_bit(exit):
    b = np.random.default_rng(3).standard_normal(10)
    a, kwargs = {
        "converged": (random_spd(10, seed=3), {"tol": 1e-10}),
        "max_iter": (random_spd(10, seed=3), {"tol": 1e-14, "max_iter": 2}),
        "curvature": (indefinite(10, seed=3), {"preconditioner": lambda r: r}),
    }[exit]
    x, report = cg(sp.csr_matrix(a), b, **kwargs)
    assert report.converged == (exit == "converged")
    assert report.iterations >= 1
    assert report.residual == float(np.linalg.norm(b - sp.csr_matrix(a) @ x) / np.linalg.norm(b))


@pytest.mark.parametrize("solver", [cg, bicgstab])
def test_start_of_another_shape_is_rejected(solver):
    a = sp.csr_matrix(random_spd(6, seed=2))
    with pytest.raises(ValueError, match=r"x0 \(2, 6\), rhs \(6,\)"):
        solver(a, np.ones(6), x0=np.zeros((2, 6)), preconditioner=jacobi(a))
    with pytest.raises(ValueError, match=r"x0 \(5,\), rhs \(6,\)"):
        solver(a, np.zeros(6), x0=np.zeros(5), preconditioner=jacobi(a))


def test_zero_rhs_returns_zero():
    a = sp.csr_matrix(random_spd(12, seed=5))
    for solver in (cg, bicgstab):
        x, report = solver(a, np.zeros(12), preconditioner=jacobi(a))
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
    x, report = solver(a, b, max_iter=1000, preconditioner=jacobi(a))
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
    x, report = bicgstab(sp.csr_matrix(a), b, tol=1e-10, preconditioner=jacobi(a))
    if report.converged:
        assert np.linalg.norm(b - a @ x) <= 1.01e-10 * np.linalg.norm(b)


def test_bicgstab_requires_a_preconditioner():
    a = sp.csr_matrix(random_spd(6, seed=2))
    with pytest.raises(TypeError, match="preconditioner"):
        bicgstab(a, np.ones(6))


# The recovery paths of the Krylov solvers.  Each test pins the product count of its path
# and that the report's residual is the true relative residual of the returned x.


def true_relative_residual(a, b, x) -> float:
    return float(np.linalg.norm(b - sp.csr_matrix(a) @ x) / np.linalg.norm(b))


def identity(r):
    return r.copy()


class DriftingCsr(CountingCsr):
    """A CountingCsr whose product number `drift`, counted from 1, uses the matrix scaled by 1 + 1e-6.

    The recurrence residual takes the drift, as it takes round-off, and the
    true residual b - A x does not: near the end the two part.
    """

    def __init__(self, matrix, drift: int):
        super().__init__(matrix)
        self.drift = drift

    @property
    def data(self):
        self.products += 1
        return self.matrix.data * (1.0 + 1e-6) if self.products == self.drift else self.matrix.data


def test_cg_restarts_from_the_true_residual_on_a_near_miss():
    # The first product drifts: the recurrence reaches tol while b - A x keeps the drift, so
    # the check fails, the directions restart from b - A x, and the second check passes.
    a = sp.csr_matrix(random_spd(20, seed=4))
    b = np.sin(np.arange(20, dtype=float))
    drifting = DriftingCsr(a, drift=1)
    x, report = cg(drifting, b, tol=1e-10)
    assert report.converged
    assert drifting.products == report.iterations + 2  # one per iteration, two checks
    _, clean = cg(a, b, tol=1e-10)
    assert report.iterations > clean.iterations
    assert report.residual == true_relative_residual(a, b, x)


@pytest.mark.parametrize("solver", ["cg", "bicgstab"])
def test_six_near_misses_report_failure(solver):
    # tol = 1e-17 lies below the round-off floor of b - A x (about 1e-16 here), not of the
    # recurrence: every check is a near miss, five restart, and the sixth stops the solve.
    if solver == "cg":
        a, b = random_spd(20, seed=4), np.sin(np.arange(20, dtype=float))
        counting = CountingCsr(sp.csr_matrix(a))
        x, report = cg(counting, b, tol=1e-17)
        assert counting.products == report.iterations + 6
    else:
        # 16 iterations, one of which ends at the half step: 16 + 15 products, and six checks.
        a, b = nonsymmetric(30)
        counting = CountingCsr(sp.csr_matrix(a))
        x, report = bicgstab(counting, b, tol=1e-17, preconditioner=jacobi(a))
        assert (report.iterations, counting.products) == (16, 37)
    assert not report.converged and report.residual < 1e-15
    assert report.residual == true_relative_residual(a, b, x)


@pytest.mark.parametrize("n, half_steps", [(20, 2), (30, 0)], ids=["half step", "full step"])
def test_bicgstab_restarts_from_the_true_residual_on_a_near_miss(n, half_steps):
    # The first product drifts.  n = 20: the near miss and the answer come at half steps, each
    # moving x by alpha p_hat and checking it with no second product; n = 30: both at full
    # steps.  Two products per iteration, less one per half step, and two checks; the
    # restart starts from the residual of the failed check, with no product of its own.
    a, b = nonsymmetric(n)
    drifting = DriftingCsr(sp.csr_matrix(a), drift=1)
    x, report = bicgstab(drifting, b, tol=1e-10, preconditioner=jacobi(a))
    assert report.converged
    assert drifting.products == 2 * report.iterations - half_steps + 2
    assert report.iterations == {20: 12, 30: 10}[n]
    assert report.residual == true_relative_residual(a, b, x)


def test_bicgstab_restarts_once_on_a_rho_breakdown():
    # The first row of A is e_1^T and b = e_1, so alpha = 1 and, whatever the other rows, the
    # first entries of s, t = A s and r_1 are exactly 0: rho = (r_shadow, r_1) = 0 in the second
    # iteration.  The
    # restart takes b - A x (one product) as r and shadow; x_1 = 1 solves the first row, and
    # the 2x2 rest converges at the half step of the third iteration.
    a = np.array([[1.0, 0.0, 0.0], [2.0, 3.0, 1.0], [1.0, 1.0, 4.0]])
    b = np.array([1.0, 0.0, 0.0])
    counting = CountingCsr(sp.csr_matrix(a))
    x, report = bicgstab(counting, b, preconditioner=identity)
    assert report.converged and report.iterations == 3
    assert counting.products == 2 + 1 + 2 + 2  # an iteration, the restart, an iteration, a half step and its check
    assert report.residual == true_relative_residual(a, b, x)


def test_bicgstab_reports_failure_on_a_second_breakdown():
    # A skew matrix: (r, A r) = 0 for every r, so the denominator of alpha vanishes at once, and
    # again after the restart from the unmoved x, whose residual b is reused.
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = np.array([1.0, 0.0])
    counting = CountingCsr(sp.csr_matrix(a))
    x, report = bicgstab(counting, b, preconditioner=identity)
    assert report == SolveReport(iterations=0, residual=1.0, converged=False)
    assert counting.products == 2  # A p before each breakdown
    np.testing.assert_array_equal(x, 0.0)
    assert report.residual == true_relative_residual(a, b, x)


@pytest.mark.parametrize("exit", ["t = 0", "omega = 0"])
def test_bicgstab_stops_when_t_or_omega_vanishes(exit):
    # t = 0: A is singular and s = (-1, 1) spans its kernel; x takes the half step.
    # omega = 0: the symmetric part of A is diag(1, 0) and s = (0, 1), so (t, s) = 0.
    # Each makes A p and A s_hat, and b - A x for the report; x = alpha p = b in both.
    a = {"t = 0": np.array([[1.0, 1.0], [0.0, 0.0]]), "omega = 0": np.array([[1.0, 1.0], [-1.0, 0.0]])}[exit]
    b = {"t = 0": np.array([1.0, 1.0]), "omega = 0": np.array([1.0, 0.0])}[exit]
    counting = CountingCsr(sp.csr_matrix(a))
    x, report = bicgstab(counting, b, preconditioner=identity)
    assert report == SolveReport(iterations=1, residual=1.0, converged=False)
    assert counting.products == 3
    np.testing.assert_array_equal(x, b)
    assert report.residual == true_relative_residual(a, b, x)


def test_bicgstab_breakdown_test_is_relative():
    # Scaling b by a power of two scales every iterate exactly, so a tiny b takes the same
    # iterations: rho is compared with the norms of r and the shadow residual alone.
    a, b = nonsymmetric(30)
    x, report = bicgstab(sp.csr_matrix(a), b, tol=1e-10, preconditioner=jacobi(a))
    tiny = 2.0**-60
    x_tiny, report_tiny = bicgstab(sp.csr_matrix(a), tiny * b, tol=1e-10, preconditioner=jacobi(a))
    assert report_tiny == report and report.converged
    np.testing.assert_array_equal(x_tiny, tiny * x)


def test_bicgstab_rejects_a_stacked_rhs():
    # cg solves a (2, n) stack as one system; bicgstab takes a vector only.
    a = sp.csr_matrix(random_spd(6, seed=2))
    with pytest.raises(ValueError, match=r"shape mismatch: matrix \(6, 6\), rhs \(2, 6\)"):
        bicgstab(a, np.ones((2, 6)), preconditioner=jacobi(a))
