"""Built-in property checks runnable from the command line.

Each check recomputes an invariant through an independent route (closed-form
integrals, dense linear algebra, finite differences) and compares against the
package's own machinery.  The same checks back the test suite; having them in
the library lets an installed copy vouch for itself without pytest.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .fem import (
    FunctionSpace,
    assemble_load,
    assemble_stiffness,
    interpolate,
    shape_eval,
    tri_quadrature_degree5,
)
from .mesh import build_rect_mesh
from .mms import case_by_name
from .scheme import Operators, SchemeParams, compute_velocity_split, init_state
from .sparse import GridSolver, bicgstab, cg, lattice_modes, matvec

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, worst: float, bound: float, what: str) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(worst <= bound),
        detail=f"max {what} {worst:.3e} (bound {bound:.0e})",
    )


def check_quadrature_exactness() -> CheckResult:
    """Rule integrates x^a y^b exactly (a!b!/(a+b+2)! on the reference triangle)."""
    rule = tri_quadrature_degree5()
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    worst = 0.0
    for a in range(6):
        for b in range(6 - a):
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            approx = 0.5 * float(rule.weights @ (x**a * y**b))
            worst = max(worst, abs(approx - exact))
    return _check("quadrature_exactness_deg5", worst, 1e-14, "monomial defect")


def check_partition_of_unity(seed: int) -> CheckResult:
    """Basis values sum to 1 and gradients to 0 at random barycentric points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        raw = rng.random(3)
        bary = raw / raw.sum()
        for kind in ("p1", "p2"):
            vals, grads = shape_eval(kind, bary)
            worst = max(worst, abs(vals.sum() - 1.0), float(np.abs(grads.sum(axis=0)).max()))
    return _check("partition_of_unity", worst, 1e-13, "defect")


def check_operator_structure() -> CheckResult:
    """Symmetry of mass/stiffness, stiffness kernel, 1^T annihilation of K and D."""
    from .fem import assemble_convection, assemble_drift, assemble_mass

    mesh = build_rect_mesh((-1.0, -1.0, 1.0, 1.0), 7, 7)
    p1 = FunctionSpace.p1(mesh)
    p2 = FunctionSpace.p2(mesh)
    mass = assemble_mass(p1)
    stiff = assemble_stiffness(p1)
    ones = np.ones(p1.n_dofs)
    u = interpolate(p2, lambda x, y, t: np.array([np.sin(x + 2 * y), np.cos(x * y)]), 0.0)
    phi = interpolate(p1, lambda x, y, t: np.cos(x) * np.sin(y), 0.0)
    conv = assemble_convection(u, p1)
    drift = assemble_drift(phi)
    scale = max(1.0, float(np.abs(conv.data).max()), float(np.abs(drift.data).max()))
    worst = max(
        float(np.abs((mass - mass.T).data).max() if (mass - mass.T).nnz else 0.0),
        float(np.abs((stiff - stiff.T).data).max() if (stiff - stiff.T).nnz else 0.0),
        float(np.abs(stiff @ ones).max()),
        float(np.abs(ones @ conv).max()) / scale,
        float(np.abs(ones @ drift).max()) / scale,
    )
    return _check("operator_structure", worst, 1e-12, "defect")


def check_solvers_against_dense(seed: int) -> CheckResult:
    """cg and bicgstab, each with Jacobi and with block Jacobi, agree with dense elimination.

    The systems are random, up to 50x50.  cg uses its default Jacobi and
    bicgstab is given the same diagonal scaling.  The block Jacobi
    preconditioner has 4x4 blocks of the system, solved densely: the
    block-diagonal part of an SPD matrix is SPD.
    """
    from scipy.sparse import csr_matrix

    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (5, 17, 50):
        g = rng.standard_normal((n, n))
        spd = g @ g.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x_dense = np.linalg.solve(spd, b)
        x, report = cg(csr_matrix(spd), b, tol=1e-14)
        if not report.converged:
            return CheckResult("solvers_vs_dense", False, f"cg failed at n={n}")
        worst = max(worst, float(np.abs(x - x_dense).max() / np.abs(x_dense).max()))

        same_block = (np.arange(n)[:, None] // 4) == (np.arange(n)[None, :] // 4)
        block_jacobi = np.where(same_block, spd, 0.0)
        x, report = cg(
            csr_matrix(spd), b, tol=1e-14, preconditioner=lambda r: np.linalg.solve(block_jacobi, r)
        )
        if not report.converged:
            return CheckResult("solvers_vs_dense", False, f"preconditioned cg failed at n={n}")
        worst = max(worst, float(np.abs(x - x_dense).max() / np.abs(x_dense).max()))

        nonsym = g + n * np.eye(n)
        x_dense = np.linalg.solve(nonsym, b)
        jacobi = 1.0 / np.diag(nonsym)
        x, report = bicgstab(csr_matrix(nonsym), b, tol=1e-14, preconditioner=lambda r: jacobi * r)
        if not report.converged:
            return CheckResult("solvers_vs_dense", False, f"bicgstab failed at n={n}")
        worst = max(worst, float(np.abs(x - x_dense).max() / np.abs(x_dense).max()))

        block_jacobi = np.where(same_block, nonsym, 0.0)
        x, report = bicgstab(
            csr_matrix(nonsym), b, tol=1e-14, preconditioner=lambda r: np.linalg.solve(block_jacobi, r)
        )
        if not report.converged:
            return CheckResult("solvers_vs_dense", False, f"preconditioned bicgstab failed at n={n}")
        worst = max(worst, float(np.abs(x - x_dense).max() / np.abs(x_dense).max()))
    return _check("solvers_vs_dense", worst, 1e-8, "relative defect")


def check_singular_neumann_solver(seed: int) -> CheckResult:
    """The grid solve of the pure Neumann P1 stiffness, shifted to zero mean, equals the pinv solution."""
    rng = np.random.default_rng(seed)
    nx, ny = rng.integers(3, 8, size=2)
    mesh = build_rect_mesh((0.0, 0.0, 1.0, ny / nx), nx, ny)
    sing = assemble_stiffness(FunctionSpace.p1(mesh)).toarray()  # kernel = span(ones)
    b = rng.standard_normal(sing.shape[0])
    b -= b.mean()
    x_pinv = np.linalg.pinv(sing) @ b
    x = GridSolver(nx, ny, mesh.h)(b)
    x -= x.mean()
    worst = float(np.abs(x - x_pinv).max() / np.abs(x_pinv).max())
    return _check("singular_neumann_solver", worst, 1e-8, "relative defect")


def check_dirichlet_pinning() -> CheckResult:
    """cg with fixed boundary dofs keeps their values and, on the others, solves the eliminated system.

    The oracle is a dense solve of the P1 stiffness's free block with the lift b - A[:, dofs] g.
    """
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 6, 6)
    p1 = FunctionSpace.p1(mesh)
    stiff = assemble_stiffness(p1)
    rhs = assemble_load(p1, lambda x, y, t: np.ones_like(x), 0.0).values
    dofs = p1.boundary_dofs()
    x0 = np.zeros(p1.n_dofs)
    x0[dofs] = np.linspace(-1.0, 1.0, dofs.shape[0])
    x, report = cg(stiff, rhs, x0=x0, tol=1e-13, fixed=dofs)
    if not report.converged:
        return CheckResult("dirichlet_pinning", False, "solve failed")
    free = np.setdiff1d(np.arange(p1.n_dofs), dofs)
    a = stiff.toarray()
    want = np.linalg.solve(a[np.ix_(free, free)], rhs[free] - a[np.ix_(free, dofs)] @ x0[dofs])
    worst = max(np.abs(x[dofs] - x0[dofs]).max(), np.abs(x[free] - want).max() / np.abs(want).max())
    return _check("dirichlet_pinning", float(worst), 1e-12, "boundary and relative free-row defect")


def check_sources_finite_difference(seed: int, n_points: int = 100) -> CheckResult:
    """Closed-form sources match finite-difference residuals of the exact fields.

    The strong-form residual is rebuilt purely from the exact field
    evaluators: first derivatives by central differences with step 1e-5
    (error ~1e-8 relative), second derivatives by a fourth-order central
    stencil with step 1e-3.  A plain second difference at step 1e-5 would
    carry eps/h^2 ~ 4e-6 |f| of roundoff, more than the 1e-6 agreement bound
    this check enforces, so the wider high-order stencil (truncation plus
    roundoff ~1e-9 |f|) is the only way the comparison can be meaningful in
    double precision.
    """
    rng = np.random.default_rng(seed)
    step = 1e-5
    step2 = 1e-3
    worst = 0.0
    for name in ("example1", "example2"):
        case = case_by_name(name)
        ax, ay, bx, by = case.bounds
        margin = 4 * step2
        x = rng.uniform(ax + margin, bx - margin, n_points)
        y = rng.uniform(ay + margin, by - margin, n_points)
        t = rng.uniform(0.05, 1.0, n_points)

        def val(field, xx, yy, tt):
            return np.asarray(case.exact[field][0](xx, yy, tt), dtype=float)

        def ddt(field, xx, yy, tt):
            return (val(field, xx, yy, tt + step) - val(field, xx, yy, tt - step)) / (2 * step)

        def grad(field, xx, yy, tt):
            gx = (val(field, xx + step, yy, tt) - val(field, xx - step, yy, tt)) / (2 * step)
            gy = (val(field, xx, yy + step, tt) - val(field, xx, yy - step, tt)) / (2 * step)
            return gx, gy

        def lap(field, xx, yy, tt):
            h = step2

            def dxx(fp2, fp1, f0, fm1, fm2):
                return (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)

            f0 = val(field, xx, yy, tt)
            return dxx(
                val(field, xx + 2 * h, yy, tt),
                val(field, xx + h, yy, tt),
                f0,
                val(field, xx - h, yy, tt),
                val(field, xx - 2 * h, yy, tt),
            ) + dxx(
                val(field, xx, yy + 2 * h, tt),
                val(field, xx, yy + h, tt),
                f0,
                val(field, xx, yy - h, tt),
                val(field, xx, yy - 2 * h, tt),
            )

        u = val("u", x, y, t)
        f_c1, f_c2, f_u = case.sources(x, y, t)
        for field, f_closed, sign in (("c1", f_c1, -1.0), ("c2", f_c2, +1.0)):
            cgx, cgy = grad(field, x, y, t)
            pgx, pgy = grad("phi", x, y, t)
            c_val = val(field, x, y, t)
            residual = (
                ddt(field, x, y, t)
                + u[0] * cgx
                + u[1] * cgy
                - lap(field, x, y, t)
                + sign * (cgx * pgx + cgy * pgy + c_val * lap("phi", x, y, t))
            )
            err = np.abs(residual - f_closed) / np.maximum(1.0, np.abs(f_closed))
            worst = max(worst, float(err.max()))

        # Momentum: dt u + (u.grad)u - lap u + grad p + (c1 - c2) grad phi
        ut = ddt("u", x, y, t)
        u_lap = lap("u", x, y, t)
        ugx = (val("u", x + step, y, t) - val("u", x - step, y, t)) / (2 * step)
        ugy = (val("u", x, y + step, t) - val("u", x, y - step, t)) / (2 * step)
        pgx, pgy = grad("p", x, y, t)
        phigx, phigy = grad("phi", x, y, t)
        charge = val("c1", x, y, t) - val("c2", x, y, t)
        residual0 = ut[0] + u[0] * ugx[0] + u[1] * ugy[0] - u_lap[0] + pgx + charge * phigx
        residual1 = ut[1] + u[0] * ugx[1] + u[1] * ugy[1] - u_lap[1] + pgy + charge * phigy
        err0 = np.abs(residual0 - f_u[0]) / np.maximum(1.0, np.abs(f_u[0]))
        err1 = np.abs(residual1 - f_u[1]) / np.maximum(1.0, np.abs(f_u[1]))
        worst = max(worst, float(err0.max()), float(err1.max()))

        # Potential: -lap phi = c1 - c2 holds identically (no source).
        poisson = -lap("phi", x, y, t) - charge
        worst = max(worst, float(np.abs(poisson).max() / max(1.0, float(np.abs(charge).max()))))
    return _check("sources_vs_finite_differences", worst, 1e-6, "relative residual")


def check_splitting_linearity() -> CheckResult:
    """u_hat(xi) = u1 + xi u2 reproduces a direct solve with the scaled forcing.

    The direct solve is Jacobi-CG at tol 1e-14 on the same matrix and
    boundary dofs, without the lattice grid solve that preconditions the split.
    """
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 8, 8)
    ops = Operators(mesh)
    params = SchemeParams(tau=0.05, t_final=0.05, c0=2.0)
    state = init_state(
        ops,
        lambda x, y, t: 1.0 + 0.3 * np.cos(np.pi * x),
        lambda x, y, t: 1.0 + 0.3 * np.cos(np.pi * y),
        lambda x, y, t: np.array([
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            -np.pi * np.sin(np.pi * y) * np.cos(np.pi * x),
        ]),
        lambda x, y, t: np.zeros_like(np.asarray(x, float)),
        params,
    )
    no_load = np.zeros((2, ops.velocity_space.n_dofs))
    split = compute_velocity_split(ops, state, params, no_load, ops.boundary_values(params.tau))
    xi = 0.7321
    system, _ = ops.velocity_system(params)
    rhs = matvec(ops.mass_p2, state.u.values) / params.tau + ops.pressure_load(state.p.values)
    rhs -= xi * split.forcing
    direct, report = cg(system, rhs, tol=1e-14, max_iter=100000, fixed=ops.velocity_dirichlet)
    if not report.converged:
        return CheckResult("splitting_linearity", False, "direct solve failed")
    combined = split.u1.values + xi * split.u2.values
    scale = max(1.0, float(np.abs(direct).max()))
    worst = float(np.abs(combined - direct).max()) / scale
    return _check("splitting_linearity", worst, 1e-9, "superposition defect")


def check_velocity_preconditioner() -> CheckResult:
    """The velocity preconditioner is V B^-1 V^T, by a dense oracle on a 4x4 mesh at tau = 0.05.

    V = V_y ⊗ V_x are the folded lattice sine modes without their zero
    columns, and B keeps the entries of V^T S V, S the P2 M/tau + A on the
    interior points, that couple two aliases of one vertex mode.
    """
    mesh, tau = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 4, 4), 0.05
    ops = Operators(mesh)
    _, solve = ops.velocity_system(SchemeParams(tau=tau, t_final=tau, c0=1.0))
    inner = np.setdiff1d(np.arange(mesh.n_p2_nodes), ops.velocity_dirichlet)
    s = (ops.mass_p2 / tau + ops.stiff_p2).toarray()[np.ix_(inner, inner)]
    v = np.kron(*[lattice_modes(4, mesh.h)] * 2)
    vertex_mode = np.add.outer(np.arange(8) % 4 * 4, np.arange(8) % 4).ravel()
    real = np.abs(v).max(axis=0) > 0
    v, vertex_mode = v[:, real], vertex_mode[real]
    b = np.where(vertex_mode[:, None] == vertex_mode, v.T @ s @ v, 0.0)
    want = np.eye(mesh.n_p2_nodes)
    want[np.ix_(inner, inner)] = v @ np.linalg.solve(b, v.T)
    worst = float(np.abs(solve(np.eye(mesh.n_p2_nodes)) - want).max() / np.abs(want).max())
    return _check("velocity_preconditioner", worst, 1e-12, "relative defect")


def run_all(seed: int = 0) -> list[CheckResult]:
    return [
        check_quadrature_exactness(),
        check_partition_of_unity(seed),
        check_operator_structure(),
        check_solvers_against_dense(seed),
        check_singular_neumann_solver(seed),
        check_dirichlet_pinning(),
        check_sources_finite_difference(seed),
        check_splitting_linearity(),
        check_velocity_preconditioner(),
    ]
