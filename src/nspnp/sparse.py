"""Compressed sparse row matrices, deterministic Krylov solvers, a grid solver and a lattice solver.

Storage is scipy's CSR format: ``indptr`` holds the row offsets, ``indices``
the column indices, ``data`` the values.  The Krylov solvers are written
directly against matrix-vector products so their iteration history (and hence
every digit of the output) is a pure function of the inputs; no threading or
order-of-reduction surprises.

Every product goes through ``matvec``, which calls scipy's CSR kernel
``csr_matvec``, the one ``matrix @ x`` runs, on a zeroed output array, so a
product is bit for bit that of ``matrix @ x`` without its dispatch and its
allocation.  ``cg`` and ``bicgstab`` share one set-up and one report
(``_solve``), write their products and updates into work arrays shaped like
the right-hand side and make no product that the answer does not need: no
A x0 without a start, no second b - A x after a convergence check computed
it, and none for a restart from an x that has not moved since.

``GridSolver`` inverts sigma M⊗M + M⊗K + K⊗M, M⊗K + K⊗M being the P1
stiffness of a uniform mesh whose cells are all cut along one diagonal, by
fast diagonalization (Lynch, Rice and Thomas, 1964): four dense products
against closed-form cosine eigenvectors, no factor.  It serves the pure
Neumann solves (sigma = 0, exact) and, shifted to sigma = 1/tau on the same
bases, the preconditioner of the transport.  ``LatticeSolver``, shifted
the same way, preconditions the velocity: it inverts sigma M + A of the P2
mass and stiffness in the alias blocks of the sine modes of the h/2
lattice's interior (``lattice_modes``, folded so that a vertex mode's
aliases are the blocks of one view; ``lattice_alias_blocks``).

``cg`` takes a vector (n,) or a stack (k, n) of them: a (2, n) vector field
is solved with one scalar block applied row by row, and inner products and
norms are those of the stacked vector.  Its ``fixed`` dofs keep their start
values, the other rows solved on the assembled matrix as an elimination would.

Both Krylov solvers take a ``preconditioner``, a map r -> z.  ``bicgstab``
requires one; ``cg`` preconditions with ``jacobi(matrix)`` without one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvec  # used by matvec only

CsrMatrix = scipy.sparse.csr_matrix

__all__ = [
    "CsrMatrix",
    "SolveReport",
    "GridSolver",
    "LatticeSolver",
    "lattice_modes",
    "lattice_alias_blocks",
    "matvec",
    "jacobi",
    "cg",
    "bicgstab",
]

# Relative rho breakdown threshold for bicgstab, scaled by the vector norms.
_BREAKDOWN = 1e-30

@dataclass(frozen=True)
class SolveReport:
    """Outcome of an iterative solve.

    residual is the true relative residual ||b - A x|| / ||b|| recomputed
    from the returned iterate (absolute when b = 0).
    """

    iterations: int
    residual: float
    converged: bool


class GridSolver:
    """Applies (sigma M⊗M + M⊗K + K⊗M)^-1 on the points of an nx by ny grid of cells of size h.

    K and M are the 1-D P1 stiffness and lumped mass of one grid line with
    natural ends; the points are numbered row-major, x fastest, and a field
    is b.reshape(ny + 1, nx + 1).  On each axis the cosine vectors V have
    V^T M V = I and V^T K V = diag(lam) (_cosine_modes), so the inverse maps
    B to V_y ((V_y^T B V_x) / (sigma + lam_y + lam_x)) V_x^T.  The solver
    is that of sigma = 0, where the constants, the kernel, map to 0, and
    shifted(sigma) gives that of sigma.  b is a vector (n,) or a stack (k, n).
    """

    def __init__(self, nx: int, ny: int, h: float):
        (self.vy, lam_y), (self.vx, lam_x) = (_cosine_modes(n, h) for n in (ny, nx))
        self.lam = lam_y[:, None] + lam_x
        self.inverse = self.shifted(0.0).inverse

    def shifted(self, sigma: float) -> "GridSolver":
        """The solver of the same grid at sigma, sharing this one's bases."""
        solver, total = copy.copy(self), sigma + self.lam
        solver.inverse = np.divide(1.0, total, out=np.zeros(total.shape), where=total != 0.0)
        return solver

    def __call__(self, b: np.ndarray) -> np.ndarray:
        w = self.vy.T @ b.reshape(b.shape[:-1] + self.inverse.shape) @ self.vx
        w *= self.inverse
        return (self.vy @ w @ self.vx.T).reshape(b.shape)


def _cosine_modes(n: int, h: float):
    """(V, lam), V^T M V = I and V^T K V = diag(lam), of all points of a line of n cells of size h.

    V holds cos(pi k j / n), j, k = 0..n (DCT-I); the ends weigh half in M.
    """
    k = np.arange(n + 1)
    weight = np.full(n + 1, 2.0)
    weight[[0, n]] = 1.0  # the constants and the alternating vector have twice the norm
    v = np.cos((np.pi / n) * (np.outer(k, k) % (2 * n))) * np.sqrt(weight / (n * h))
    return v, (2.0 / h * np.sin(np.pi / (2 * n) * k)) ** 2  # (4 / h^2) sin^2(pi k / 2n), exactly 0 at k = 0


def lattice_modes(n: int, h: float) -> np.ndarray:
    """V, the sine modes of the interior of the h/2 lattice of a line of n cells of size h, folded by alias.

    V^T M V = I on the 2n - 1 interior lattice points but for a zero last
    column, V holding sin(pi k j / 2n) (DST-I), and V^T K V is diagonal.  The
    columns are k = 1..n, then 2n - k negated for k = 1..n-1, then zero: in
    the (2, n) view of the columns, (0, p) is mode p + 1 and (1, p) its alias
    2n - p - 1, which is the same vertex mode at the vertices, the even
    points.  Mode n is its own alias; the zero column stands for it.
    """
    k = np.arange(1, n)
    modes = np.concatenate([k, [n], 2 * n - k])
    # The angles are reduced exactly, so sin and cos stay accurate.
    v = np.sin((np.pi / (2 * n)) * (np.outer(np.arange(1, 2 * n), modes) % (4 * n))) * np.sqrt(2.0 / (n * h))
    v[:, n:] *= -1.0
    return np.pad(v, ((0, 0), (0, 1)))


def lattice_alias_blocks(v: np.ndarray) -> np.ndarray:
    """F[c, d + 2, a, b, p] = (v^T P_c S_d v)[(a, p), (b, p)]: the alias blocks of the 1-D lattice operators.

    v is lattice_modes(n, h), columns (a, p) and (b, p) two aliases of one
    mode.  P_c keeps the interior lattice points of parity c (0: the
    vertices) and S_d, |d| <= 2, shifts by d with zeros past the ends:
    (P_c S_d x)_j = x_{j+d} at the points j of parity c.  Each entry is a
    dot product of two columns over the points of parity c.
    """
    m, n = v.shape[0], v.shape[1] // 2
    padded = np.zeros((m + 4, 2, n))
    padded[2:-2] = v.reshape(m, 2, n)
    blocks = np.empty((2, 5, 2, 2, n))
    for c in (0, 1):
        rows = padded[3 - c : m + 2 : 2]  # interior point j is lattice point j + 1
        for d in range(-2, 3):
            blocks[c, d + 2] = np.einsum("jap,jbp->abp", rows, padded[3 - c + d :: 2][: len(rows)])
    return blocks


class LatticeSolver:
    """The exact inverse of sigma M + A's alias blocks in the sine modes of the interior of the h/2 lattice.

    M and A are a P2 mass and stiffness on the row-major lattice of this
    shape, (2 ny + 1, 2 nx + 1) points, of a grid of cells of size h.  On
    the interior points each is sum m[c_y, d_y, c_x, d_x] (P S)_y ⊗ (P S)_x
    over the parity classes c of the rows and the offsets |d| <= 2, m its
    table (_lattice_stencil).  In the folded modes V = V_y ⊗ V_x of
    lattice_modes, B, the part of V^T (sigma M + A) V that couples the four
    aliases of a vertex mode, is sum m F_y ⊗ F_x of the 1-D alias blocks F
    (lattice_alias_blocks), and the solve is V B^-1 V^T; the zero columns of
    the modes pad the blocks of the modes k = n to 4x4 with a unit diagonal.
    B holds A exactly and leaves out only the mass's couplings along the
    cells' diagonals that are odd in both axes: the preconditioned P2
    M/tau + A has its spectrum in [0.995, 1.005] at tau = 0.05 and nx = 8,
    [0.59, 1.41] when the mass dominates.

    The constructor builds the tables, and V, a contiguous V^T (faster in
    products than a transposed view) and F once per axis length, and holds
    no inverse: shifted(sigma) gives the solver of sigma M + A on them.  A
    (2, n) residual is a (2, 2ny+1, 2nx+1) lattice array: the first product
    reads its interior and the last writes the result's, with no copy, and
    the frame, the Dirichlet dofs, passes through.  Between them one einsum
    applies B^-1, laid out [b_y, b_x, a_y, p_y, a_x, p_x] from input to
    output alias, to the (..., 2, ny, 2, nx) view of the modes.
    """

    def __init__(self, mass: CsrMatrix, stiffness: CsrMatrix, shape: tuple[int, int], h: float):
        self.stencils = [_lattice_stencil(a, shape) for a in (mass, stiffness)]
        ny, nx = ((m - 1) // 2 for m in shape)
        axes = {n: lattice_modes(n, h) for n in {ny, nx}}
        axes = {n: (v, v.T.copy(), lattice_alias_blocks(v)) for n, v in axes.items()}
        (self.vy, self.vy_t, self.f_y), (self.vx, self.vx_t, self.f_x) = axes[ny], axes[nx]
        self.shape, self.folded = shape, (2, ny, 2, nx)

    def shifted(self, sigma: float) -> "LatticeSolver":
        """The solver of sigma M + A, sharing this one's modes and alias blocks."""
        solver, (mass, stiffness) = copy.copy(self), self.stencils
        _, ny, _, nx = self.folded
        b = self.f_y.reshape(10, -1).T @ (sigma * mass + stiffness).reshape(10, 10) @ self.f_x.reshape(10, -1)
        b = b.reshape(2, 2, ny, 2, 2, nx).transpose(0, 1, 3, 4, 2, 5)  # [a_y, b_y, a_x, b_x, p_y, p_x]
        b[1, 1, [0, 1], [0, 1], -1] = 1.0  # the zero alias of mode n_y
        b[[0, 1], [0, 1], 1, 1, :, -1] = 1.0  # and of mode n_x
        solver.inverse = np.ascontiguousarray(_block_inverse(b).transpose(1, 3, 0, 4, 2, 5))  # [b_y, b_x, a_y, ..]
        return solver

    def __call__(self, r: np.ndarray) -> np.ndarray:
        z = r.copy()
        shape = r.shape[:-1] + self.shape
        w = self.vy_t @ (r.reshape(shape)[..., 1:-1, 1:-1] @ self.vx)
        modes = np.einsum("jlaybx,...jylx->...aybx", self.inverse, w.reshape(w.shape[:-2] + self.folded))
        np.matmul(self.vy, modes.reshape(w.shape) @ self.vx_t, out=z.reshape(shape)[..., 1:-1, 1:-1])
        return z


def _lattice_stencil(matrix: CsrMatrix, shape: tuple[int, int]) -> np.ndarray:
    """m[c_y, d_y + 2, c_x, d_x + 2]: the entries of a P2 matrix's rows of each parity class at offset (d_y, d_x).

    The dofs are the points of the row-major lattice of this shape.  Every
    interior point of a class has the same row, so the row of the first one
    gives it; a class with no interior point keeps zeros.
    """
    stencil = np.zeros((2, 5, 2, 5))
    for c_y, c_x in np.ndindex(2, 2):
        y, x = 2 - c_y, 2 - c_x
        if y < shape[0] - 1 and x < shape[1] - 1:
            row = slice(*matrix.indptr[y * shape[1] + x : y * shape[1] + x + 2])
            d_y, d_x = np.divmod(matrix.indices[row], shape[1])
            stencil[c_y, d_y - y + 2, c_x, d_x - x + 2] = matrix.data[row]
    return stencil


def _block_inverse(b: np.ndarray) -> np.ndarray:
    """The inverses of the symmetric positive definite [[P, Q], [Q^T, R]], 2x2 blocks b[i, j] of shape (2, 2, ...).

    By the Schur complement S = R - Q^T P^-1 Q: the 2x2 inverses are closed form.
    """
    def product(x, y):
        return np.einsum("ik...,kj...->ij...", x, y)

    def inverse(x):
        return np.array([[x[1, 1], -x[0, 1]], [-x[1, 0], x[0, 0]]]) / (x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0])

    p_inv = inverse(b[0, 0])
    x = product(p_inv, b[0, 1])
    s_inv = inverse(b[1, 1] - product(b[0, 1].swapaxes(0, 1), x))
    y = product(x, s_inv)
    return np.array([[p_inv + product(y, x.swapaxes(0, 1)), -y], [-y.swapaxes(0, 1), s_inv]])


def matvec(matrix: CsrMatrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """matrix @ x for a vector x, row by row for a stack (k, n), written into out.

    Each row is one call of scipy's CSR kernel csr_matvec, the one that
    matrix @ x runs, on a zeroed row of out, so the result is bit for bit
    that of matrix @ x.  out, shaped like x with matrix.shape[0] columns, is
    allocated when not given; it is returned.
    """
    if matrix.format != "csr":
        raise TypeError(f"matvec takes a CSR matrix, got {matrix.format!r}")
    m, n = matrix.shape
    if out is None:
        out = np.zeros(x.shape[:-1] + (m,))
    else:
        out.fill(0.0)  # the kernel adds the product to out
    for row, result in zip(x, out) if x.ndim == 2 else ((x, out),):
        csr_matvec(m, n, matrix.indptr, matrix.indices, matrix.data, row, result)
    return out


def jacobi(matrix: CsrMatrix):
    """The Jacobi preconditioner r -> r / diag(matrix), applied to each row of a stack."""
    d = matrix.diagonal()
    if np.any(d <= 0):
        raise ValueError("Jacobi preconditioning needs a positive diagonal")
    inv_diag = 1.0 / d
    return lambda r: inv_diag * r


def cg(
    matrix: CsrMatrix,
    b,
    x0=None,
    tol: float = 1e-12,
    max_iter: int | None = None,
    preconditioner=None,
    fixed=None,
):
    """Preconditioned conjugate gradients for symmetric positive definite systems.

    Returns (x, SolveReport).  b is a vector (n,) or a stack (k, n) of them,
    which is solved as one system with the block-diagonal diag(matrix, ...):
    inner products and norms run over the whole stack, and x has b's shape.
    preconditioner, a symmetric positive definite map r -> z on b's shape,
    replaces jacobi(matrix) when given.  A non-finite residual norm stops
    the iteration and is reported as not converged.

    fixed, Dirichlet dof indices, keeps x[..., fixed] at x0's values g (0
    without x0) and solves the other rows as the symmetric elimination
    diag(keep) A diag(keep) + diag(1 - keep) would, on the matrix as
    assembled: b is lifted once to b - A g and its fixed entries set to g,
    and every residual, preconditioned residual and product A p is zeroed
    on the fixed rows.  tol is relative to the norm of that right-hand side,
    the eliminated system's.

    A start whose residual exceeds that right-hand side is worse than zero
    (a velocity carrying a projection's boundary layer can be), so cg drops
    it, with no product: the solve is bit for bit that from zero and g.  A
    recurrence residual within tol is checked against b - A x; on a near
    miss, the true one not within tol, the directions restart from it, at
    most five times, and a sixth stops the iteration.
    """
    return _solve(_cg, matrix, b, x0, tol, max_iter, preconditioner, fixed=fixed, stacks=True)


def bicgstab(
    matrix: CsrMatrix,
    b,
    x0=None,
    tol: float = 1e-12,
    max_iter: int | None = None,
    *,
    preconditioner,
):
    """Right-preconditioned stabilized biconjugate gradients (van der Vorst, 1992).

    Returns (x, SolveReport).  b is a vector.  preconditioner, a map r -> z
    approximating the inverse of the matrix, is applied on the right, so
    the residual the method monitors is that of the unpreconditioned
    system.  A restart re-seeds the recurrence and the shadow residual from
    the true residual b - A x (Barrett et al., Templates, 1994).  A
    breakdown, rho small against ||r_shadow|| ||r|| or a zero denominator
    of alpha, restarts once, and a second one stops the iteration.  A
    recurrence residual within tol, at the half step or the full one, is
    checked against b - A x; a near miss, the true one not within tol,
    restarts at most five times, and a sixth stops the iteration.  So do
    t = A s_hat = 0, omega = 0 and a non-finite residual norm.
    """
    return _solve(_bicgstab, matrix, b, x0, tol, max_iter, preconditioner)


def _solve(method, matrix, b, x0, tol, max_iter, preconditioner, fixed=None, stacks=False):
    """The set-up and the report of cg and bicgstab, around method, which does the iterations.

    Checks the shapes (b a vector, or with stacks also a stack (k, n)),
    copies b and x0 as floats, lifts b by the fixed values and returns zero
    at once for a zero right-hand side.  method(product, precondition, b,
    x, start, bnorm, tol, max_iter) sees b and x zeroed on the fixed
    entries, and every product(v, out), A v written into out, and
    precondition(r) it makes is zeroed there too.  It updates x in place
    and returns its iteration count and the norm of the last true residual
    b - A x, which the report divides by bnorm.
    """
    b = np.array(b, dtype=float)  # a copy, lifted and pinned below
    n = b.shape[-1]
    if b.ndim > 1 + stacks or matrix.shape != (n, n):
        raise ValueError(f"shape mismatch: matrix {matrix.shape}, rhs {b.shape}")
    if x0 is not None and np.shape(x0) != b.shape:
        raise ValueError(f"shape mismatch: x0 {np.shape(x0)}, rhs {b.shape}")
    x = np.zeros(b.shape) if x0 is None else np.array(x0, dtype=float)
    # The fixed entries of the flattened stack, and x0's values there; x holds the free part until the return.
    fixed = np.empty(0, dtype=np.intp) if fixed is None else (np.arange(b.size // n)[:, None] * n + fixed).ravel()
    g = x.take(fixed)
    if np.any(g):
        lift = np.zeros(b.shape)
        lift.put(fixed, g)
        b -= matvec(matrix, lift)
    x.put(fixed, 0.0)
    b.put(fixed, g)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(b.shape), SolveReport(iterations=0, residual=0.0, converged=True)
    b.put(fixed, 0.0)
    if preconditioner is None:
        preconditioner = jacobi(matrix)

    def pin(v):  # zero the fixed entries of v, in place
        v.put(fixed, 0.0)
        return v

    iterations, rnorm = method(
        lambda v, out: pin(matvec(matrix, v, out=out)), lambda r: pin(preconditioner(r)),
        b, x, x0 is not None, bnorm, tol, 10 * b.size if max_iter is None else max_iter,
    )
    residual = float(rnorm / bnorm)
    x.put(fixed, g)
    return x, SolveReport(iterations=iterations, residual=residual, converged=bool(residual <= tol))


def _cg(product, precondition, b, x, start, bnorm, tol, max_iter):
    """The iterations of cg.  x, r and p are updated in place, the products and scaled updates go into q and scaled."""
    bound = tol * bnorm
    q = np.empty(b.shape)  # A p, and A x when the residual is recomputed
    scaled = np.empty(b.shape)  # alpha p, then alpha q
    r = b - product(x, q) if start else b.copy()  # no product without a start
    rnorm = np.linalg.norm(r)
    if rnorm > bnorm:  # a start worse than zero, dropped
        x.fill(0.0)
        r = b.copy()
        rnorm = np.linalg.norm(r)
    true_residual = True  # r is b - A x, not the recurrence
    z = precondition(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    iterations = restarts = 0
    while bound < rnorm < np.inf and iterations < max_iter:
        pq = float(np.vdot(p, product(p, q)))
        if pq <= 0.0:
            break  # lost positive definiteness (numerically), report as is
        alpha = rz / pq
        x += np.multiply(alpha, p, out=scaled)
        r -= np.multiply(alpha, q, out=scaled)
        iterations += 1
        rnorm = np.linalg.norm(r)
        true_residual = rnorm <= bound
        if true_residual:  # the recurrence drifts from b - A x near the end: check it
            rnorm = np.linalg.norm(np.subtract(b, product(x, q), out=r))
            if rnorm <= bound or restarts == 5:
                break
            restarts += 1
        z = precondition(r)
        rz_next = float(np.vdot(r, z))
        if true_residual:  # a near miss: restart the directions from b - A x
            np.copyto(p, z)
        else:
            p *= rz_next / rz
            p += z
        rz = rz_next
    if not true_residual:
        rnorm = np.linalg.norm(np.subtract(b, product(x, q), out=r))
    return iterations, rnorm


def _bicgstab(product, precondition, b, x, start, bnorm, tol, max_iter):
    """The iterations of bicgstab.

    residual is b - A x, computed at the start and at each convergence
    check.  Each seed of the recurrence, the start and every restart, takes
    it as r and as the shadow residual, computed anew only if x has moved.
    """
    bound = tol * bnorm
    ax, v, t = np.empty(b.shape), np.empty(b.shape), np.empty(b.shape)  # A x, A p_hat, A s_hat
    residual = b - product(x, ax) if start else b.copy()  # no product without a start
    moved = False  # x has moved since residual was computed
    iterations = breakdowns = near_misses = 0
    seed = True
    while True:
        if seed:
            if moved:
                residual, moved = b - product(x, ax), False
            r = r_shadow = residual  # none of the three is updated in place
            rnorm = shadow_norm = np.linalg.norm(r)  # ||r|| and ||r_shadow||, for the breakdown test
            rho = alpha = omega = 1.0
            p = np.zeros(b.shape)
            v.fill(0.0)
            seed = False
        if not (bound < rnorm < np.inf and iterations < max_iter):
            break
        rho_next = float(r_shadow @ r)
        breakdown = abs(rho_next) < _BREAKDOWN * shadow_norm * rnorm
        if not breakdown:
            beta = (rho_next / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
            p_hat = precondition(p)
            denom = float(r_shadow @ product(p_hat, v))
            breakdown = denom == 0.0
        if breakdown:
            if breakdowns:
                break
            breakdowns, seed = 1, True
            continue
        alpha = rho_next / denom
        s = r - alpha * v
        iterations += 1
        if np.linalg.norm(s) <= bound:  # the half step's recurrence residual is within tol
            x += alpha * p_hat
        else:
            s_hat = precondition(s)
            tt = float(t @ product(s_hat, t))
            if tt == 0.0:
                x += alpha * p_hat
                moved = True
                break
            omega = float(t @ s) / tt
            x += alpha * p_hat + omega * s_hat
            moved = True
            r = s - omega * t
            rho = rho_next
            if omega == 0.0:
                break
            rnorm = np.linalg.norm(r)
            if rnorm > bound:
                continue
        # The recurrence residual is within tol: check it against b - A x, and restart from that on a near miss.
        residual, moved = b - product(x, ax), False
        if np.linalg.norm(residual) <= bound or near_misses == 5:
            break
        near_misses, seed = near_misses + 1, True
    return iterations, np.linalg.norm(b - product(x, ax) if moved else residual)
