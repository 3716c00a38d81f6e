"""Compressed sparse row matrices, deterministic Krylov solvers and a grid solver.

Storage is scipy's CSR format: ``indptr`` holds the row offsets, ``indices``
the column indices, ``data`` the values.  The Krylov solvers are written
directly against matrix-vector products so their iteration history (and hence
every digit of the output) is a pure function of the inputs; no threading or
order-of-reduction surprises.

Every product goes through ``matvec``, which calls scipy's CSR kernel
``csr_matvec``, the one ``matrix @ x`` runs, on a zeroed output array, so a
product is bit for bit that of ``matrix @ x`` without its dispatch and its
allocation.  ``cg`` and ``bicgstab`` write their products and updates into
work arrays shaped like the right-hand side and make no product that the
answer does not need: no A x0 without a start, and no second b - A x after
the convergence check computed it.

``GridSolver`` inverts sigma M⊗M + M⊗K + K⊗M, M⊗K + K⊗M being the P1
stiffness of a uniform mesh whose cells are all cut along one diagonal, by
fast diagonalization (Lynch, Rice and Thomas, 1964): four dense products
against closed-form cosine eigenvectors, no factor.  It serves the pure
Neumann solves (sigma = 0, exact) and, shifted to sigma = 1/tau on the same
bases, the preconditioner of the transport.  ``lattice_modes`` gives the sine modes of
the interior of the h/2 lattice of the P2 nodes, ordered and signed so that
the four aliases of a vertex mode are the blocks of one view; the velocity
preconditioner inverts the P2 operator in them (scheme._LatticeSolve).

``cg`` takes a vector (n,) or a stack (k, n) of them: a (2, n) vector field
is solved with one scalar block applied row by row, and inner products and
norms are those of the stacked vector.

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
    "lattice_modes",
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
    B to V_y ((V_y^T B V_x) / (sigma + lam_y + lam_x)) V_x^T.  At sigma = 0
    the constants, the kernel, map to 0.  b is a vector (n,) or a stack (k, n).
    """

    def __init__(self, nx: int, ny: int, h: float, sigma: float = 0.0):
        (self.vy, lam_y), (self.vx, lam_x) = (_cosine_modes(n, h) for n in (ny, nx))
        self.lam = lam_y[:, None] + lam_x
        self.inverse = self.shifted(sigma).inverse

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
    return v, _eigenvalues(n, h, k)


def lattice_modes(n: int, h: float):
    """(V, lam, mu): the sine modes of the interior of the h/2 lattice of a line of n cells of size h.

    V^T M V = I and V^T K V = diag(lam) on the 2n - 1 interior lattice
    points, V holding sin(pi k j / 2n) (DST-I).  At the vertices, the even
    points, mode k is vertex mode k for k < n, minus vertex mode 2n - k for
    k > n, and 0 for k = n.  So the columns are k = 1..n-1, then 2n - k
    negated, then n: both blocks of n - 1 columns are the vertex modes at
    the vertices, whose eigenvalues are mu, and E, lattice modes to vertex
    modes, is their sum.
    """
    k = np.arange(1, n)
    modes = np.concatenate([k, 2 * n - k, [n]])
    # The angles are reduced exactly, so sin and cos stay accurate.
    v = np.sin((np.pi / (2 * n)) * (np.outer(np.arange(1, 2 * n), modes) % (4 * n))) * np.sqrt(2.0 / (n * h))
    v[:, n - 1 : 2 * n - 2] *= -1.0
    return v, _eigenvalues(2 * n, h / 2, modes), _eigenvalues(n, h, k)


def _eigenvalues(n: int, h: float, k: np.ndarray) -> np.ndarray:
    """lam_k = (4 / h^2) sin^2(pi k / 2n) of mode k of a line of n cells of size h, exactly 0 for k = 0."""
    return (2.0 / h * np.sin(np.pi / (2 * n) * k)) ** 2


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
):
    """Preconditioned conjugate gradients for symmetric positive definite systems.

    Returns (x, SolveReport).  b is a vector (n,) or a stack (k, n) of them,
    which is solved as one system with the block-diagonal diag(matrix, ...):
    inner products and norms run over the whole stack, and x has b's shape.
    tol is relative to ||b||.  preconditioner, a symmetric positive definite
    map r -> z on b's shape, replaces jacobi(matrix) when given.  A
    non-finite residual norm stops the iteration and is reported as not
    converged.

    x, r and p are updated in place, and the products and the scaled
    updates go into two work arrays.  The reported residual is the true one
    that the convergence check computed, or b - A x computed once on any
    other exit.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[-1]
    if b.ndim > 2 or matrix.shape != (n, n):
        raise ValueError(f"shape mismatch: matrix {matrix.shape}, rhs {b.shape}")
    if x0 is not None and np.shape(x0) != b.shape:
        raise ValueError(f"shape mismatch: x0 {np.shape(x0)}, rhs {b.shape}")
    if max_iter is None:
        max_iter = 10 * b.size
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(b.shape), SolveReport(iterations=0, residual=0.0, converged=True)
    if preconditioner is None:
        preconditioner = jacobi(matrix)

    q = np.empty(b.shape)  # A p, and A x when the residual is recomputed
    scaled = np.empty(b.shape)  # alpha p, then alpha q
    x = np.zeros(b.shape) if x0 is None else np.array(x0, dtype=float)
    r = b.copy() if x0 is None else b - matvec(matrix, x)  # no product without a start
    true_residual = True  # r is b - A x, not the recurrence
    z = preconditioner(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    iterations = 0
    refreshes = 0
    rnorm = np.linalg.norm(r)
    converged = rnorm <= tol * bnorm
    while not converged and iterations < max_iter and np.isfinite(rnorm):
        matvec(matrix, p, out=q)
        pq = float(np.vdot(p, q))
        if pq <= 0.0:
            break  # lost positive definiteness (numerically), report as is
        alpha = rz / pq
        x += np.multiply(alpha, p, out=scaled)
        r -= np.multiply(alpha, q, out=scaled)
        true_residual = False
        iterations += 1
        rnorm = np.linalg.norm(r)
        if rnorm <= tol * bnorm:
            # The recurrence residual drifts from the true one near the end;
            # verify against b - A x and, on a near miss, keep iterating from
            # the recomputed residual instead of reporting failure.
            np.subtract(b, matvec(matrix, x, out=q), out=r)
            true_residual = True
            rnorm = np.linalg.norm(r)
            if rnorm <= tol * bnorm or refreshes >= 5:
                break
            refreshes += 1
            z = preconditioner(r)
            np.copyto(p, z)
            rz = float(np.vdot(r, z))
            continue
        z = preconditioner(r)
        rz_next = float(np.vdot(r, z))
        p *= rz_next / rz
        p += z
        rz = rz_next

    if not true_residual:
        rnorm = np.linalg.norm(np.subtract(b, matvec(matrix, x, out=q), out=r))
    residual = float(rnorm / bnorm)
    return x, SolveReport(iterations=iterations, residual=residual, converged=bool(residual <= tol))


def bicgstab(
    matrix: CsrMatrix,
    b,
    x0=None,
    tol: float = 1e-12,
    max_iter: int | None = None,
    *,
    preconditioner,
):
    """Right-preconditioned stabilized biconjugate gradients (van der Vorst).

    Returns (x, SolveReport).  preconditioner, a map r -> z approximating
    the inverse of the matrix, is applied on the right, so the residual the
    method monitors is that of the unpreconditioned system.  On a rho
    breakdown the method restarts once from the current iterate with a fresh
    shadow residual; a second breakdown reports failure, and so does a
    non-finite residual norm.  The products go into work arrays through
    matvec; the reported residual is the last b - A x computed at the answer.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if b.ndim != 1 or matrix.shape != (n, n):
        raise ValueError(f"shape mismatch: matrix {matrix.shape}, rhs {b.shape}")
    if x0 is not None and np.shape(x0) != b.shape:
        raise ValueError(f"shape mismatch: x0 {np.shape(x0)}, rhs {b.shape}")
    if max_iter is None:
        max_iter = 10 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(iterations=0, residual=0.0, converged=True)

    product = np.empty(n)  # A x for a residual
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b.copy() if x0 is None else b - matvec(matrix, x)
    r_shadow = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    t = np.empty(n)
    p = np.zeros(n)
    iterations = 0
    restarted = False
    refreshes = 0
    rnorm = np.linalg.norm(r)
    converged = rnorm <= tol * bnorm
    verified = rnorm  # the last ||b - A xv|| computed; None once x moves without one

    def residual_norm(xv) -> float:
        nonlocal verified
        verified = np.linalg.norm(b - matvec(matrix, xv, out=product))
        return verified

    def refresh():
        # Re-seed the recurrence from the true residual at the current x.
        nonlocal r, r_shadow, rho, alpha, omega
        r = b - matvec(matrix, x, out=product)
        r_shadow = r.copy()
        rho = alpha = omega = 1.0
        v[:] = 0.0
        p[:] = 0.0

    while not converged and iterations < max_iter and np.isfinite(rnorm):
        rho_next = float(r_shadow @ r)
        if abs(rho_next) < _BREAKDOWN * max(
            1.0, float(np.linalg.norm(r_shadow) * np.linalg.norm(r))
        ):
            if restarted:
                break
            # Restart from the current iterate with a fresh shadow residual.
            restarted = True
            refresh()
            continue
        beta = (rho_next / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = preconditioner(p)
        matvec(matrix, p_hat, out=v)
        denom = float(r_shadow @ v)
        if denom == 0.0:
            if restarted:
                break
            restarted = True
            refresh()
            continue
        alpha = rho_next / denom
        s = r - alpha * v
        iterations += 1
        if np.linalg.norm(s) <= tol * bnorm and residual_norm(x + alpha * p_hat) <= tol * bnorm:
            x += alpha * p_hat
            converged = True
            break
        s_hat = preconditioner(s)
        matvec(matrix, s_hat, out=t)
        tt = float(t @ t)
        if tt == 0.0:
            x += alpha * p_hat
            converged = residual_norm(x) <= tol * bnorm
            break
        omega = float(t @ s) / tt
        x += alpha * p_hat + omega * s_hat
        verified = None
        r = s - omega * t
        rho = rho_next
        if omega == 0.0:
            break
        rnorm = np.linalg.norm(r)
        if rnorm <= tol * bnorm:
            if residual_norm(x) <= tol * bnorm:
                converged = True
                break
            if refreshes >= 5:
                break
            refreshes += 1
            refresh()

    residual = float((residual_norm(x) if verified is None else verified) / bnorm)
    return x, SolveReport(iterations=iterations, residual=residual, converged=bool(residual <= tol))
