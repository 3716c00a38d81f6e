"""Compressed sparse row matrices, deterministic Krylov solvers and banded factors.

Storage is scipy's CSR format: ``indptr`` holds the row offsets, ``indices``
the column indices, ``data`` the values.  The Krylov solvers are written
directly against matrix-vector products so their iteration history (and hence
every digit of the output) is a pure function of the inputs; no threading or
order-of-reduction surprises.

``RepeatedBlock`` applies diag(B, B) without building it, and
``TwoLevelPreconditioner`` is a symmetric two-level cycle for ``cg`` whose
coarse operator is factored once by LAPACK's banded Cholesky.  Both act on
flat vectors that hold one copy after the other: values.ravel() of a (2, n)
vector field, which is solved with one scalar block.

``NeumannSolver`` solves pure Neumann (consistent singular) systems, whose
kernel is spanned by ones, directly: one dof is pinned and the rest of the
matrix is factored once by the same banded Cholesky.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg import cho_solve_banded, cholesky_banded

CsrMatrix = scipy.sparse.csr_matrix

__all__ = [
    "CsrMatrix",
    "SolveReport",
    "RepeatedBlock",
    "TwoLevelPreconditioner",
    "NeumannSolver",
    "cg",
    "bicgstab",
]

# Relative rho breakdown threshold for bicgstab, scaled by the vector norms.
_BREAKDOWN = 1e-30

# Jacobi damping of the two-level cycle.  On the eliminated P2 Helmholtz
# blocks M/tau + A, lambda_max(D^-1 A) <= 2.19 for tau from 1e-4 to 1e3, so
# omega * lambda_max < 2 and the cycle is positive definite.
_OMEGA = 0.6


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an iterative solve.

    residual is the true relative residual ||b - A x|| / ||b|| recomputed
    from the returned iterate (absolute when b = 0).
    """

    iterations: int
    residual: float
    converged: bool


def _cholesky_banded(matrix) -> np.ndarray:
    """Upper Cholesky factor of a sparse SPD matrix in LAPACK band storage (band + 1 rows)."""
    coo = scipy.sparse.coo_matrix(matrix)
    upper = coo.row <= coo.col
    rows, cols = coo.row[upper], coo.col[upper]
    band = int((cols - rows).max(initial=0))  # 0 for an empty matrix (one-cell mesh)
    banded = np.zeros((band + 1, coo.shape[0]))
    banded[band + rows - cols, cols] = coo.data[upper]
    return cholesky_banded(banded)


def _per_row(matrix, x: np.ndarray) -> np.ndarray:
    """matrix @ row for each row of x; scipy's one-vector product beats its many-vector one."""
    return np.stack([matrix @ row for row in x])


class RepeatedBlock:
    """The block-diagonal matrix diag(block, block), applied block by block.

    A vector holds the two copies one after the other: entries [0, n) belong
    to the first, [n, 2 n) to the second, n being the block size.  Only the
    block is stored; nnz counts the nonzeros of the whole block-diagonal
    matrix.
    """

    def __init__(self, block: CsrMatrix):
        n = block.shape[0]
        if block.shape != (n, n):
            raise ValueError(f"block must be square, got {block.shape}")
        self.block = block
        self.shape = (2 * n, 2 * n)
        self.nnz = 2 * block.nnz

    def diagonal(self) -> np.ndarray:
        return np.tile(self.block.diagonal(), 2)

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape[1],):
            raise ValueError(f"shape mismatch: matrix {self.shape}, vector {x.shape}")
        return _per_row(self.block, x.reshape(2, -1)).ravel()


class TwoLevelPreconditioner:
    """Symmetric two-level V(1,1) cycle for an SPD matrix with eliminated rows.

    One application to a residual r is damped Jacobi, a coarse-grid
    correction with the Galerkin operator P^T A P, and damped Jacobi again.
    The coarse operator is factored once by banded Cholesky.  The cycle is
    symmetric, and positive definite when _OMEGA * lambda_max(D^-1 A) < 2.

    fixed lists the constrained dofs, whose rows and columns of the matrix
    are identity.  Their rows of the prolongation are zeroed here, so the
    cycle passes their residual through unchanged.  A residual holding several
    copies one after the other (see RepeatedBlock) is treated copy by copy.
    """

    def __init__(self, matrix: CsrMatrix, prolongation: CsrMatrix, fixed):
        n = matrix.shape[0]
        if prolongation.shape[0] != n:
            raise ValueError(f"prolongation {prolongation.shape} does not match matrix {matrix.shape}")
        d = matrix.diagonal()
        if np.any(d <= 0):
            raise ValueError("the two-level cycle needs a positive diagonal")
        fixed = np.asarray(fixed, dtype=np.int64)
        weight = _OMEGA / d
        weight[fixed] = 1.0  # identity rows: exact solve
        free = np.ones(n)
        free[fixed] = 0.0
        self.n = n
        self.matrix = matrix
        self.weight = weight
        self.prolongation = (scipy.sparse.diags(free) @ prolongation).tocsr()
        self.restriction = self.prolongation.T.tocsr()
        self.coarse_factor = _cholesky_banded(self.restriction @ matrix @ self.prolongation)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = r.reshape(-1, self.n)  # one row per copy
        z = self.weight * r
        defect = _per_row(self.restriction, r - _per_row(self.matrix, z))
        correction = cho_solve_banded((self.coarse_factor, False), defect.T, check_finite=False)
        z += _per_row(self.prolongation, correction.T)
        z += self.weight * (r - _per_row(self.matrix, z))
        return z.ravel()


class NeumannSolver:
    """Solves A x = b for SPD A whose kernel is spanned by ones, b first losing its mean.

    The first dof is pinned to zero and the rest of A, positive definite, is
    factored once by banded Cholesky; callers shift x to the mean they need.
    """

    def __init__(self, matrix):
        self.factor = _cholesky_banded(scipy.sparse.csr_matrix(matrix)[1:, 1:])

    def __call__(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        x = np.zeros(b.shape)
        x[1:] = cho_solve_banded((self.factor, False), b[1:] - b.mean(), check_finite=False)
        return x


def cg(
    matrix: CsrMatrix,
    b,
    x0=None,
    tol: float = 1e-12,
    max_iter: int | None = None,
    preconditioner=None,
):
    """Preconditioned conjugate gradients for symmetric positive definite systems.

    Returns (x, SolveReport).  tol is relative to ||b||.  preconditioner, a
    symmetric positive definite map r -> z, replaces the Jacobi
    preconditioner when given.  A non-finite residual norm stops the
    iteration and is reported as not converged.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"shape mismatch: matrix {matrix.shape}, rhs {b.shape}")
    if max_iter is None:
        max_iter = 10 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(iterations=0, residual=0.0, converged=True)

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if preconditioner is None:
        d = matrix.diagonal()
        if np.any(d <= 0):
            raise ValueError("Jacobi preconditioning needs a positive diagonal")
        inv_diag = 1.0 / d

        def preconditioner(rv):
            return inv_diag * rv

    r = b - matrix @ x
    z = preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    refreshes = 0
    rnorm = np.linalg.norm(r)
    converged = rnorm <= tol * bnorm
    while not converged and iterations < max_iter and np.isfinite(rnorm):
        q = matrix @ p
        pq = float(p @ q)
        if pq <= 0.0:
            break  # lost positive definiteness (numerically), report as is
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        iterations += 1
        rnorm = np.linalg.norm(r)
        if rnorm <= tol * bnorm:
            # The recurrence residual drifts from the true one near the end;
            # verify against b - A x and, on a near miss, keep iterating from
            # the recomputed residual instead of reporting failure.
            r = b - matrix @ x
            rnorm = np.linalg.norm(r)
            if rnorm <= tol * bnorm or refreshes >= 5:
                converged = rnorm <= tol * bnorm
                break
            refreshes += 1
            z = preconditioner(r)
            p = z.copy()
            rz = float(r @ z)
            continue
        z = preconditioner(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next

    true_res = np.linalg.norm(b - matrix @ x) / bnorm
    return x, SolveReport(
        iterations=iterations, residual=float(true_res), converged=bool(true_res <= tol)
    )


def bicgstab(
    matrix: CsrMatrix,
    b,
    x0=None,
    tol: float = 1e-12,
    max_iter: int | None = None,
):
    """Jacobi-preconditioned stabilized biconjugate gradients (van der Vorst).

    Returns (x, SolveReport).  On a rho breakdown the method restarts once
    from the current iterate with a fresh shadow residual; a second breakdown
    reports failure, and so does a non-finite residual norm.
    """
    b = np.asarray(b, dtype=float).copy()
    n = b.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"shape mismatch: matrix {matrix.shape}, rhs {b.shape}")
    if max_iter is None:
        max_iter = 10 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(iterations=0, residual=0.0, converged=True)

    d = matrix.diagonal()
    if np.any(d == 0):
        raise ValueError("Jacobi preconditioning needs a nonzero diagonal")
    inv_diag = 1.0 / d

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    r = b - matrix @ x
    r_shadow = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    iterations = 0
    restarted = False
    refreshes = 0
    rnorm = np.linalg.norm(r)
    converged = rnorm <= tol * bnorm

    def verified(xv) -> bool:
        return np.linalg.norm(b - matrix @ xv) <= tol * bnorm

    def refresh():
        # Re-seed the recurrence from the true residual at the current x.
        nonlocal r, r_shadow, rho, alpha, omega
        r = b - matrix @ x
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
        p_hat = inv_diag * p
        v = matrix @ p_hat
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
        if np.linalg.norm(s) <= tol * bnorm and verified(x + alpha * p_hat):
            x += alpha * p_hat
            converged = True
            break
        s_hat = inv_diag * s
        t = matrix @ s_hat
        tt = float(t @ t)
        if tt == 0.0:
            x += alpha * p_hat
            converged = verified(x)
            break
        omega = float(t @ s) / tt
        x += alpha * p_hat + omega * s_hat
        r = s - omega * t
        rho = rho_next
        if omega == 0.0:
            break
        rnorm = np.linalg.norm(r)
        if rnorm <= tol * bnorm:
            if verified(x):
                converged = True
                break
            if refreshes >= 5:
                break
            refreshes += 1
            refresh()

    true_res = np.linalg.norm(b - matrix @ x) / bnorm
    return x, SolveReport(
        iterations=iterations, residual=float(true_res), converged=bool(true_res <= tol)
    )
