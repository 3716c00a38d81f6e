"""Structure-preservation diagnostics: masses, energies, extrema.

Every quantity here is computed from assembled operators, not from separate
quadrature loops, so the reported numbers satisfy the same algebraic
identities the scheme is built on (e.g. the mass of an ion species changes
only through the source term and the solver residual).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import matvec

__all__ = [
    "DiagRecord",
    "DIAG_COLUMNS",
    "mass",
    "mass_norm_sq",
    "discrete_energy",
    "original_energy",
    "extrema",
]

# Serialized column order for diagnostics.csv; extra DiagRecord fields are
# in-memory only.
DIAG_COLUMNS = (
    "step",
    "time",
    "mass_c1",
    "mass_c2",
    "min_c1",
    "max_c1",
    "min_c2",
    "max_c2",
    "E_h",
    "E_orig",
    "diss_u",
    "diss_charge",
    "diss_drift",
    "xi",
    "r",
)


@dataclass(frozen=True)
class DiagRecord:
    """Per-step diagnostics snapshot (values at the end of the step)."""

    step: int
    time: float
    mass_c1: float
    mass_c2: float
    min_c1: float
    max_c1: float
    min_c2: float
    max_c2: float
    E_h: float
    E_orig: float
    diss_u: float
    diss_charge: float
    diss_drift: float
    xi: float
    r: float
    # Residual of the per-step energy identity; exact (up to solver
    # tolerances) only for source-free runs with homogeneous velocity data.
    energy_residual: float = 0.0

    def as_row(self) -> list:
        return [getattr(self, name) for name in DIAG_COLUMNS]

    @classmethod
    def field_names(cls) -> tuple:
        return DIAG_COLUMNS


def mass(c, mass_matrix) -> float:
    """Total amount int c dx of a P1 field: ones^T M c."""
    return float(np.sum(mass_matrix @ c.values))


def mass_norm_sq(values: np.ndarray, mass_matrix) -> float:
    """||v||_M^2 = v^T M v of a field's values, each row of a (k, n) stack with M."""
    return float(np.vdot(values, matvec(mass_matrix, values)))


def discrete_energy(state, params, *, u_norm_sq: float, stiff_p1) -> float:
    """Modified energy 0.5 ||u||^2 + (tau^2/2) ||grad p||^2 + r^2.

    This is the quantity the scheme dissipates unconditionally.  u_norm_sq
    is ||u||_M^2 (mass_norm_sq), which the caller computes once per state.
    """
    p = state.p.values
    return float(0.5 * u_norm_sq + 0.5 * params.tau**2 * (p @ (stiff_p1 @ p)) + state.r**2)


def original_energy(state, *, u_norm_sq: float, stiff_p1) -> float:
    """Physical energy 0.5 ||u||^2 + 0.5 ||grad phi||^2, u_norm_sq being ||u||_M^2."""
    phi = state.phi.values
    return float(0.5 * u_norm_sq + 0.5 * (phi @ (stiff_p1 @ phi)))


def extrema(c) -> tuple[float, float]:
    """(min, max) of the nodal values of a field."""
    return float(c.values.min()), float(c.values.max())
