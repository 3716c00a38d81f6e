"""Finite element solver for the Navier-Stokes-Planck-Nernst-Poisson system.

A first-order, fully decoupled projection scheme: linearized implicit ion
transport, a Poisson solve for the potential, a scalar-auxiliary-variable
treatment of the coupled convection and electric forcing, and a pressure
correction step.  The discrete scheme conserves ion masses exactly and
dissipates a modified energy unconditionally; both properties are monitored
at runtime.
"""

from .mesh import StructuredTriMesh, build_rect_mesh, boundary_dofs, p2_numbering
from .fem import (
    FieldVector,
    FunctionSpace,
    QuadratureRule,
    assemble_convection,
    assemble_div_coupling,
    assemble_drift,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    error_norms,
    interpolate,
    shape_eval,
    tri_quadrature_degree5,
)
from .sparse import CsrMatrix, SolveReport, bicgstab, cg

__version__ = "0.1.0"

__all__ = [
    "StructuredTriMesh",
    "build_rect_mesh",
    "boundary_dofs",
    "p2_numbering",
    "FieldVector",
    "FunctionSpace",
    "QuadratureRule",
    "assemble_convection",
    "assemble_div_coupling",
    "assemble_drift",
    "assemble_load",
    "assemble_mass",
    "assemble_stiffness",
    "error_norms",
    "interpolate",
    "shape_eval",
    "tri_quadrature_degree5",
    "CsrMatrix",
    "SolveReport",
    "bicgstab",
    "cg",
    "__version__",
]
