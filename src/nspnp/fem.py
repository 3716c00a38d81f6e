"""Lagrange finite elements (P1 and P2) on structured triangle meshes.

Reference element and quadrature
--------------------------------
The reference triangle has vertices (0,0), (1,0), (0,1) and barycentric
coordinates (l0, l1, l2) = (1 - x - y, x, y).  Linear basis functions are the
barycentrics themselves; quadratic ones use the local node order
[v0, v1, v2, m12, m20, m01] with vertex functions l*(2l - 1) and midpoint
functions 4*l_i*l_j.

All integrals use one fixed 7-point rule that is exact for polynomials of
total degree 5 (centroid plus two symmetric orbits).  Weights sum to one, so
an element integral is area * sum(w_q * f(x_q)).  Every bilinear form in this
package has integrand degree at most 5 (P2 x grad-P2 x grad-P2 is 1+1+1+... at
most 5 via P1 coefficients), hence assembly commits no quadrature error.

Field evaluators
----------------
Analytic fields are callables f(x, y, t) operating elementwise on ndarrays of
any shape.  Vector fields return shape (2,) + x.shape, scalar gradients
(2,) + x.shape ordered (d/dx, d/dy), vector gradients (2, 2) + x.shape ordered
[component, partial].

Vector fields
-------------
A velocity lives on the scalar P2 space and stores its coefficients as a
(2, n) array, one row per component.  Every kernel takes component axes as
leading axes of the coefficients and as trailing axes of quadrature-point
values, so scalars and vectors share one code path.  values.ravel() puts all
x components first, then all y components; the columns of the divergence
coupling and the flat vectors the solvers see use that layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, diags

from .mesh import StructuredTriMesh, boundary_dofs, p2_node_coords, p2_numbering
from .sparse import CsrMatrix

__all__ = [
    "QuadratureRule",
    "FunctionSpace",
    "FieldVector",
    "DirichletSystem",
    "tri_quadrature_degree5",
    "shape_eval",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_convection",
    "assemble_drift",
    "assemble_div_coupling",
    "assemble_load",
    "p1_to_p2_prolongation",
    "error_norms",
    "interpolate",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points and weights; weights sum to 1 (unit reference mass)."""

    points: np.ndarray   # (n_q, 3)
    weights: np.ndarray  # (n_q,)
    degree: int


def tri_quadrature_degree5() -> QuadratureRule:
    """Seven-point rule, exact through total degree 5 on the triangle."""
    s15 = np.sqrt(15.0)
    a1 = (6.0 - s15) / 21.0
    a2 = (6.0 + s15) / 21.0
    w1 = (155.0 - s15) / 1200.0
    w2 = (155.0 + s15) / 1200.0
    pts = [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]
    wts = [9.0 / 40.0]
    for a, w in ((a1, w1), (a2, w2)):
        b = 1.0 - 2.0 * a
        pts += [(b, a, a), (a, b, a), (a, a, b)]
        wts += [w, w, w]
    return QuadratureRule(points=np.array(pts), weights=np.array(wts), degree=5)


def shape_eval(kind: str, bary) -> tuple[np.ndarray, np.ndarray]:
    """Basis values and reference gradients at one barycentric point.

    Gradients are with respect to the reference coordinates (x, y) of the
    unit triangle, i.e. with respect to (l1, l2).
    """
    l0, l1, l2 = (float(b) for b in bary)
    if abs(l0 + l1 + l2 - 1.0) > 1e-12:
        raise ValueError(f"barycentric point does not sum to 1: {bary!r}")
    kind = kind.lower()
    if kind == "p1":
        values = np.array([l0, l1, l2])
        grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        return values, grads
    if kind == "p2":
        values = np.array(
            [
                l0 * (2 * l0 - 1),
                l1 * (2 * l1 - 1),
                l2 * (2 * l2 - 1),
                4 * l1 * l2,
                4 * l2 * l0,
                4 * l0 * l1,
            ]
        )
        grads = np.array(
            [
                [1 - 4 * l0, 1 - 4 * l0],
                [4 * l1 - 1, 0.0],
                [0.0, 4 * l2 - 1],
                [4 * l2, 4 * l1],
                [-4 * l2, 4 * (l0 - l2)],
                [4 * (l0 - l1), -4 * l1],
            ]
        )
        return values, grads
    raise ValueError(f"unknown element kind: {kind!r}")


class FunctionSpace:
    """Nodal Lagrange space with precomputed assembly tables.

    Kinds: "p1" (vertex dofs) and "p2" (vertex + edge midpoint dofs).
    """

    def __init__(self, mesh: StructuredTriMesh, kind: str):
        kind = kind.lower()
        if kind not in ("p1", "p2"):
            raise ValueError(f"unknown space kind: {kind!r}")
        self.mesh = mesh
        self.kind = kind
        self.rule = tri_quadrature_degree5()

        if kind == "p1":
            self.element_dofs = mesh.triangles
            self.node_coords = mesh.vertices
        else:
            self.element_dofs = p2_numbering(mesh)
            self.node_coords = p2_node_coords(mesh)
        self.n_dofs = self.node_coords.shape[0]

        # Affine geometry.  CCW orientation is part of the mesh contract.
        verts = mesh.vertices[mesh.triangles]          # (t, 3, 2)
        e1 = verts[:, 1] - verts[:, 0]
        e2 = verts[:, 2] - verts[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0):
            raise ValueError("mesh contains non-counterclockwise triangles")
        self.area = 0.5 * det
        inv_jac_t = np.empty((mesh.n_triangles, 2, 2))
        inv_jac_t[:, 0, 0] = e2[:, 1] / det
        inv_jac_t[:, 0, 1] = -e1[:, 1] / det
        inv_jac_t[:, 1, 0] = -e2[:, 0] / det
        inv_jac_t[:, 1, 1] = e1[:, 0] / det

        vals, rgrads = zip(*(shape_eval(kind, p) for p in self.rule.points))
        self.basis_values = np.array(vals)            # (q, nloc)
        ref_grads = np.array(rgrads)                  # (q, nloc, 2)
        # Physical gradients per triangle and quad point: J^{-T} grad_ref.
        self.basis_gradients = np.einsum("tab,qnb->tqna", inv_jac_t, ref_grads)
        # Physical quadrature points and premultiplied weights.
        self.quad_xy = np.einsum("qk,tkd->tqd", self.rule.points, verts)
        self.w_area = self.rule.weights[None, :] * self.area[:, None]

    @classmethod
    def p1(cls, mesh: StructuredTriMesh) -> "FunctionSpace":
        return cls(mesh, "p1")

    @classmethod
    def p2(cls, mesh: StructuredTriMesh) -> "FunctionSpace":
        return cls(mesh, "p2")

    def boundary_dofs(self) -> np.ndarray:
        return boundary_dofs(self.mesh, self.kind)

    def domain_area(self) -> float:
        return float(self.area.sum())


@dataclass
class FieldVector:
    """Coefficients of a finite element function: shape (n,), or (2, n) for a vector field."""

    space: FunctionSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.space.n_dofs
        if self.values.shape not in ((n,), (2, n)):
            raise ValueError(f"expected shape ({n},) or (2, {n}), got {self.values.shape}")

    @classmethod
    def zeros(cls, space: FunctionSpace) -> "FieldVector":
        return cls(space, np.zeros(space.n_dofs))

    def copy(self) -> "FieldVector":
        return FieldVector(self.space, self.values.copy())


def interpolate(space: FunctionSpace, f, t: float) -> FieldVector:
    """Nodal interpolant of the analytic field f at time t."""
    x = space.node_coords[:, 0]
    y = space.node_coords[:, 1]
    return FieldVector(space, f(x, y, t))


# ---------------------------------------------------------------------------
# quadrature-point evaluation of finite element fields
# ---------------------------------------------------------------------------

def field_at_quadrature(field: FieldVector) -> np.ndarray:
    """Values at quadrature points: (t, q) for scalars, (t, q, 2) for vectors."""
    sp = field.space
    return np.einsum("qi,...ti->tq...", sp.basis_values, field.values[..., sp.element_dofs])


def gradient_at_quadrature(field: FieldVector) -> np.ndarray:
    """Gradients at quadrature points: (t, q, 2) scalar, (t, q, 2, 2) vector.

    Vector output is ordered [component, partial].
    """
    sp = field.space
    return np.einsum("tqid,...ti->tq...d", sp.basis_gradients, field.values[..., sp.element_dofs])


def load_from_quadrature(space: FunctionSpace, values: np.ndarray) -> np.ndarray:
    """Load with entries sum_T area_T sum_q w_q g(x_q) basis_i(x_q).

    ``values`` has shape (t, q) for a scalar g, (t, q, 2) for a vector one;
    the load has shape (n,) or (2, n).
    """
    weighted = np.moveaxis(values, (0, 1), (-2, -1)) * space.w_area   # (..., t, q)
    fe = np.einsum("...tq,qi->...ti", weighted, space.basis_values)
    dofs = space.element_dofs.ravel()
    rows = [np.bincount(dofs, weights=w, minlength=space.n_dofs) for w in fe.reshape(-1, dofs.size)]
    return np.stack(rows).reshape(fe.shape[:-2] + (space.n_dofs,))


def quadrature_integral(space: FunctionSpace, values: np.ndarray) -> float:
    """Integral over the domain of a quantity sampled at quadrature points."""
    return float(np.einsum("tq,tq->", space.w_area, values))


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

def _scatter(element_matrices, row_dofs, col_dofs, shape) -> CsrMatrix:
    t, ni, nj = element_matrices.shape
    rows = np.broadcast_to(row_dofs[:, :, None], (t, ni, nj))
    cols = np.broadcast_to(col_dofs[:, None, :], (t, ni, nj))
    mat = coo_matrix(
        (element_matrices.ravel(), (rows.ravel(), cols.ravel())), shape=shape
    ).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def assemble_mass(space: FunctionSpace) -> CsrMatrix:
    """Mass matrix (basis_j, basis_i)."""
    ref = np.einsum("q,qi,qj->ij", space.rule.weights, space.basis_values, space.basis_values)
    elem = space.area[:, None, None] * ref[None, :, :]
    n = space.n_dofs
    return _scatter(elem, space.element_dofs, space.element_dofs, (n, n))


def assemble_stiffness(space: FunctionSpace) -> CsrMatrix:
    """Stiffness matrix (grad basis_j, grad basis_i)."""
    elem = np.einsum(
        "q,tqia,tqja->tij", space.rule.weights, space.basis_gradients, space.basis_gradients
    )
    elem *= space.area[:, None, None]
    n = space.n_dofs
    return _scatter(elem, space.element_dofs, space.element_dofs, (n, n))


def assemble_convection(u_field: FieldVector, space: FunctionSpace) -> CsrMatrix:
    """Weak convection on the scalar space: K[i,j] = -int c_j (u . grad theta_i).

    Integration by parts of (u . grad c, theta) with div u = 0 and u.n = 0 on
    the boundary moves the derivative onto the test function; in this form
    ones annihilate K exactly (columns sum to zero) for any discrete u, which
    is what makes the ion masses exactly conserved.
    """
    if u_field.space.mesh is not space.mesh:
        raise ValueError("velocity and scalar space live on different meshes")
    u_q = field_at_quadrature(u_field)  # (t, q, 2)
    elem = -np.einsum(
        "tq,tqd,tqid,qj->tij", space.w_area, u_q, space.basis_gradients, space.basis_values
    )
    n = space.n_dofs
    return _scatter(elem, space.element_dofs, space.element_dofs, (n, n))


def assemble_drift(phi_field: FieldVector) -> CsrMatrix:
    """Electromigration matrix on phi's space: D[i,j] = int c_j (grad phi . grad theta_i).

    The cation equation adds it and the anion equation subtracts it.  Columns
    sum to zero because sum_i theta_i = 1.
    """
    space = phi_field.space
    gphi = gradient_at_quadrature(phi_field)  # (t, q, 2)
    elem = np.einsum(
        "tq,tqd,tqid,qj->tij", space.w_area, gphi, space.basis_gradients, space.basis_values
    )
    n = space.n_dofs
    return _scatter(elem, space.element_dofs, space.element_dofs, (n, n))


def assemble_div_coupling(vel_space: FunctionSpace, pres_space: FunctionSpace) -> CsrMatrix:
    """B[i, j] = int q_i (div v_j): pressure test functions against velocity divergence.

    The velocity columns are those of values.ravel() of a (2, n) velocity: x
    components first, then y.  Used transposed to apply pressure gradients to
    the momentum equation and directly to measure the divergence of the
    tentative velocity.
    """
    if (vel_space.kind, pres_space.kind) != ("p2", "p1"):
        raise ValueError("div coupling needs (p2, p1) spaces")
    if vel_space.mesh is not pres_space.mesh:
        raise ValueError("spaces live on different meshes")
    # Element entries area w q_i(x_q) d_d psi_j(x_q), laid out (t, i, d, j) so
    # that a C reshape packs columns as d*nloc + j: x block first, then y.
    elem = np.einsum(
        "tq,qi,tqjd->tidj", pres_space.w_area, pres_space.basis_values, vel_space.basis_gradients
    )
    t, ni, _, nloc = elem.shape
    n = vel_space.n_dofs
    cols = np.hstack([vel_space.element_dofs, vel_space.element_dofs + n])
    shape = (pres_space.n_dofs, 2 * n)
    return _scatter(elem.reshape(t, ni, 2 * nloc), pres_space.element_dofs, cols, shape)


def assemble_load(space: FunctionSpace, f, t: float) -> FieldVector:
    """Right-hand-side vector (f(t), basis_i) by quadrature, one row per component of f."""
    x = space.quad_xy[..., 0]
    y = space.quad_xy[..., 1]
    g = np.asarray(f(x, y, t), dtype=float)
    return FieldVector(space, load_from_quadrature(space, np.moveaxis(g, (-2, -1), (0, 1))))


def error_norms(field: FieldVector, exact, exact_grad, t: float) -> tuple[float, float, float]:
    """(L2 error, H1 seminorm error, full H1 error) against an analytic field.

    Vector fields sum the squared errors over their components.
    """
    sp = field.space
    x = sp.quad_xy[..., 0]
    y = sp.quad_xy[..., 1]
    squares = []
    for at_quadrature, f in ((field_at_quadrature, exact), (gradient_at_quadrature, exact_grad)):
        # In place: one quadrature-layout array (t, q, ...) per norm.
        diff = at_quadrature(field)
        diff -= np.moveaxis(np.asarray(f(x, y, t), dtype=float), (-2, -1), (0, 1))
        diff *= diff
        squares.append(quadrature_integral(sp, diff.sum(axis=tuple(range(2, diff.ndim)))))
    l2sq, h1sq = squares
    return np.sqrt(l2sq), np.sqrt(h1sq), np.sqrt(l2sq + h1sq)


def p1_to_p2_prolongation(mesh: StructuredTriMesh) -> CsrMatrix:
    """Interpolation of P1 vertex values onto the P2 nodes of the same mesh.

    The row of vertex v is the unit row of v; the row of midpoint
    n_vertices + e holds 1/2 at both endpoints of edges[e].  P @ v is then
    the P2 interpolant of the P1 function with vertex values v, which is
    that function itself.
    """
    nv, ne = mesh.n_vertices, mesh.n_edges
    rows = np.concatenate([np.arange(nv), nv + np.repeat(np.arange(ne), 2)])
    cols = np.concatenate([np.arange(nv), mesh.edges.ravel()])
    vals = np.concatenate([np.ones(nv), np.full(2 * ne, 0.5)])
    return coo_matrix((vals, (rows, cols)), shape=(nv + ne, nv)).tocsr()


# ---------------------------------------------------------------------------
# Dirichlet elimination
# ---------------------------------------------------------------------------

class DirichletSystem:
    """Symmetric elimination of Dirichlet rows/columns, reusable across solves.

    The eliminated matrix has identity rows and columns at the constrained
    dofs; reduce_rhs subtracts the lifted boundary values from the interior
    load and pins the constrained entries, so solving the reduced system gives
    the constrained solution directly.  reduce_rhs also takes several copies,
    such as the rows of a (2, n) vector field, with boundary values shaped
    (copies, nb), and returns them flat, one after the other.
    """

    def __init__(self, matrix: CsrMatrix, dofs):
        n = matrix.shape[0]
        self.n = n
        self.dofs = np.asarray(dofs, dtype=np.int64)
        keep = np.ones(n)
        keep[self.dofs] = 0.0
        proj = diags(keep)
        pinned = diags(1.0 - keep)
        self.matrix = (proj @ matrix @ proj + pinned).tocsr()
        self.matrix.sort_indices()
        # Column slice of the original matrix, for lifting boundary data.
        self._columns = matrix.tocsc()[:, self.dofs].tocsr()

    def reduce_rhs(self, rhs: np.ndarray, values=0.0) -> np.ndarray:
        out = np.array(rhs, dtype=float, copy=True).reshape(-1, self.n)
        vals = np.broadcast_to(np.asarray(values, dtype=float), (out.shape[0], self.dofs.shape[0]))
        if np.any(vals):
            out -= (self._columns @ vals.T).T
        out[:, self.dofs] = vals
        return out.ravel()
