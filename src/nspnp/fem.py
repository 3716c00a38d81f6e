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

Vector dof layout: all x components first, then all y components, so the
second component of scalar node d is dof n_nodes + d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, diags

from .mesh import StructuredTriMesh, boundary_dofs, p2_node_coords, p2_numbering
from .sparse import CsrMatrix, RepeatedBlock

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
    "assemble_vector_operators",
    "assemble_div_coupling",
    "assemble_load",
    "p1_to_p2_prolongation",
    "error_norms",
    "apply_dirichlet",
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

    Kinds: "p1" (vertex dofs), "p2" (vertex + edge midpoint dofs),
    "p2-vector" (two P2 components, x block then y block).
    """

    def __init__(self, mesh: StructuredTriMesh, kind: str):
        kind = kind.lower()
        if kind not in ("p1", "p2", "p2-vector"):
            raise ValueError(f"unknown space kind: {kind!r}")
        self.mesh = mesh
        self.kind = kind
        self.components = 2 if kind == "p2-vector" else 1
        self.rule = tri_quadrature_degree5()

        if kind == "p1":
            self.scalar_element_dofs = mesh.triangles
            self.node_coords = mesh.vertices
        else:
            self.scalar_element_dofs = p2_numbering(mesh)
            self.node_coords = p2_node_coords(mesh)
        self.n_nodes = self.node_coords.shape[0]
        self.n_dofs = self.components * self.n_nodes
        if self.components == 2:
            self.element_dofs = np.hstack(
                [self.scalar_element_dofs, self.scalar_element_dofs + self.n_nodes]
            )
        else:
            self.element_dofs = self.scalar_element_dofs

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

        scalar_kind = "p1" if kind == "p1" else "p2"
        vals, rgrads = zip(*(shape_eval(scalar_kind, p) for p in self.rule.points))
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

    @classmethod
    def p2_vector(cls, mesh: StructuredTriMesh) -> "FunctionSpace":
        return cls(mesh, "p2-vector")

    def boundary_dofs(self) -> np.ndarray:
        kind = {"p1": "p1", "p2": "p2", "p2-vector": "p2-vector"}[self.kind]
        return boundary_dofs(self.mesh, kind)

    def domain_area(self) -> float:
        return float(self.area.sum())


@dataclass
class FieldVector:
    """Coefficient vector of a finite element function."""

    space: FunctionSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.n_dofs,):
            raise ValueError(
                f"expected {self.space.n_dofs} dofs, got shape {self.values.shape}"
            )

    @classmethod
    def zeros(cls, space: FunctionSpace) -> "FieldVector":
        return cls(space, np.zeros(space.n_dofs))

    def copy(self) -> "FieldVector":
        return FieldVector(self.space, self.values.copy())


def interpolate(space: FunctionSpace, f, t: float) -> FieldVector:
    """Nodal interpolant of the analytic field f at time t."""
    x = space.node_coords[:, 0]
    y = space.node_coords[:, 1]
    g = np.asarray(f(x, y, t), dtype=float)
    if space.components == 1:
        if g.shape != x.shape:
            raise ValueError(f"scalar evaluator returned shape {g.shape}")
        return FieldVector(space, g)
    if g.shape != (2,) + x.shape:
        raise ValueError(f"vector evaluator returned shape {g.shape}")
    return FieldVector(space, np.concatenate([g[0], g[1]]))


# ---------------------------------------------------------------------------
# quadrature-point evaluation of finite element fields
# ---------------------------------------------------------------------------

def field_at_quadrature(field: FieldVector) -> np.ndarray:
    """Values at quadrature points: (t, q) for scalars, (t, q, 2) for vectors."""
    sp = field.space
    if sp.components == 1:
        elem = field.values[sp.scalar_element_dofs]            # (t, nloc)
        return np.einsum("qi,ti->tq", sp.basis_values, elem)
    comps = field.values.reshape(2, sp.n_nodes)
    elem = comps[:, sp.scalar_element_dofs]                    # (2, t, nloc)
    return np.einsum("qi,cti->tqc", sp.basis_values, elem)


def gradient_at_quadrature(field: FieldVector) -> np.ndarray:
    """Gradients at quadrature points: (t, q, 2) scalar, (t, q, 2, 2) vector.

    Vector output is ordered [component, partial].
    """
    sp = field.space
    if sp.components == 1:
        elem = field.values[sp.scalar_element_dofs]
        return np.einsum("tqid,ti->tqd", sp.basis_gradients, elem)
    comps = field.values.reshape(2, sp.n_nodes)
    elem = comps[:, sp.scalar_element_dofs]
    return np.einsum("tqid,cti->tqcd", sp.basis_gradients, elem)


def load_from_quadrature(space: FunctionSpace, values: np.ndarray) -> np.ndarray:
    """Dof vector with entries sum_T area_T sum_q w_q g(x_q) basis_i(x_q).

    ``values`` has shape (t, q) for scalar spaces, (t, q, 2) for vector ones.
    """
    if space.components == 1:
        fe = np.einsum("tq,qi->ti", space.w_area * values, space.basis_values)
        return np.bincount(
            space.scalar_element_dofs.ravel(), weights=fe.ravel(), minlength=space.n_dofs
        )
    fe = np.einsum("tq,tqc,qi->tic", space.w_area, values, space.basis_values)
    dofs = space.scalar_element_dofs[:, :, None] + space.n_nodes * np.array([0, 1])
    return np.bincount(dofs.ravel(), weights=fe.ravel(), minlength=space.n_dofs)


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


def _scalar_mass(space: FunctionSpace) -> CsrMatrix:
    ref = np.einsum("q,qi,qj->ij", space.rule.weights, space.basis_values, space.basis_values)
    elem = space.area[:, None, None] * ref[None, :, :]
    n = space.n_nodes
    return _scatter(elem, space.scalar_element_dofs, space.scalar_element_dofs, (n, n))


def _scalar_stiffness(space: FunctionSpace) -> CsrMatrix:
    elem = np.einsum(
        "q,tqia,tqja->tij", space.rule.weights, space.basis_gradients, space.basis_gradients
    )
    elem *= space.area[:, None, None]
    n = space.n_nodes
    return _scatter(elem, space.scalar_element_dofs, space.scalar_element_dofs, (n, n))


def assemble_mass(space: FunctionSpace) -> CsrMatrix | RepeatedBlock:
    """Mass matrix; for vector spaces two copies of the scalar block."""
    m = _scalar_mass(space)
    if space.components == 1:
        return m
    return RepeatedBlock(m)


def assemble_stiffness(space: FunctionSpace) -> CsrMatrix | RepeatedBlock:
    """Stiffness matrix (grad, grad); for vector spaces two copies of the scalar block."""
    a = _scalar_stiffness(space)
    if space.components == 1:
        return a
    return RepeatedBlock(a)


def assemble_vector_operators(space: FunctionSpace) -> tuple[RepeatedBlock, RepeatedBlock]:
    """(mass, stiffness) for the velocity space in one call."""
    if space.components != 2:
        raise ValueError("assemble_vector_operators needs a p2-vector space")
    return assemble_mass(space), assemble_stiffness(space)


def assemble_convection(u_field: FieldVector, space: FunctionSpace) -> CsrMatrix:
    """Weak convection on the scalar space: K[i,j] = -int c_j (u . grad theta_i).

    Integration by parts of (u . grad c, theta) with div u = 0 and u.n = 0 on
    the boundary moves the derivative onto the test function; in this form
    ones annihilate K exactly (columns sum to zero) for any discrete u, which
    is what makes the ion masses exactly conserved.
    """
    if space.components != 1:
        raise ValueError("convection acts on a scalar space")
    if u_field.space.mesh is not space.mesh:
        raise ValueError("velocity and scalar space live on different meshes")
    u_q = field_at_quadrature(u_field)  # (t, q, 2)
    elem = -np.einsum(
        "tq,tqd,tqid,qj->tij", space.w_area, u_q, space.basis_gradients, space.basis_values
    )
    n = space.n_nodes
    return _scatter(elem, space.scalar_element_dofs, space.scalar_element_dofs, (n, n))


def assemble_drift(phi_field: FieldVector, sign: float, space: FunctionSpace | None = None) -> CsrMatrix:
    """Electromigration matrix: D[i,j] = sign * int c_j (grad phi . grad theta_i).

    sign is +1 for the cation equation and -1 for the anion equation.  Columns
    sum to zero because sum_i theta_i = 1.
    """
    if sign not in (1, -1, 1.0, -1.0):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if space is None:
        space = phi_field.space
    if space.components != 1:
        raise ValueError("drift acts on a scalar space")
    gphi = gradient_at_quadrature(phi_field)  # (t, q, 2)
    elem = float(sign) * np.einsum(
        "tq,tqd,tqid,qj->tij", space.w_area, gphi, space.basis_gradients, space.basis_values
    )
    n = space.n_nodes
    return _scatter(elem, space.scalar_element_dofs, space.scalar_element_dofs, (n, n))


def assemble_div_coupling(vel_space: FunctionSpace, pres_space: FunctionSpace) -> CsrMatrix:
    """B[i, j] = int q_i (div v_j): pressure test functions against velocity divergence.

    Used transposed to apply pressure gradients to the momentum equation and
    directly to measure the divergence of the tentative velocity.
    """
    if vel_space.components != 2 or pres_space.components != 1:
        raise ValueError("div coupling needs (p2-vector, p1) spaces")
    if vel_space.mesh is not pres_space.mesh:
        raise ValueError("spaces live on different meshes")
    # Element entries area w q_i(x_q) d_d psi_j(x_q), laid out (t, i, d, j) so
    # that a C reshape packs columns as d*nloc + j: x block first, then y,
    # matching the vector dof layout.
    elem = np.einsum(
        "tq,qi,tqjd->tidj", pres_space.w_area, pres_space.basis_values, vel_space.basis_gradients
    )
    t = vel_space.mesh.n_triangles
    nloc = vel_space.scalar_element_dofs.shape[1]
    elem = elem.reshape(t, pres_space.basis_values.shape[1], 2 * nloc)
    return _scatter(
        elem,
        pres_space.scalar_element_dofs,
        vel_space.element_dofs,
        (pres_space.n_dofs, vel_space.n_dofs),
    )


def assemble_load(space: FunctionSpace, f, t: float) -> FieldVector:
    """Right-hand-side vector (f(t), basis_i) by quadrature."""
    x = space.quad_xy[..., 0]
    y = space.quad_xy[..., 1]
    g = np.asarray(f(x, y, t), dtype=float)
    if space.components == 1:
        if g.shape != x.shape:
            raise ValueError(f"scalar evaluator returned shape {g.shape}")
        return FieldVector(space, load_from_quadrature(space, g))
    if g.shape != (2,) + x.shape:
        raise ValueError(f"vector evaluator returned shape {g.shape}")
    return FieldVector(space, load_from_quadrature(space, np.moveaxis(g, 0, -1)))


def error_norms(field: FieldVector, exact, exact_grad, t: float) -> tuple[float, float, float]:
    """(L2 error, H1 seminorm error, full H1 error) against an analytic field."""
    sp = field.space
    x = sp.quad_xy[..., 0]
    y = sp.quad_xy[..., 1]
    fh = field_at_quadrature(field)
    gh = gradient_at_quadrature(field)
    fe = np.asarray(exact(x, y, t), dtype=float)
    ge = np.asarray(exact_grad(x, y, t), dtype=float)
    if sp.components == 1:
        diff2 = (fh - fe) ** 2
        gdiff2 = np.sum((gh - np.moveaxis(ge, 0, -1)) ** 2, axis=-1)
    else:
        diff2 = np.sum((fh - np.moveaxis(fe, 0, -1)) ** 2, axis=-1)
        gdiff2 = np.sum((gh - np.moveaxis(ge, (0, 1), (-2, -1))) ** 2, axis=(-2, -1))
    l2sq = quadrature_integral(sp, diff2)
    h1sq = quadrature_integral(sp, gdiff2)
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
    the constrained solution directly.  reduce_rhs also takes several copies
    one after the other (a vector field stored component by component), with
    their boundary values in the same order.
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
        copies, nb = out.shape[0], self.dofs.shape[0]
        vals = np.broadcast_to(np.asarray(values, dtype=float), (copies * nb,)).reshape(copies, nb)
        if np.any(vals):
            out -= (self._columns @ vals.T).T
        out[:, self.dofs] = vals
        return out.ravel()


def apply_dirichlet(matrix: CsrMatrix, rhs: np.ndarray, dofs, value=0.0):
    """One-shot symmetric Dirichlet elimination; returns (matrix, rhs)."""
    system = DirichletSystem(matrix, dofs)
    return system.matrix, system.reduce_rhs(rhs, value)
