"""Lagrange finite elements (P1 and P2) on structured triangle meshes.

Reference element and quadrature
--------------------------------
The reference triangle has vertices (0,0), (1,0), (0,1) and barycentric
coordinates (l0, l1, l2) = (1 - x - y, x, y).  Linear basis functions are the
barycentrics themselves; quadratic ones use the local node order
[v0, v1, v2, m12, m20, m01] with vertex functions l*(2l - 1) and midpoint
functions 4*l_i*l_j.

Integrals over elements use one fixed 7-point rule that is exact for
polynomials of total degree 5 (centroid plus two symmetric orbits).  Weights
sum to one, so an element integral is area * sum(w_q * f(x_q)).  The
integrand degrees of the forms are: mass 4, stiffness 2, divergence
coupling 2, (u . grad u, v) 5 and ((c1 - c2) grad phi, v) 3, so assembly
commits no quadrature error.  Loads of analytic sources are not exact.

Reference tables
----------------
A triangle is the image x = v0 + J xi of the reference one.  A FunctionSpace
holds the basis values (q, nloc) and reference gradients (q, nloc, 2) at the
quadrature points, and per triangle the barycentric gradients (t, 3, 2): the
P1 basis gradients, whose rows 1 and 2 are J^{-1}, mapping a reference
gradient row g to g J^{-1}; the spaces of one mesh share these per-triangle
arrays, computed once.  Each kernel is a GEMM against a reference table
followed by that 2x2 map; the stiffness and divergence coupling are area
J^{-1} J^{-T} and area J^{-1}, as (t, 4), times a reference tensor.

The per-step transport blocks are assembled in closed form, since
P1 gradients are constant on each triangle: the convection block from the
reference P1 x P2 mass R[j, k] = int theta_j psi_k (the rule evaluates it
once), the drift block as the rank-one area/3 (grad theta_i . grad phi).
Both equal the quadrature to round-off.

Sparsity pattern
----------------
SparsityPattern maps every element entry to its slot of csr.data, so
assembly is one bincount with no COO-to-CSR conversion.  The square
matrices on a space (mass, stiffness, convection, drift) share the
space's pattern, built once, and with it indptr and indices: matrices on
one pattern add by adding their data.  The dofs are the points of a
row-major lattice (mesh.dof_lattice), so the pattern is built in closed
form from a stencil of lattice offsets, with no sort of element entries.

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
values, so scalars and vectors share one code path, and the solvers take
the (2, n) array as it is.  Only the divergence coupling has one column per
entry of values.ravel(): all x components first, then all y components.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import hstack

from .mesh import StructuredTriMesh, boundary_dofs, dof_lattice, p2_node_coords, p2_numbering
from .sparse import CsrMatrix

__all__ = [
    "QuadratureRule",
    "SparsityPattern",
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
    "element_gradient",
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


@dataclass(frozen=True)
class SparsityPattern:
    """CSR structure of the square matrices that couple the dofs of a space.

    entries[t, i, j] is the index into csr.data of the entry that couples
    local dofs i and j of triangle t.  Columns are sorted within each row.
    """

    indptr: np.ndarray
    indices: np.ndarray
    entries: np.ndarray  # (t, nloc, nloc)
    shape: tuple[int, int]

    @classmethod
    def build(cls, element_dofs: np.ndarray, shape: tuple[int, int]) -> "SparsityPattern":
        """The pattern of a space whose dofs are the points of a row-major lattice of shape (rows, columns).

        Triangles 2c and 2c + 1 are the lower and upper triangle of cell c, cell 0 at the origin,
        so entry (i, j) of a triangle couples its row to a constant offset of a fixed stencil.
        Every row gets the whole stencil, sorted row-major, and a cumsum over the slots that a
        triangle touches drops the rest.
        """
        t, nloc = element_dofs.shape
        y, x = np.divmod(element_dofs[:2], shape[1])  # (2, nloc): the local offsets of each kind
        offsets = np.stack([y[:, None, :] - y[:, :, None], x[:, None, :] - x[:, :, None]], -1)
        stencil, position = np.unique(offsets.reshape(-1, 2), axis=0, return_inverse=True)
        n, width = shape[0] * shape[1], stencil.shape[0]
        full = element_dofs.reshape(-1, 2, nloc, 1) * width + position.reshape(2, nloc, nloc)
        used = np.zeros(n * width, dtype=bool)
        used[full] = True
        count = np.concatenate([[0], np.cumsum(used)])  # the slot of each used position
        columns = (np.arange(n)[:, None] + stencil @ [shape[1], 1]).ravel()[used]
        # scipy picks the index dtype; the stored arrays are shared by every matrix.
        template = CsrMatrix((np.zeros(count[-1]), columns, count[::width]), shape=(n, n))
        return cls(
            indptr=template.indptr,
            indices=template.indices,
            entries=count[full].reshape(t, nloc, nloc).astype(template.indices.dtype),
            shape=(n, n),
        )

    def matrix(self, data: np.ndarray) -> CsrMatrix:
        """The matrix with the given csr.data on this pattern."""
        return CsrMatrix((data, self.indices, self.indptr), shape=self.shape)

    def assemble(self, element_matrices: np.ndarray) -> CsrMatrix:
        """Sum of the element matrices, one bincount into csr.data."""
        data = np.bincount(
            self.entries.ravel(),
            weights=np.broadcast_to(element_matrices, self.entries.shape).ravel(),
            minlength=self.indices.shape[0],
        )
        return self.matrix(data)


_geometry = weakref.WeakKeyDictionary()  # of each live mesh, shared by its spaces


def _triangle_geometry(mesh: StructuredTriMesh, rule: QuadratureRule):
    """(area (t,), barycentric gradients (t, 3, 2), quadrature points (2, t, q)), read-only, once per mesh."""
    if mesh not in _geometry:
        # Affine geometry.  CCW orientation is part of the mesh contract.
        verts = mesh.vertices[mesh.triangles]          # (t, 3, 2)
        e1 = verts[:, 1] - verts[:, 0]
        e2 = verts[:, 2] - verts[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0):
            raise ValueError("mesh contains non-counterclockwise triangles")
        # Barycentric gradients: rows 1 and 2 are J^{-1}, row 0 their negative sum.
        jinv = np.stack([e2[:, 1], -e2[:, 0], -e1[:, 1], e1[:, 0]], axis=1).reshape(-1, 2, 2)
        jinv /= det[:, None, None]
        geometry = (
            0.5 * det,
            np.concatenate([-jinv.sum(axis=1, keepdims=True), jinv], axis=1),
            # x and y of the physical quadrature points, each (t, q).
            np.ascontiguousarray(np.moveaxis(rule.points @ verts, -1, 0)),
        )
        for array in geometry:
            array.flags.writeable = False
        _geometry[mesh] = geometry
    return _geometry[mesh]


class FunctionSpace:
    """Nodal Lagrange space: reference tables and the per-triangle affine map.

    Kinds: "p1" (vertex dofs) and "p2" (vertex + edge midpoint dofs), on their lattices.
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
        self.lattice_shape = dof_lattice(mesh, kind)
        self.n_dofs = self.node_coords.shape[0]

        self.area, self.bary_gradients, self.quad_xy = _triangle_geometry(mesh, self.rule)
        vals, rgrads = zip(*(shape_eval(kind, p) for p in self.rule.points))
        self.basis_values = np.array(vals)      # (q, nloc)
        self.ref_gradients = np.array(rgrads)   # (q, nloc, 2)

    @classmethod
    def p1(cls, mesh: StructuredTriMesh) -> "FunctionSpace":
        return cls(mesh, "p1")

    @classmethod
    def p2(cls, mesh: StructuredTriMesh) -> "FunctionSpace":
        return cls(mesh, "p2")

    @cached_property
    def pattern(self) -> SparsityPattern:
        """The pattern of the square matrices on this space."""
        return SparsityPattern.build(self.element_dofs, self.lattice_shape)

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
    return np.moveaxis(field.values[..., sp.element_dofs] @ sp.basis_values.T, (-2, -1), (0, 1))


def gradient_at_quadrature(field: FieldVector) -> np.ndarray:
    """Gradients at quadrature points: (t, q, 2) scalar, (t, q, 2, 2) vector.

    Vector output is ordered [component, partial].
    """
    sp = field.space
    nq, nloc, _ = sp.ref_gradients.shape
    ref = field.values[..., sp.element_dofs] @ sp.ref_gradients.transpose(1, 0, 2).reshape(nloc, 2 * nq)
    grads = ref.reshape(ref.shape[:-1] + (nq, 2)) @ sp.bary_gradients[:, 1:]   # g J^{-1}
    return np.moveaxis(grads, (-3, -2), (0, 1))


def load_from_quadrature(space: FunctionSpace, values: np.ndarray) -> np.ndarray:
    """Load with entries sum_T area_T sum_q w_q g(x_q) basis_i(x_q).

    ``values`` has shape (t, q) for a scalar g, (t, q, 2) for a vector one;
    the load has shape (n,) or (2, n).
    """
    weighted_basis = space.rule.weights[:, None] * space.basis_values
    fe = (np.moveaxis(values, (0, 1), (-2, -1)) @ weighted_basis) * space.area[:, None]
    dofs = space.element_dofs.ravel()
    rows = [np.bincount(dofs, weights=w, minlength=space.n_dofs) for w in fe.reshape(-1, dofs.size)]
    return np.stack(rows).reshape(fe.shape[:-2] + (space.n_dofs,))


def quadrature_integral(space: FunctionSpace, values: np.ndarray) -> float:
    """Integral over the domain of a quantity sampled at quadrature points."""
    return float(space.area @ (values @ space.rule.weights))


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

def assemble_mass(space: FunctionSpace) -> CsrMatrix:
    """Mass matrix (basis_j, basis_i)."""
    ref = np.einsum("q,qi,qj->ij", space.rule.weights, space.basis_values, space.basis_values)
    return space.pattern.assemble(space.area[:, None, None] * ref[None, :, :])


def assemble_stiffness(space: FunctionSpace) -> CsrMatrix:
    """Stiffness matrix (grad basis_j, grad basis_i)."""
    # K_e[i, j] = sum_kl (area J^{-1} J^{-T})[k, l] S[k, l, i, j], S the reference tensor.
    ref = space.ref_gradients
    nloc = ref.shape[1]
    tensor = np.einsum("q,qik,qjl->klij", space.rule.weights, ref, ref).reshape(4, nloc * nloc)
    jinv = space.bary_gradients[:, 1:]
    geometry = (jinv @ jinv.transpose(0, 2, 1)) * space.area[:, None, None]
    return space.pattern.assemble((geometry.reshape(-1, 4) @ tensor).reshape(-1, nloc, nloc))


def _require_p1(space: FunctionSpace, what: str):
    if space.kind != "p1":
        raise ValueError(f"{what} needs a P1 space, got {space.kind!r}")


def element_gradient(field: FieldVector) -> np.ndarray:
    """Gradient of a scalar P1 field on each triangle, where it is constant: shape (t, 2)."""
    sp = field.space
    _require_p1(sp, "element_gradient")
    return np.einsum("ti,tid->td", field.values[sp.element_dofs], sp.bary_gradients)


def assemble_convection(u_field: FieldVector, space: FunctionSpace) -> CsrMatrix:
    """Weak convection on the P1 space: K[i,j] = -int c_j (u . grad theta_i).

    Integration by parts of (u . grad c, theta) with div u = 0 and u.n = 0 on
    the boundary moves the derivative onto the test function; in this form
    ones annihilate K exactly (columns sum to zero) for any discrete u, which
    is what makes the ion masses exactly conserved.

    grad theta_i is constant on a triangle, so with R[j, k] = int theta_j
    psi_k on the reference triangle (psi the velocity basis, unit area),
    K_e[i, j] = -area sum_d d_d theta_i (R u_d)_j.
    """
    _require_p1(space, "assemble_convection")
    if u_field.space.mesh is not space.mesh:
        raise ValueError("velocity and scalar space live on different meshes")
    vel = u_field.space
    ref = np.einsum("q,qj,qk->jk", space.rule.weights, space.basis_values, vel.basis_values)
    weighted = u_field.values[:, vel.element_dofs] @ ref.T  # (2, t, 3): (R u_d)_j
    weighted *= -space.area[:, None]
    return space.pattern.assemble(space.bary_gradients @ weighted.transpose(1, 0, 2))


def assemble_drift(phi_field: FieldVector) -> CsrMatrix:
    """Electromigration matrix on phi's P1 space: D[i,j] = int c_j (grad phi . grad theta_i).

    The cation equation adds it and the anion equation subtracts it.  Columns
    sum to zero because sum_i theta_i = 1.  Both gradients are constant on a
    triangle and int theta_j = area/3, so D_e[i, j] = (grad theta_i . grad
    phi) area/3 for every j: rank one.
    """
    space = phi_field.space
    _require_p1(space, "assemble_drift")
    row = np.einsum("tid,td->ti", space.bary_gradients, element_gradient(phi_field))
    row *= space.area[:, None] / 3.0
    return space.pattern.assemble(row[:, :, None])


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
    # Element entries sum_k (area J^{-1})[k, d] T[k, i, j], T[k, i, j] = int q_i d_k psi_j on the
    # reference triangle, laid out (t, d, i, j).
    tensor = np.einsum("q,qi,qjk->kij", pres_space.rule.weights, pres_space.basis_values,
                       vel_space.ref_gradients)
    geometry = vel_space.bary_gradients[:, 1:] * vel_space.area[:, None, None]
    elem = (geometry.transpose(0, 2, 1).reshape(-1, 2) @ tensor.reshape(2, -1)).reshape(
        (-1, 2) + tensor.shape[1:])
    # Each component's block is the P2 pattern's rows of the vertices, the even-even lattice points,
    # summed over the first three local P2 dofs, the vertices.
    pattern = vel_space.pattern
    rows = np.arange(vel_space.n_dofs).reshape(vel_space.lattice_shape)[::2, ::2].ravel()
    blocks = [
        pattern.matrix(np.bincount(pattern.entries[:, :3].ravel(), weights=elem[:, d].ravel(),
                                   minlength=pattern.indices.shape[0]))[rows]
        for d in range(2)
    ]
    return hstack(blocks, format="csr")


def assemble_load(space: FunctionSpace, f, t: float) -> FieldVector:
    """Right-hand-side vector (f(t), basis_i) by quadrature, one row per component of f."""
    g = np.asarray(f(*space.quad_xy, t), dtype=float)
    return FieldVector(space, load_from_quadrature(space, np.moveaxis(g, (-2, -1), (0, 1))))


def error_norms(field: FieldVector, exact, exact_grad, t: float) -> tuple[float, float, float]:
    """(L2 error, H1 seminorm error, full H1 error) against an analytic field.

    Vector fields sum the squared errors over their components.
    """
    sp = field.space
    squares = []
    for at_quadrature, f in ((field_at_quadrature, exact), (gradient_at_quadrature, exact_grad)):
        # In place: one quadrature-layout array (t, q, ...) per norm.
        diff = at_quadrature(field)
        diff -= np.moveaxis(np.asarray(f(*sp.quad_xy, t), dtype=float), (-2, -1), (0, 1))
        diff *= diff
        squares.append(quadrature_integral(sp, diff.sum(axis=tuple(range(2, diff.ndim)))))
    l2sq, h1sq = squares
    return np.sqrt(l2sq), np.sqrt(h1sq), np.sqrt(l2sq + h1sq)


# ---------------------------------------------------------------------------
# Dirichlet elimination
# ---------------------------------------------------------------------------

class DirichletSystem:
    """Symmetric elimination of Dirichlet rows/columns, reusable across solves.

    The eliminated matrix has identity rows and columns at the constrained
    dofs.  It is kept with lift, the constrained columns sliced from the
    matrix given, which is not kept.  reduce_rhs subtracts lift times the
    boundary values from the load and pins the constrained entries, so the
    reduced system gives the constrained solution directly.  The matrix must
    store its diagonal, as every assembled matrix does.  reduce_rhs also
    takes a stack, such as a (2, n) vector field, with boundary values
    shaped (2, nb), and returns the shape it was given.
    """

    def __init__(self, matrix: CsrMatrix, dofs):
        n = matrix.shape[0]
        self.dofs = np.asarray(dofs, dtype=np.int64)
        fixed = np.zeros(n, dtype=bool)
        fixed[self.dofs] = True
        self.matrix = matrix.tocsr(copy=True)
        self.lift = self.matrix[:, self.dofs]  # no CSC copy: each row keeps its order of columns
        # Entries in a fixed row or column become 0, a fixed diagonal 1.
        rows = np.repeat(np.arange(n), np.diff(self.matrix.indptr))
        hit = fixed[rows] | fixed[self.matrix.indices]
        self.matrix.data[hit] = rows[hit] == self.matrix.indices[hit]
        self.matrix.eliminate_zeros()
        self.matrix.sort_indices()

    def reduce_rhs(self, rhs: np.ndarray, values=0.0) -> np.ndarray:
        out = np.array(rhs, dtype=float, copy=True)
        vals = np.broadcast_to(np.asarray(values, dtype=float), out.shape[:-1] + self.dofs.shape)
        if np.any(vals):
            out -= (self.lift @ vals.T).T
        out[..., self.dofs] = vals
        return out
