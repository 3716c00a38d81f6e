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
A triangle is the image x = v0 + J xi of the reference one.  Each cell is cut
into the same two triangles, so triangle t has kind t % 2 and the triangles
of a kind are translates: a mesh's spaces share per kind the area and the P1
basis gradients (K, 2, 3), whose columns 1 and 2 are J^{-T}; only the
quadrature points (2, t, q) are per triangle.  A FunctionSpace holds per kind
its basis values and physical gradients at the points, (K, 3, q, nloc), and
gathers coefficients as (K, nloc, t_k), a strided lattice slice per local
dof.  Each kernel is that gather and one GEMM per kind against a table.

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
        """Sum of the element matrices, (t, ...) or one per kind (K, ...), one bincount into csr.data."""
        by_cell = self.entries.reshape((-1, len(element_matrices)) + self.entries.shape[1:])
        data = np.bincount(
            self.entries.ravel(),
            weights=np.broadcast_to(element_matrices, by_cell.shape).ravel(),
            minlength=self.indices.shape[0],
        )
        return self.matrix(data)


_geometry = weakref.WeakKeyDictionary()  # of each live mesh, shared by its spaces


def _triangle_geometry(mesh: StructuredTriMesh, rule: QuadratureRule):
    """(area (K,), P1 basis gradients (K, 2, 3), quadrature points (2, t, q)), read-only, once per mesh.

    Triangle t, of kind t % K, K = min(2, t), must be a translate of triangle t % K.
    """
    if mesh not in _geometry:
        # Affine geometry.  CCW orientation is part of the mesh contract.
        verts = mesh.vertices[mesh.triangles]          # (t, 3, 2)
        edges = (verts[:, 1:] - verts[:, :1]).reshape(-1, min(2, len(verts)), 2, 2)  # v1 - v0, v2 - v0
        if np.abs(edges - edges[0]).max() > 1e-9 * np.abs(edges[0]).max():
            raise ValueError("the triangles of a kind are not translates of one another")
        (e1, e2) = edges[0, :, 0], edges[0, :, 1]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0):
            raise ValueError("mesh contains non-counterclockwise triangles")
        # Barycentric gradients: columns 1 and 2 are J^{-T}, column 0 their negative sum.
        jinv_t = np.stack([e2[:, 1], -e1[:, 1], -e2[:, 0], e1[:, 0]], axis=1).reshape(-1, 2, 2)
        jinv_t /= det[:, None, None]
        geometry = (
            0.5 * det,
            np.concatenate([-jinv_t.sum(axis=2, keepdims=True), jinv_t], axis=2),
            # x and y of the physical quadrature points, each (t, q).
            np.ascontiguousarray(np.moveaxis(rule.points @ verts, -1, 0)),
        )
        for array in geometry:
            array.flags.writeable = False
        _geometry[mesh] = geometry
    return _geometry[mesh]


def _by_triangle(per_kind: np.ndarray) -> np.ndarray:
    """(K, ..., t_k), the layout of the kernels, to (t, ...): triangle t is number t // K of kind t % K."""
    return np.moveaxis(per_kind, -1, 0).reshape((-1,) + per_kind.shape[1:-1])


class FunctionSpace:
    """Nodal Lagrange space: its tables per triangle kind and the gather of a kind's coefficients.

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

        self.kind_area, self.kind_gradients, self.quad_xy = _triangle_geometry(mesh, self.rule)
        vals, rgrads = zip(*(shape_eval(kind, p) for p in self.rule.points))
        self.basis_values = np.array(vals)      # (q, nloc)
        self.ref_gradients = np.array(rgrads)   # (q, nloc, 2)
        # Per kind, the rows value, d/dx and d/dy of each basis function at the points: g J^{-1}.
        physical = np.einsum("qie,kde->kdqi", self.ref_gradients, self.kind_gradients[:, :, 1:])
        self.tables = np.concatenate([np.broadcast_to(self.basis_values, physical[:, :1].shape), physical], 1)
        # A kind's triangles are the cells in order: a local dof runs over a strided lattice slice.
        step = (self.lattice_shape[0] - 1) // mesh.ny
        corners = np.divmod(self.element_dofs[: len(self.kind_area)].ravel(), self.lattice_shape[1])
        self._slices = [(slice(r, r + step * mesh.ny, step), slice(c, c + step * mesh.nx, step))
                        for r, c in zip(*corners)]
        if not np.array_equal(_by_triangle(self.gather(np.arange(self.n_dofs))), self.element_dofs):
            raise ValueError("the dofs of a kind's triangles are not a lattice of cells")

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

    def gather(self, values: np.ndarray) -> np.ndarray:
        """The coefficients (..., K, nloc, t_k) of each kind's triangles, a lattice slice per local dof."""
        lattice = values.reshape(values.shape[:-1] + self.lattice_shape)
        parts = np.stack([lattice[(...,) + at] for at in self._slices], axis=-3)
        return parts.reshape(values.shape[:-1] + self.tables.shape[:1] + (self.tables.shape[-1], -1))

    def at_quadrature(self, values: np.ndarray, rows=slice(None)) -> np.ndarray:
        """(..., K, r, q, t_k): the table rows (0 value, 1 d/dx, 2 d/dy) of the field values at the points."""
        table = self.tables[:, rows]
        out = table.reshape(len(table), -1, table.shape[-1]) @ self.gather(values)
        return out.reshape(out.shape[:-2] + table.shape[1:-1] + (-1,))

    def load(self, values: np.ndarray) -> np.ndarray:
        """The load (..., n), sum_T area_T sum_q w_q g(x_q) basis_i(x_q), of values (..., K, q, t_k)."""
        element_loads = (self.kind_area[:, None, None] * self.rule.weights * self.basis_values.T) @ values
        lattice = np.zeros(values.shape[:-3] + self.lattice_shape)
        parts = element_loads.reshape(element_loads.shape[:-3] + (-1, self.mesh.ny, self.mesh.nx))
        for at, part in zip(self._slices, np.moveaxis(parts, -3, 0)):
            lattice[(...,) + at] += part
        return lattice.reshape(values.shape[:-3] + (self.n_dofs,))


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
    values = field.space.at_quadrature(field.values, 0)  # (..., K, q, t_k)
    return np.moveaxis(_by_triangle(np.moveaxis(values, -3, 0)), -1, 1)


def gradient_at_quadrature(field: FieldVector) -> np.ndarray:
    """Gradients at quadrature points: (t, q, 2) scalar, (t, q, 2, 2) vector.

    Vector output is ordered [component, partial].
    """
    grads = field.space.at_quadrature(field.values, slice(1, 3))  # (..., K, 2, q, t_k)
    return np.moveaxis(_by_triangle(np.moveaxis(grads, -4, 0)), -1, 1)


def load_from_quadrature(space: FunctionSpace, values: np.ndarray) -> np.ndarray:
    """Load with entries sum_T area_T sum_q w_q g(x_q) basis_i(x_q).

    ``values`` has shape (t, q) for a scalar g, (t, q, 2) for a vector one;
    the load has shape (n,) or (2, n).
    """
    by_cell = values.reshape((-1, len(space.kind_area)) + values.shape[1:])  # (t_k, K, q, ...)
    return space.load(np.moveaxis(by_cell, (0, 1, 2), (-1, -3, -2)))


def quadrature_integral(space: FunctionSpace, values: np.ndarray) -> float:
    """Integral over the domain of a quantity sampled at quadrature points."""
    by_cell = values.reshape(-1, len(space.kind_area), values.shape[-1])  # (t_k, K, q)
    return float((by_cell @ space.rule.weights).sum(axis=0) @ space.kind_area)


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

def assemble_mass(space: FunctionSpace) -> CsrMatrix:
    """Mass matrix (basis_j, basis_i): one element matrix per kind."""
    ref = np.einsum("q,qi,qj->ij", space.rule.weights, space.basis_values, space.basis_values)
    return space.pattern.assemble(space.kind_area[:, None, None] * ref)


def assemble_stiffness(space: FunctionSpace) -> CsrMatrix:
    """Stiffness matrix (grad basis_j, grad basis_i): one element matrix per kind."""
    grads = space.tables[:, 1:]
    elem = np.einsum("k,q,kdqi,kdqj->kij", space.kind_area, space.rule.weights, grads, grads)
    return space.pattern.assemble(elem)


def _require_p1(space: FunctionSpace, what: str):
    if space.kind != "p1":
        raise ValueError(f"{what} needs a P1 space, got {space.kind!r}")


def element_gradient(field: FieldVector) -> np.ndarray:
    """Gradient of a scalar P1 field on each triangle, where it is constant: shape (t, 2)."""
    sp = field.space
    _require_p1(sp, "element_gradient")
    return _by_triangle(sp.kind_gradients @ sp.gather(field.values))


def assemble_convection(u_field: FieldVector, space: FunctionSpace) -> CsrMatrix:
    """Weak convection on the P1 space: K[i,j] = -int c_j (u . grad theta_i).

    Integration by parts of (u . grad c, theta) with div u = 0 and u.n = 0 on
    the boundary moves the derivative onto the test function; in this form
    ones annihilate K exactly (columns sum to zero) for any discrete u, which
    is what makes the ion masses exactly conserved.

    grad theta_i is constant on a triangle, so with R[j, m] = int theta_j
    psi_m on the reference triangle (psi the velocity basis, unit area),
    K_e[i, j] = -area sum_d d_d theta_i (R u_d)_j: per kind, the table
    -area d_d theta_i R[j, m] against the gathered velocity.
    """
    _require_p1(space, "assemble_convection")
    if u_field.space.mesh is not space.mesh:
        raise ValueError("velocity and scalar space live on different meshes")
    ref = np.einsum("q,qj,qm->jm", space.rule.weights, space.basis_values, u_field.space.basis_values)
    tables = np.einsum("k,kdi,jm->kijdm", -space.kind_area, space.kind_gradients, ref)
    u_e = np.moveaxis(u_field.space.gather(u_field.values), 0, 1)  # (K, 2, nloc_u, t_k)
    elem = tables.reshape(len(tables), 9, -1) @ u_e.reshape(len(tables), -1, u_e.shape[-1])
    return space.pattern.assemble(_by_triangle(elem).reshape(-1, 3, 3))


def assemble_drift(phi_field: FieldVector) -> CsrMatrix:
    """Electromigration matrix on phi's P1 space: D[i,j] = int c_j (grad phi . grad theta_i).

    The cation equation adds it and the anion equation subtracts it.  Columns
    sum to zero because sum_i theta_i = 1.  Both gradients are constant on a
    triangle and int theta_j = area/3, so D_e[i, j] = (grad theta_i . grad
    phi) area/3 for every j: rank one, and per kind a third of the element
    stiffness times the gathered phi.
    """
    space = phi_field.space
    _require_p1(space, "assemble_drift")
    grads = space.kind_gradients
    tables = (space.kind_area[:, None, None] / 3.0) * (grads.transpose(0, 2, 1) @ grads)
    return space.pattern.assemble(_by_triangle(tables @ space.gather(phi_field.values))[:, :, None])


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
    # Per component d, one element matrix per kind on the P2 pattern, int q_i d_d psi_j in the rows
    # of the first three local P2 dofs, the vertices; B's block is the rows of the vertices, the
    # even-even lattice points.
    elem = np.zeros((2, len(vel_space.kind_area)) + vel_space.tables.shape[-1:] * 2)
    elem[:, :, :3] = np.einsum("k,q,qi,kdqj->dkij", vel_space.kind_area, vel_space.rule.weights,
                               pres_space.basis_values, vel_space.tables[:, 1:])
    rows = np.arange(vel_space.n_dofs).reshape(vel_space.lattice_shape)[::2, ::2].ravel()
    blocks = [vel_space.pattern.assemble(e)[rows] for e in elem]
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
