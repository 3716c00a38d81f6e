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
basis gradients (K, 2, 3), whose columns 1 and 2 are J^{-T}, and the
quadrature points (2, K, q, t_k): triangle t is number t // K of kind t % K,
and all values at the points, of fields and analytic data, are (..., K, q, t_k).
A FunctionSpace holds per kind its basis values and physical gradients at the
points, (K, 3, q, nloc), and gathers coefficients as (K, nloc, t_k), a strided
lattice slice per local dof.  Each kernel is that gather and one GEMM per kind.

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

The grid is uniform, so every lattice row off the frame (y = 1 .. s*ny - 1,
s = 1 for P1 and 2 for P2) is a translate of row 1 + (y - 1) % s: the same
slot counts, columns moved by whole lattice rows.  So every set-up array is
built on the strip, the first min(ny, 3) rows of cells, and grown by one
path: max(ny - 3, 0) translates of the strip's period, lattice rows 1..s, go
in after the period.  The pattern grows its indptr and indices at once, and
the slots of every triangle (entries) on first use, since only the
per-triangle convection and drift blocks read them.  A matrix with one
element matrix per kind (mass, stiffness, the divergence coupling) sums the
strip's triangles into the strip's slots and grows its data the same way,
its translates moved by 0: each slot of a period sums the same element
entries in the same triangle order, so that is bit for bit the sum over
every triangle.

The divergence coupling B has its own slots: its row of a vertex is the
vertex's row of the P2 pattern, the x half and then the y half, whose
columns are moved by n.  Its strip is the vertex rows of the P2 strip, and
it grows by translates of vertex row 1.  No P2-pattern matrix is assembled
for it.

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
leading axes, of the coefficients and of quadrature-point values alike, so
scalars and vectors share one code path, and the solvers take the (2, n)
array as it is.  Only the divergence coupling has one column per
entry of values.ravel(): all x components first, then all y components.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import StructuredTriMesh, boundary_dofs, dof_lattice, p2_node_coords, p2_numbering
from .sparse import CsrMatrix

__all__ = [
    "QuadratureRule",
    "SparsityPattern",
    "FunctionSpace",
    "FieldVector",
    "tri_quadrature_degree5",
    "shape_eval",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_convection",
    "assemble_drift",
    "assemble_div_coupling",
    "assemble_load",
    "error_norms",
    "interpolate",
    "field_at_quadrature",
    "gradient_at_quadrature",
    "load_from_quadrature",
    "quadrature_integral",
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


def _with_translates(a: np.ndarray, split: int, period: int, copies: int, shift: int) -> np.ndarray:
    """a[:split], then a[split - period:split] + k * shift for k = 1, ..., copies, then a[split:] + copies * shift.

    csr.data takes shift 0; indices shift by the points of a period, indptr and entries by its slots.
    """
    out = np.empty((len(a) + copies * period,) + a.shape[1:], dtype=a.dtype)
    out[:split] = a[:split]
    block = out[split: split + copies * period].reshape((copies, period) + a.shape[1:])
    steps = (shift * np.arange(1, copies + 1, dtype=a.dtype)).reshape((-1,) + (1,) * a.ndim)
    np.add(a[split - period: split], steps, out=block)
    np.add(a[split:], copies * shift, out=out[split + copies * period:])
    return out


def _grow(indptr: np.ndarray, first: int, end: int, copies: int, a: np.ndarray | None = None, shift: int = 0):
    """The indptr, or with a the slot array a (indices, data), of a CSR strip grown by its period's translates.

    copies translates of rows first..end-1 go in after them; a's move by shift (data by 0).
    """
    start, stop = int(indptr[first]), int(indptr[end])
    if a is None:
        return _with_translates(indptr, end + 1, end - first, copies, stop - start)
    return _with_translates(a, stop, stop - start, copies, shift)


@dataclass(frozen=True)
class SparsityPattern:
    """CSR structure of the square matrices that couple the dofs of a space.

    The dofs are the points of a row-major lattice of shape (rows, columns), step lattice rows to
    a row of cells; columns are sorted within each row.  indptr and indices are the whole matrix's,
    shared by every matrix on it.  The strip (module docstring) keeps its own, and strip_entries[r,
    c, i, j] is the slot of the strip's csr.data that couples local dofs i and j of triangle c of
    cell row r; copies translates of its period, lattice rows 1..step, make the whole matrix.
    """

    indptr: np.ndarray
    indices: np.ndarray
    strip_indptr: np.ndarray
    strip_indices: np.ndarray
    strip_entries: np.ndarray  # (rows of cells, triangles in a row, nloc, nloc)
    copies: int
    shape: tuple[int, int]
    lattice: tuple[int, int]
    step: int

    @classmethod
    def build(cls, element_dofs: np.ndarray, slices, shape: tuple[int, int]) -> "SparsityPattern":
        """The pattern of a space whose dofs are the points of a row-major lattice of shape (rows, columns).

        element_dofs (K, nloc) are the dofs of the first triangle of each kind and slices[k * nloc + i]
        the lattice slice of local dof i of the kind's triangles, cell by cell (FunctionSpace._slices).
        So entry (i, j) of a kind couples the points of one slice to a constant offset of a fixed
        stencil.  Every point gets the whole stencil, sorted row-major: one strided assignment per
        slice marks the slots its triangles use, and a cumsum over the marks numbers them.  That is
        done on the strip, whose indptr and indices then grow into the whole matrix's.
        """
        kinds, nloc = element_dofs.shape
        step = slices[0][0].step
        strip_rows = min((shape[0] - 1) // step, 3)
        strip = (step * strip_rows + 1, shape[1])
        y, x = np.divmod(element_dofs, shape[1])  # (K, nloc): the local offsets of each kind
        offsets = np.stack([y[:, None, :] - y[:, :, None], x[:, None, :] - x[:, :, None]], -1)
        stencil, position = np.unique(offsets.reshape(-1, 2), axis=0, return_inverse=True)
        position = position.reshape(kinds * nloc, nloc)
        n = shape[0] * shape[1]
        dtype = np.int32 if n * len(stencil) < 2**31 else np.int64  # of the whole lattice, not the strip
        slices = [(slice(rows.start, rows.start + step * strip_rows, step), columns) for rows, columns in slices]
        used = np.zeros(strip + (len(stencil),), dtype=bool)
        for at, slots in zip(slices, position):
            used[at][..., slots] = True
        total = np.cumsum(used, dtype=dtype).reshape(used.shape)
        indptr = np.zeros(strip[0] * strip[1] + 1, dtype=dtype)
        indptr[1:] = total[..., -1].ravel()  # the slots used up to the end of each row
        columns = np.arange(strip[0] * strip[1], dtype=dtype)[:, None] + (stencil @ [shape[1], 1]).astype(dtype)
        # Per slice (rows of cells, nx, nloc) -> (rows of cells, nx * K, nloc, nloc), triangle t = cell * K + kind.
        entries = np.stack([total[at][..., slots] for at, slots in zip(slices, position)]) - 1
        entries = entries.reshape(kinds, nloc, strip_rows, -1, nloc).transpose(2, 3, 0, 1, 4)
        entries = entries.reshape(strip_rows, -1, nloc, nloc)
        indices = columns.ravel()[used.ravel()]
        copies = (shape[0] - 1) // step - strip_rows
        grow = (indptr, shape[1], (step + 1) * shape[1], copies)  # the period, lattice rows 1..step
        full = _grow(*grow)
        # scipy picks the index dtype; the stored arrays are shared by every matrix.
        template = CsrMatrix((np.zeros(full[-1]), _grow(*grow, indices, step * shape[1]), full), shape=(n, n))
        dtype = template.indices.dtype
        return cls(template.indptr, template.indices, indptr.astype(dtype, copy=False),
                   indices.astype(dtype, copy=False), entries.astype(dtype, copy=False), copies, (n, n), shape, step)

    @cached_property
    def entries(self) -> np.ndarray:
        """entries[t, i, j], (t, nloc, nloc): the slot of csr.data that couples local dofs i and j of triangle t.

        Grown from the strip's on first use, by the matrices that differ per triangle: each row of
        cells 1 .. ny - 2 has the entries of row 1, moved by whole periods.
        """
        width = self.lattice[1]
        period = int(self.strip_indptr[(self.step + 1) * width] - self.strip_indptr[width])  # its slots
        grown = _with_translates(self.strip_entries, min(2, len(self.strip_entries)), 1, self.copies, period)
        return grown.reshape((-1,) + grown.shape[2:])

    def matrix(self, data: np.ndarray) -> CsrMatrix:
        """The matrix with the given csr.data on this pattern."""
        return CsrMatrix((data, self.indices, self.indptr), shape=self.shape)

    def assemble(self, element_matrices: np.ndarray) -> CsrMatrix:
        """Sum of the element matrices (K, r, nloc, t_k), or (K, r, nloc, 1) for one per kind.

        They are the rows of the first r <= nloc local dofs; the slots of the other rows stay 0.
        One matrix per kind is summed into the strip's slots and grown like the indices, by copies
        of the period's data: bit for bit the sum over every triangle.
        """
        weights = np.moveaxis(element_matrices, -1, 0)
        per_triangle = len(weights) > 1
        entries, slots = (self.entries, self.indices) if per_triangle else (self.strip_entries, self.strip_indices)
        # One bincount into csr.data, in triangle order: t_k moves to the front, before K.
        by_cell = entries.reshape((-1,) + weights.shape[1:2] + entries.shape[-2:])[:, :, : weights.shape[2]]
        data = np.bincount(by_cell.ravel(), weights=np.broadcast_to(weights, by_cell.shape).ravel(),
                           minlength=len(slots))
        if not per_triangle:
            data = _grow(self.strip_indptr, self.lattice[1], (self.step + 1) * self.lattice[1], self.copies, data)
        return self.matrix(data)


_geometry = weakref.WeakKeyDictionary()  # of each live mesh, shared by its spaces


def _triangle_geometry(mesh: StructuredTriMesh, rule: QuadratureRule):
    """(area (K,), P1 basis gradients (K, 2, 3), quadrature points (2, K, q, t_k)), read-only, once per mesh.

    Triangle t, number t // K of kind t % K, K = min(2, t), must be a translate of triangle t % K.
    """
    if mesh not in _geometry:
        # Affine geometry.  CCW orientation is part of the mesh contract.
        verts = mesh.vertices[mesh.triangles.reshape(-1, min(2, mesh.n_triangles), 3)]  # (t_k, K, 3, 2)
        edges = verts[:, :, 1:] - verts[:, :, :1]  # v1 - v0, v2 - v0
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
            # x and y of the physical quadrature points, each (K, q, t_k): one GEMM per kind and coordinate.
            rule.points @ np.ascontiguousarray(verts.transpose(3, 1, 2, 0)),
        )
        for array in geometry:
            array.flags.writeable = False
        _geometry[mesh] = geometry
    return _geometry[mesh]


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
        by_cell = self.element_dofs.reshape(-1, len(self.kind_area), self.tables.shape[-1])  # (t_k, K, nloc)
        if not np.array_equal(self.gather(np.arange(self.n_dofs)).transpose(2, 0, 1), by_cell):
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
        return SparsityPattern.build(self.element_dofs[: len(self.kind_area)], self._slices, self.lattice_shape)

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
    """Values at the quadrature points: (K, q, t_k) for scalars, (2, K, q, t_k) for vectors."""
    return field.space.at_quadrature(field.values, 0)


def gradient_at_quadrature(field: FieldVector) -> np.ndarray:
    """Gradients at the quadrature points: (2, K, q, t_k) scalar, (2, 2, K, q, t_k) vector.

    Vector output is ordered [component, partial].
    """
    return np.swapaxes(field.space.at_quadrature(field.values, slice(1, 3)), -4, -3)


def load_from_quadrature(space: FunctionSpace, values: np.ndarray) -> np.ndarray:
    """The load (..., n), sum_T area_T sum_q w_q g(x_q) basis_i(x_q), of values (..., K, q, t_k)."""
    element_loads = (space.kind_area[:, None, None] * space.rule.weights * space.basis_values.T) @ values
    lattice = np.zeros(values.shape[:-3] + space.lattice_shape)
    parts = element_loads.reshape(element_loads.shape[:-3] + (-1, space.mesh.ny, space.mesh.nx))
    for at, part in zip(space._slices, np.moveaxis(parts, -3, 0)):
        lattice[(...,) + at] += part
    return lattice.reshape(values.shape[:-3] + (space.n_dofs,))


def quadrature_integral(space: FunctionSpace, values: np.ndarray) -> float:
    """Integral over the domain of a quantity sampled at the quadrature points, (K, q, t_k)."""
    return float((space.rule.weights @ values.T).sum(axis=0) @ space.kind_area)  # each kind's triangles in order


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

def assemble_mass(space: FunctionSpace) -> CsrMatrix:
    """Mass matrix (basis_j, basis_i): one element matrix per kind."""
    ref = np.einsum("q,qi,qj->ij", space.rule.weights, space.basis_values, space.basis_values)
    return space.pattern.assemble(space.kind_area[:, None, None, None] * ref[..., None])


def assemble_stiffness(space: FunctionSpace) -> CsrMatrix:
    """Stiffness matrix (grad basis_j, grad basis_i): one element matrix per kind."""
    grads = space.tables[:, 1:]
    elem = np.einsum("k,q,kdqi,kdqj->kij", space.kind_area, space.rule.weights, grads, grads)
    return space.pattern.assemble(elem[..., None])


def _require_p1(space: FunctionSpace, what: str):
    if space.kind != "p1":
        raise ValueError(f"{what} needs a P1 space, got {space.kind!r}")


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
    return space.pattern.assemble(elem.reshape(len(tables), 3, 3, -1))


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
    return space.pattern.assemble((tables @ space.gather(phi_field.values))[:, :, None])


def assemble_div_coupling(vel_space: FunctionSpace, pres_space: FunctionSpace) -> CsrMatrix:
    """B[i, j] = int q_i (div v_j): pressure test functions against velocity divergence.

    The velocity columns are those of values.ravel() of a (2, n) velocity: x
    components first, then y.  Used transposed to apply pressure gradients to
    the momentum equation and directly to measure the divergence of the
    tentative velocity.

    Row i, vertex i, holds the columns of the vertex's row of the P2 pattern,
    then the same columns + n, on slots of B's own, built on the vertex rows
    of the P2 pattern's strip (the module docstring says how).
    """
    if (vel_space.kind, pres_space.kind) != ("p2", "p1"):
        raise ValueError("div coupling needs (p2, p1) spaces")
    if vel_space.mesh is not pres_space.mesh:
        raise ValueError("spaces live on different meshes")
    pattern, n, vertices = vel_space.pattern, vel_space.n_dofs, vel_space.mesh.nx + 1
    # The strip's vertex rows: each vertex's P2 row, its x then its y half.
    ptr = pattern.strip_indptr
    points = np.arange(len(ptr) - 1).reshape(-1, pattern.lattice[1])[::2, ::2].ravel()
    counts = np.repeat(ptr[points + 1] - ptr[points], 2)
    ends = np.cumsum(counts, dtype=ptr.dtype)
    source = np.arange(ends[-1]) + np.repeat(np.repeat(ptr[points], 2) - ends + counts, counts)
    indices = pattern.strip_indices[source] + np.tile(np.array([0, n], dtype=ptr.dtype), len(points)).repeat(counts)
    indptr = np.insert(ends[1::2], 0, 0)

    # Per component d, one element matrix per kind, int q_i d_d psi_j, on the rows of the first three
    # local P2 dofs, the vertices.  Entry (i, j) goes to the P2 slot's place in vertex i's row of B.
    elem = np.einsum("k,q,qi,kdqj->kdij", vel_space.kind_area, vel_space.rule.weights,
                     pres_space.basis_values, vel_space.tables[:, 1:])
    entries = pattern.strip_entries.reshape(-1, 6, 6)
    vertex = pres_space.element_dofs[: len(entries)]
    first = indptr[vertex] - ptr[vel_space.element_dofs[: len(entries), :3]]
    half = (indptr[vertex + 1] - indptr[vertex]) // 2
    slots = (entries[:, None, :3] + np.stack([first, first + half], axis=1)[..., None]).reshape((-1,) + elem.shape)
    data = np.bincount(slots.ravel(), weights=np.broadcast_to(elem, slots.shape).ravel(), minlength=indptr[-1])
    # The period, vertex row 1, moves by the 2 * width points of a P2 period.
    grow = (indptr, vertices, 2 * vertices, pattern.copies)
    return CsrMatrix((_grow(*grow, data), _grow(*grow, indices, 2 * pattern.lattice[1]), _grow(*grow)),
                     shape=(pres_space.n_dofs, 2 * n))


def assemble_load(space: FunctionSpace, f, t: float) -> FieldVector:
    """Right-hand-side vector (f(t), basis_i) by quadrature, one row per component of f."""
    return FieldVector(space, load_from_quadrature(space, np.asarray(f(*space.quad_xy, t), dtype=float)))


def error_norms(field: FieldVector, exact, exact_grad, t: float) -> tuple[float, float, float]:
    """(L2 error, H1 seminorm error, full H1 error) against an analytic field.

    Vector fields sum the squared errors over their components.
    """
    sp = field.space
    squares = []
    for at_quadrature, f in ((field_at_quadrature, exact), (gradient_at_quadrature, exact_grad)):
        # In place: one array (..., K, q, t_k) per norm.
        diff = at_quadrature(field)
        want = np.asarray(f(*sp.quad_xy, t), dtype=float)
        if want.shape != diff.shape:  # a scalar evaluator would broadcast over a vector's components
            raise ValueError(f"evaluator returned shape {want.shape}, the field has {diff.shape} at the points")
        diff -= want
        del want  # not held through the next evaluation
        diff *= diff
        squares.append(quadrature_integral(sp, diff.sum(axis=tuple(range(diff.ndim - 3)))))
    l2sq, h1sq = squares
    return np.sqrt(l2sq), np.sqrt(h1sq), np.sqrt(l2sq + h1sq)

