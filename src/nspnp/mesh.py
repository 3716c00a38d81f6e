"""Uniform triangulations of axis-aligned rectangles.

Conventions (fixed so that results are reproducible bit for bit):

* Vertices are numbered row-major, x fastest: vertex ``j*(nx+1) + i`` sits at
  ``(ax + i*hx, ay + j*hy)``.
* Each grid cell is split along the diagonal from its lower-left to its
  upper-right corner, giving triangles ``(a, b, c)`` and ``(a, c, d)`` where
  ``a`` is the lower-left, ``b`` lower-right, ``c`` upper-right, ``d``
  upper-left corner.  Both triangles are counterclockwise.  Cell ``c``
  (row-major, x fastest) holds triangles ``2c`` and ``2c + 1``, so triangle
  ``t`` has kind ``t % 2``, and each kind is a set of translates of its
  first triangle: the finite element kernels hold their geometry per kind.
* Quadratic (P2) nodes are the points of the ``(2nx+1)`` by ``(2ny+1)``
  lattice of spacing h/2, numbered row-major, x fastest: vertex (i, j) is
  lattice point (2i, 2j), and the midpoint of an edge is the lattice point
  halfway between its ends.  A P1 space is the same lattice at step 1.
* Boundary classification is index based (``i == 0``, ``i == nx``, ...), so it
  is exact regardless of floating-point rounding in the coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

__all__ = ["StructuredTriMesh", "build_rect_mesh", "p2_numbering", "dof_lattice", "boundary_dofs"]


@dataclass(frozen=True, eq=False)
class StructuredTriMesh:
    """Triangulation of ``(ax, bx) x (ay, by)`` into ``2*nx*ny`` triangles; equal only to itself."""

    nx: int
    ny: int
    bounds: tuple[float, float, float, float]  # (ax, ay, bx, by)
    vertices: np.ndarray       # (n_vertices, 2) float
    triangles: np.ndarray      # (n_triangles, 3) int, counterclockwise
    vertex_on_boundary: np.ndarray  # (n_vertices,) bool
    h: float                   # edge length of the axis-aligned sides

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_p2_nodes(self) -> int:
        return (2 * self.nx + 1) * (2 * self.ny + 1)


def build_rect_mesh(bounds, nx: int, ny: int) -> StructuredTriMesh:
    """Triangulate the rectangle ``bounds = (ax, ay, bx, by)``.

    ``nx`` and ``ny``, integers, count cells per direction; each cell is split
    into two triangles.  The rectangle must be finite, and the two directions
    must give the same mesh size h (uniform, shape-regular family).
    """
    ax, ay, bx, by = map(float, bounds)
    if not (np.isfinite([ax, ay, bx, by, bx - ax, by - ay]).all() and bx > ax and by > ay):
        raise ValueError(f"degenerate or non-finite rectangle: {bounds!r}")
    if not (isinstance(nx, Integral) and isinstance(ny, Integral) and nx >= 1 and ny >= 1):
        raise ValueError(f"need a positive integer number of cells per direction, got nx={nx!r}, ny={ny!r}")
    nx, ny = int(nx), int(ny)
    hx = (bx - ax) / nx
    hy = (by - ay) / ny
    if abs(hx - hy) > 1e-12 * max(hx, hy):
        raise ValueError(f"anisotropic cells not supported: hx={hx!r}, hy={hy!r}")

    # linspace pins the endpoints exactly; interior points match ax + i*hx.
    xs = np.linspace(ax, bx, nx + 1)
    ys = np.linspace(ay, by, ny + 1)
    gx, gy = np.meshgrid(xs, ys)  # row-major, x fastest after ravel
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny))
    ll = (jj * (nx + 1) + ii).ravel()      # lower-left vertex of each cell
    lr = ll + 1
    ur = lr + (nx + 1)
    ul = ll + (nx + 1)
    lower = np.column_stack([ll, lr, ur])  # ccw
    upper = np.column_stack([ll, ur, ul])  # ccw
    # Interleave so the two triangles of a cell are adjacent in numbering.
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    return StructuredTriMesh(
        nx=nx,
        ny=ny,
        bounds=(ax, ay, bx, by),
        vertices=vertices,
        triangles=triangles,
        vertex_on_boundary=_frame(ny + 1, nx + 1).ravel(),
        h=hx,
    )


def p2_numbering(mesh: StructuredTriMesh) -> np.ndarray:
    """Local-to-global map for quadratic nodes, shape ``(n_triangles, 6)``.

    Local order is ``[v0, v1, v2, m12, m20, m01]``: the three vertices, then
    the midpoint opposite each vertex in turn.  A vertex (i, j) is lattice
    point 2 * half with half = j*(2nx+1) + i, and a midpoint is the sum of
    its ends' halves.
    """
    j, i = np.divmod(mesh.triangles, mesh.nx + 1)
    half = j * (2 * mesh.nx + 1) + i
    return np.hstack([2 * half, half[:, [1, 2, 0]] + half[:, [2, 0, 1]]])


def p2_node_coords(mesh: StructuredTriMesh) -> np.ndarray:
    """Coordinates of the P2 nodes in lattice order: the vertices and the means of edge ends."""
    v = mesh.vertices.reshape(mesh.ny + 1, mesh.nx + 1, 2)
    coords = np.empty((2 * mesh.ny + 1, 2 * mesh.nx + 1, 2))
    coords[::2, ::2] = v
    coords[::2, 1::2] = 0.5 * (v[:, :-1] + v[:, 1:])         # horizontal edges
    coords[1::2, ::2] = 0.5 * (v[:-1] + v[1:])               # vertical edges
    coords[1::2, 1::2] = 0.5 * (v[:-1, :-1] + v[1:, 1:])     # diagonals
    return coords.reshape(-1, 2)


def dof_lattice(mesh: StructuredTriMesh, space_kind: str) -> tuple[int, int]:
    """(rows, columns) of the row-major lattice that numbers a space's dofs: spacing h for P1, h/2 for P2."""
    step = {"p1": 1, "p2": 2}.get(space_kind.lower())
    if step is None:
        raise ValueError(f"unknown space kind: {space_kind!r}")
    return step * mesh.ny + 1, step * mesh.nx + 1


def _frame(rows: int, columns: int) -> np.ndarray:
    """The (rows, columns) mask of the outermost points of a lattice."""
    frame = np.ones((rows, columns), dtype=bool)
    frame[1:-1, 1:-1] = False
    return frame


def boundary_dofs(mesh: StructuredTriMesh, space_kind: str) -> np.ndarray:
    """Sorted indices of degrees of freedom on the boundary: the frame of the space's lattice.

    ``space_kind`` is ``"p1"`` or ``"p2"``.  A vector field on the P2 space
    has the P2 boundary nodes as boundary dofs in each of its components.
    """
    return np.flatnonzero(_frame(*dof_lattice(mesh, space_kind)))
