"""Uniform triangulations of axis-aligned rectangles.

Conventions (fixed so that results are reproducible bit for bit):

* Vertices are numbered row-major, x fastest: vertex ``j*(nx+1) + i`` sits at
  ``(ax + i*hx, ay + j*hy)``.
* Each grid cell is split along the diagonal from its lower-left to its
  upper-right corner, giving triangles ``(a, b, c)`` and ``(a, c, d)`` where
  ``a`` is the lower-left, ``b`` lower-right, ``c`` upper-right, ``d``
  upper-left corner.  Both triangles are counterclockwise.
* Edges are stored as sorted vertex pairs in lexicographic order.  Quadratic
  (P2) nodes are the vertices followed by the edge midpoints, so midpoint of
  edge ``e`` is node ``n_vertices + e``.
* Boundary classification is index based (``i == 0``, ``i == nx``, ...), so it
  is exact regardless of floating-point rounding in the coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StructuredTriMesh", "build_rect_mesh", "p2_numbering", "p2_lattice", "boundary_dofs"]


@dataclass(frozen=True)
class StructuredTriMesh:
    """Triangulation of ``(ax, bx) x (ay, by)`` into ``2*nx*ny`` triangles."""

    nx: int
    ny: int
    bounds: tuple[float, float, float, float]  # (ax, ay, bx, by)
    vertices: np.ndarray       # (n_vertices, 2) float
    triangles: np.ndarray      # (n_triangles, 3) int, counterclockwise
    edges: np.ndarray          # (n_edges, 2) int, each row sorted, rows sorted
    triangle_edges: np.ndarray  # (n_triangles, 3) int, edge opposite local vertex k
    vertex_on_boundary: np.ndarray  # (n_vertices,) bool
    edge_on_boundary: np.ndarray    # (n_edges,) bool
    h: float                   # edge length of the axis-aligned sides

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_p2_nodes(self) -> int:
        return self.n_vertices + self.n_edges


def build_rect_mesh(bounds, nx: int, ny: int) -> StructuredTriMesh:
    """Triangulate the rectangle ``bounds = (ax, ay, bx, by)``.

    ``nx`` and ``ny`` count cells per direction; each cell is split into two
    triangles.  The two directions must give the same mesh size h (uniform,
    shape-regular family).
    """
    ax, ay, bx, by = map(float, bounds)
    if not (bx > ax and by > ay):
        raise ValueError(f"degenerate rectangle: {bounds!r}")
    nx = int(nx)
    ny = int(ny)
    if nx < 1 or ny < 1:
        raise ValueError(f"need at least one cell per direction, got nx={nx}, ny={ny}")
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

    # Edge opposite local vertex k joins the other two local vertices.
    raw = np.concatenate([triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]])
    raw.sort(axis=1)
    n_vert = vertices.shape[0]
    keys = raw[:, 0] * n_vert + raw[:, 1]
    unique_keys, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    edges = np.column_stack([unique_keys // n_vert, unique_keys % n_vert])
    triangle_edges = inverse.reshape(3, -1).T.copy()

    ivals = np.arange(nx + 1)
    on_x = (ivals == 0) | (ivals == nx)
    jvals = np.arange(ny + 1)
    on_y = (jvals == 0) | (jvals == ny)
    vertex_on_boundary = (on_y[:, None] | on_x[None, :]).ravel()
    # A boundary edge belongs to exactly one triangle.
    edge_on_boundary = counts == 1

    return StructuredTriMesh(
        nx=nx,
        ny=ny,
        bounds=(ax, ay, bx, by),
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        triangle_edges=triangle_edges,
        vertex_on_boundary=vertex_on_boundary,
        edge_on_boundary=edge_on_boundary,
        h=hx,
    )


def p2_numbering(mesh: StructuredTriMesh) -> np.ndarray:
    """Local-to-global map for quadratic nodes, shape ``(n_triangles, 6)``.

    Local order is ``[v0, v1, v2, m12, m20, m01]``: the three vertices, then
    the midpoint opposite each vertex in turn.  Global midpoint numbers start
    at ``n_vertices``.
    """
    return np.hstack([mesh.triangles, mesh.n_vertices + mesh.triangle_edges])


def p2_node_coords(mesh: StructuredTriMesh) -> np.ndarray:
    """Coordinates of the P2 nodes: vertices, then edge midpoints."""
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    return np.vstack([mesh.vertices, mids])


def p2_lattice(mesh: StructuredTriMesh) -> np.ndarray:
    """Row-major index of each P2 node on the (2nx+1) by (2ny+1) lattice of spacing h/2.

    Vertex (i, j) is lattice point (2i, 2j), and the midpoint of an edge is
    the sum of its endpoints' (i, j).  Splitting each triangle at its edge
    midpoints gives the diagonal-cut mesh of that lattice.
    """
    j, i = np.divmod(np.arange(mesh.n_vertices), mesh.nx + 1)
    half = j * (2 * mesh.nx + 1) + i  # half the lattice index of each vertex
    return np.concatenate([2 * half, half[mesh.edges].sum(axis=1)])


def boundary_dofs(mesh: StructuredTriMesh, space_kind: str) -> np.ndarray:
    """Sorted indices of degrees of freedom on the boundary.

    ``space_kind`` is ``"p1"`` or ``"p2"``.  A vector field on the P2 space
    has the P2 boundary nodes as boundary dofs in each of its components.
    """
    kind = space_kind.lower()
    p1 = np.flatnonzero(mesh.vertex_on_boundary)
    if kind == "p1":
        return p1
    p2 = np.concatenate([p1, mesh.n_vertices + np.flatnonzero(mesh.edge_on_boundary)])
    p2.sort()
    if kind == "p2":
        return p2
    raise ValueError(f"unknown space kind: {space_kind!r}")
