"""Structured triangulation: counts, orientation, connectivity, boundaries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspnp.mesh import boundary_dofs, build_rect_mesh, p2_node_coords, p2_numbering

UNIT = (0.0, 0.0, 1.0, 1.0)


def test_counts_3x3():
    mesh = build_rect_mesh(UNIT, 3, 3)
    assert mesh.n_vertices == 16
    assert mesh.n_triangles == 18
    assert mesh.n_p2_nodes == 7 * 7  # 16 vertices and 33 edge midpoints


def test_vertices_row_major_x_fastest():
    mesh = build_rect_mesh((0.0, 0.0, 2.0, 1.0), 4, 2)
    h = 0.5
    np.testing.assert_allclose(mesh.vertices[0], [0.0, 0.0])
    np.testing.assert_allclose(mesh.vertices[1], [h, 0.0])
    np.testing.assert_allclose(mesh.vertices[5], [0.0, h])
    assert mesh.h == pytest.approx(h)


def test_triangles_positively_oriented():
    mesh = build_rect_mesh((-1.0, -1.0, 1.0, 1.0), 5, 5)
    a, b, c = (mesh.vertices[mesh.triangles[:, k]] for k in range(3))
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    assert (cross > 0).all()


def test_cell_split_uses_lower_left_to_upper_right_diagonal():
    mesh = build_rect_mesh(UNIT, 1, 1)
    # One cell, two triangles sharing the (0,0)-(1,1) diagonal.
    assert mesh.n_triangles == 2
    shared = set(mesh.triangles[0]) & set(mesh.triangles[1])
    diag = {0, 3}  # vertex 0 at (0,0), vertex 3 at (1,1)
    assert shared == diag


def test_triangle_edges_opposite_vertices():
    mesh = build_rect_mesh((0.0, 0.0, 4.0, 3.0), 4, 3)
    num = p2_numbering(mesh)
    for k in range(3):
        # Midpoint dof 3 + k is the lattice point halfway between the two vertices other than k.
        a, b = num[:, (k + 1) % 3], num[:, (k + 2) % 3]
        np.testing.assert_array_equal(2 * num[:, 3 + k], a + b)


def test_p1_dof_of_a_vertex_is_the_p2_dof_at_its_even_even_lattice_point():
    nx, ny = 5, 3
    mesh = build_rect_mesh((0.0, 0.0, 5.0, 3.0), nx, ny)
    j, i = np.divmod(mesh.triangles, nx + 1)
    np.testing.assert_array_equal(p2_numbering(mesh)[:, :3], 2 * j * (2 * nx + 1) + 2 * i)


def test_boundary_classification():
    mesh = build_rect_mesh(UNIT, 3, 3)
    boundary = boundary_dofs(mesh, "p1")
    assert boundary.size == 12
    assert mesh.n_vertices - boundary.size == 4
    # Boundary vertices sit exactly on the rectangle outline.
    vb = mesh.vertices[boundary]
    on_outline = (
        (vb[:, 0] == 0.0) | (vb[:, 0] == 1.0) | (vb[:, 1] == 0.0) | (vb[:, 1] == 1.0)
    )
    assert on_outline.all()


def test_p2_numbering_shape_and_midpoints():
    mesh = build_rect_mesh(UNIT, 2, 2)
    num = p2_numbering(mesh)
    assert num.shape == (mesh.n_triangles, 6)
    coords = p2_node_coords(mesh)
    assert coords.shape == (mesh.n_p2_nodes, 2)
    for t in range(mesh.n_triangles):
        v = mesh.vertices[mesh.triangles[t]]
        # Local order: three vertices, then midpoints opposite each vertex.
        np.testing.assert_allclose(coords[num[t, 3]], 0.5 * (v[1] + v[2]))
        np.testing.assert_allclose(coords[num[t, 4]], 0.5 * (v[2] + v[0]))
        np.testing.assert_allclose(coords[num[t, 5]], 0.5 * (v[0] + v[1]))


@pytest.mark.parametrize("nx, ny", [(5, 5), (6, 2)], ids=["square", "rectangle"])
def test_p2_lattice_numbers_the_half_step_grid_of_the_p2_nodes(nx, ny):
    mesh = build_rect_mesh((-1.0, 0.5, 2.0, 0.5 + 3.0 * ny / nx), nx, ny)
    # Node k is lattice point (i, j) = divmod, and every lattice point is a node of some triangle.
    np.testing.assert_array_equal(np.unique(p2_numbering(mesh)), np.arange(mesh.n_p2_nodes))
    j, i = np.divmod(np.arange(mesh.n_p2_nodes), 2 * nx + 1)
    np.testing.assert_allclose(
        (p2_node_coords(mesh) - [-1.0, 0.5]) / (mesh.h / 2), np.stack([i, j], axis=1), atol=1e-12
    )


def test_boundary_dofs_spaces():
    mesh = build_rect_mesh(UNIT, 3, 3)
    p2 = boundary_dofs(mesh, "p2")
    coords = p2_node_coords(mesh)[p2]
    on_outline = (
        (coords[:, 0] == 0.0) | (coords[:, 0] == 1.0) | (coords[:, 1] == 0.0) | (coords[:, 1] == 1.0)
    )
    assert on_outline.all()
    assert len(p2) == 12 + 12  # boundary vertices plus boundary-edge midpoints
    for kind in ("p2-vector", "p3"):
        with pytest.raises(ValueError):
            boundary_dofs(mesh, kind)


@pytest.mark.parametrize("nx, ny", [(1, 1), (4, 4), (5, 2)])
def test_p2_boundary_dofs_are_the_lattice_frame(nx, ny):
    mesh = build_rect_mesh((0.0, 0.0, float(nx), float(ny)), nx, ny)
    j, i = np.divmod(np.arange(mesh.n_p2_nodes), 2 * nx + 1)
    frame = (i == 0) | (i == 2 * nx) | (j == 0) | (j == 2 * ny)
    np.testing.assert_array_equal(boundary_dofs(mesh, "p2"), np.flatnonzero(frame))


def test_rejects_anisotropic_and_bad_input():
    with pytest.raises(ValueError):
        build_rect_mesh(UNIT, 10, 20)
    with pytest.raises(ValueError):
        build_rect_mesh((1.0, 0.0, 0.0, 1.0), 4, 4)
    with pytest.raises(ValueError):
        build_rect_mesh(UNIT, 0, 0)


@pytest.mark.parametrize("nx, ny", [(1.5, 1.5), (2.0, 2), (3, "3"), (np.float64(4.0), 4)])
def test_rejects_cell_counts_that_are_not_integers(nx, ny):
    # int() would truncate 1.5 to a 1 x 1 mesh in silence.
    with pytest.raises(ValueError, match="integer"):
        build_rect_mesh(UNIT, nx, ny)
    assert build_rect_mesh(UNIT, np.int64(2), 2).nx == 2  # numpy integers are integers


@pytest.mark.parametrize(
    "bounds", [(0.0, 0.0, np.inf, 1.0), (-np.inf, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, np.nan), (-1e308, 0.0, 1e308, 1.0)]
)
def test_rejects_non_finite_rectangles(bounds):
    # (0, 0, inf, 1) passed the isotropy check and built NaN and inf vertices.
    with pytest.raises(ValueError, match="non-finite"):
        build_rect_mesh(bounds, 4, 4)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(nx=st.integers(min_value=1, max_value=9), ny=st.integers(min_value=1, max_value=9))
def test_counts_formulas(nx, ny):
    # Keep the cells square so the isotropy check passes.
    mesh = build_rect_mesh((0.0, 0.0, float(nx), float(ny)), nx, ny)
    assert mesh.n_vertices == (nx + 1) * (ny + 1)
    assert mesh.n_triangles == 2 * nx * ny
    # The P2 nodes are the vertices and one midpoint per edge.
    n_edges = mesh.n_p2_nodes - mesh.n_vertices
    assert n_edges == nx * (ny + 1) + ny * (nx + 1) + nx * ny
    # Euler characteristic of a disk: V - E + F = 1.
    assert mesh.n_vertices - n_edges + mesh.n_triangles == 1
    assert boundary_dofs(mesh, "p1").size == 2 * (nx + ny)
