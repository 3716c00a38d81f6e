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
    assert mesh.n_edges == 33
    assert mesh.n_p2_nodes == 16 + 33


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


def test_edges_are_sorted_pairs_in_lexicographic_order():
    mesh = build_rect_mesh((0.0, 0.0, 3.0, 2.0), 3, 2)
    assert (mesh.edges[:, 0] < mesh.edges[:, 1]).all()
    keys = mesh.edges[:, 0] * mesh.n_vertices + mesh.edges[:, 1]
    assert (np.diff(keys) > 0).all()


def test_triangle_edges_opposite_vertices():
    mesh = build_rect_mesh(UNIT, 4, 4)
    for t in range(mesh.n_triangles):
        tri = set(mesh.triangles[t])
        for k in range(3):
            edge = set(mesh.edges[mesh.triangle_edges[t, k]])
            # Edge k joins the two vertices other than local vertex k.
            assert edge == tri - {mesh.triangles[t, k]}


def test_boundary_classification():
    mesh = build_rect_mesh(UNIT, 3, 3)
    assert int(mesh.vertex_on_boundary.sum()) == 12
    assert int(mesh.edge_on_boundary.sum()) == 12
    inner = ~mesh.vertex_on_boundary
    assert int(inner.sum()) == 4
    # Boundary vertices sit exactly on the rectangle outline.
    vb = mesh.vertices[mesh.vertex_on_boundary]
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


def test_boundary_dofs_spaces():
    mesh = build_rect_mesh(UNIT, 3, 3)
    p1 = boundary_dofs(mesh, "p1")
    np.testing.assert_array_equal(p1, np.flatnonzero(mesh.vertex_on_boundary))
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


def test_rejects_anisotropic_and_bad_input():
    with pytest.raises(ValueError):
        build_rect_mesh(UNIT, 10, 20)
    with pytest.raises(ValueError):
        build_rect_mesh((1.0, 0.0, 0.0, 1.0), 4, 4)
    with pytest.raises(ValueError):
        build_rect_mesh(UNIT, 0, 0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(nx=st.integers(min_value=1, max_value=9), ny=st.integers(min_value=1, max_value=9))
def test_counts_formulas(nx, ny):
    # Keep the cells square so the isotropy check passes.
    mesh = build_rect_mesh((0.0, 0.0, float(nx), float(ny)), nx, ny)
    assert mesh.n_vertices == (nx + 1) * (ny + 1)
    assert mesh.n_triangles == 2 * nx * ny
    assert mesh.n_edges == nx * (ny + 1) + ny * (nx + 1) + nx * ny
    # Euler characteristic of a disk: V - E + F = 1.
    assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1
    assert int(mesh.vertex_on_boundary.sum()) == 2 * (nx + ny)
