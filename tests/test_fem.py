"""Element-level oracles, quadrature exactness, assembly identities, norms."""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import coo_matrix, diags

from nspnp.fem import (
    DirichletSystem,
    FieldVector,
    FunctionSpace,
    assemble_convection,
    assemble_div_coupling,
    assemble_drift,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    element_gradient,
    error_norms,
    field_at_quadrature,
    gradient_at_quadrature,
    interpolate,
    load_from_quadrature,
    quadrature_integral,
    shape_eval,
    tri_quadrature_degree5,
)
from nspnp.mesh import StructuredTriMesh, build_rect_mesh
from nspnp.scheme import SchemeParams, _momentum_forcing, solve_xi
from nspnp.sparse import cg

# Element matrices on the unit right triangle (0,0)-(1,0)-(0,1), local order
# [v0, v1, v2, m12, m20, m01], integrated exactly: mass scaled by 360, grad-grad
# scaled by 6.  Derived once by hand from the P2 shape functions.
P2_REF_MASS_X360 = np.array(
    [
        [6, -1, -1, -4, 0, 0],
        [-1, 6, -1, 0, -4, 0],
        [-1, -1, 6, 0, 0, -4],
        [-4, 0, 0, 32, 16, 16],
        [0, -4, 0, 16, 32, 16],
        [0, 0, -4, 16, 16, 32],
    ],
    dtype=float,
)
P2_REF_STIFF_X6 = np.array(
    [
        [6, 1, 1, 0, -4, -4],
        [1, 3, 0, 0, 0, -4],
        [1, 0, 3, 0, -4, 0],
        [0, 0, 0, 16, -8, -8],
        [-4, 0, -4, -8, 16, 0],
        [-4, -4, 0, -8, 0, 16],
    ],
    dtype=float,
)


def reference_triangle_mesh() -> StructuredTriMesh:
    """Single-triangle mesh equal to the reference element itself: vertices 0, 1, 2 of one cell."""
    return dataclasses.replace(build_rect_mesh((0.0, 0.0, 1.0, 1.0), 1, 1), triangles=np.array([[0, 1, 2]]))


def oracle_tables(space: FunctionSpace) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle quadrature weights (t, q) and physical basis gradients (t, q, nloc, 2).

    Built from the vertices with a dense inverse of each Jacobian, independently
    of the space's geometry table: the layout the kernels no longer store.
    """
    verts = space.mesh.vertices[space.mesh.triangles]
    jac = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=-1)
    w_area = 0.5 * np.linalg.det(jac)[:, None] * space.rule.weights
    grads = np.einsum("qik,tkd->tqid", space.ref_gradients, np.linalg.inv(jac))
    return w_area, grads


def dense_assembly(rows: np.ndarray, cols: np.ndarray, elem: np.ndarray, shape) -> np.ndarray:
    """Sum of the element matrices elem (t, ni, nj) through COO, as a dense array."""
    r = np.broadcast_to(rows[:, :, None], elem.shape).ravel()
    c = np.broadcast_to(cols[:, None, :], elem.shape).ravel()
    return coo_matrix((elem.ravel(), (r, c)), shape=shape).toarray()


def sheared_mesh(n: int) -> StructuredTriMesh:
    """The unit square mesh moved by (x, y) -> (x + 0.3 y, 0.2 x + 0.9 y), still counterclockwise."""
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), n, n)
    x, y = mesh.vertices.T
    return dataclasses.replace(mesh, vertices=np.stack([x + 0.3 * y, 0.2 * x + 0.9 * y], axis=1))


def element_matrix(space: FunctionSpace, kind: str) -> np.ndarray:
    """Element integral of products of basis values or gradients, triangle 0."""
    w_area, grads = oracle_tables(space)
    if kind == "mass":
        return np.einsum("q,qi,qj->ij", w_area[0], space.basis_values, space.basis_values)
    return np.einsum("q,qid,qjd->ij", w_area[0], grads[0], grads[0])


def test_p2_reference_mass_matrix():
    space = FunctionSpace.p2(reference_triangle_mesh())
    np.testing.assert_allclose(element_matrix(space, "mass") * 360.0, P2_REF_MASS_X360, atol=1e-12)


def test_p2_reference_stiffness_matrix():
    space = FunctionSpace.p2(reference_triangle_mesh())
    np.testing.assert_allclose(element_matrix(space, "stiff") * 6.0, P2_REF_STIFF_X6, atol=1e-12)


def test_quadrature_rule_structure():
    rule = tri_quadrature_degree5()
    assert rule.degree == 5
    assert rule.points.shape == (7, 3)
    assert rule.weights.shape == (7,)
    assert (rule.weights > 0).all()
    np.testing.assert_allclose(rule.weights.sum(), 1.0, atol=1e-15)
    np.testing.assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-15)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(6) for b in range(6 - a)])
def test_quadrature_exact_on_reference_monomials(a, b):
    # int_T x^a y^b over the unit right triangle = a! b! / (a+b+2)!.
    rule = tri_quadrature_degree5()
    x = rule.points[:, 1]  # barycentric l1 is the reference x
    y = rule.points[:, 2]
    approx = 0.5 * float(rule.weights @ (x**a * y**b))
    exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
    assert approx == pytest.approx(exact, abs=1e-14)


def test_partition_of_unity_and_gradients():
    rng = np.random.default_rng(7)
    pts = rng.dirichlet(np.ones(3), size=20)
    for kind in ("p1", "p2"):
        for bary in pts:
            vals, grads = shape_eval(kind, bary)
            assert vals.sum() == pytest.approx(1.0, abs=1e-13)
            np.testing.assert_allclose(grads.sum(axis=0), 0.0, atol=1e-13)


def test_shape_eval_rejects_bad_barycentric():
    with pytest.raises(ValueError):
        shape_eval("p1", (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        shape_eval("p9", (1.0, 0.0, 0.0))


def test_p2_space_reproduces_quadratics():
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 5, 5)
    space = FunctionSpace.p2(mesh)

    def f(x, y, t):
        return x * x - 3.0 * x * y + 2.0 * y * y + x - y + 1.0

    def grad_f(x, y, t):
        return np.stack([2.0 * x - 3.0 * y + 1.0, -3.0 * x + 4.0 * y - 1.0])

    field = interpolate(space, f, 0.0)
    l2, h1s, h1 = error_norms(field, f, grad_f, 0.0)
    assert l2 < 1e-13
    assert h1s < 1e-12
    assert h1 < 1e-12


def test_error_norms_of_zero_field_give_exact_norms():
    # Against the zero interpolant the "error" is the norm of f itself:
    # ||sin(pi x) sin(pi y)||_L2 = 1/2, |.|_H1 = pi/sqrt(2) on the unit square.
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 48, 48)
    space = FunctionSpace.p2(mesh)

    def f(x, y, t):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def grad_f(x, y, t):
        return np.stack(
            [
                np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            ]
        )

    zero = FieldVector.zeros(space)
    l2, h1s, h1 = error_norms(zero, f, grad_f, 0.0)
    assert l2 == pytest.approx(0.5, rel=1e-10)
    assert h1s == pytest.approx(np.pi / np.sqrt(2.0), rel=1e-10)
    assert h1 == pytest.approx(np.hypot(0.5, np.pi / np.sqrt(2.0)), rel=1e-10)


def test_mass_matrix_row_sums_integrate_to_area():
    mesh = build_rect_mesh((-1.0, -1.0, 1.0, 1.0), 6, 6)
    for space in (FunctionSpace.p1(mesh), FunctionSpace.p2(mesh)):
        m = assemble_mass(space)
        ones = np.ones(space.n_dofs)
        assert ones @ (m @ ones) == pytest.approx(4.0, rel=1e-14)
        diff = (m - m.T).tocoo()
        assert (np.abs(diff.data) < 1e-15).all() if diff.nnz else True


def test_stiffness_kernel_and_symmetry():
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 6, 6)
    for space in (FunctionSpace.p1(mesh), FunctionSpace.p2(mesh)):
        a = assemble_stiffness(space)
        ones = np.ones(space.n_dofs)
        assert np.abs(a @ ones).max() < 1e-13
        diff = (a - a.T).tocoo()
        if diff.nnz:
            assert np.abs(diff.data).max() < 1e-13


def test_convection_and_drift_annihilated_by_constants():
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 6, 6)
    p1 = FunctionSpace.p1(mesh)
    vel = FunctionSpace.p2(mesh)
    u = interpolate(vel, lambda x, y, t: np.stack([y * (1 - y), np.sin(x)]), 0.0)
    phi = interpolate(p1, lambda x, y, t: np.cos(np.pi * x) * y, 0.0)

    k = assemble_convection(u, p1)
    d = assemble_drift(phi)
    rng = np.random.default_rng(3)
    z = rng.standard_normal(p1.n_dofs)
    ones = np.ones(p1.n_dofs)
    for mat in (k, d):
        scale = max(np.abs(mat.data).max(), 1.0) * np.linalg.norm(z)
        assert abs(ones @ (mat @ z)) <= 1e-12 * scale


def _quadrature_oracle(space, vector_q):
    """The quadrature assembly the closed forms replaced: sum_T sum_q area w_q (v . grad theta_i) theta_j."""
    w_area, grads = oracle_tables(space)
    elem = np.einsum("tq,tqd,tqid,qj->tij", w_area, vector_q, grads, space.basis_values)
    return dense_assembly(space.element_dofs, space.element_dofs, elem, (space.n_dofs,) * 2)


def test_closed_form_transport_kernels_match_quadrature():
    # K and D in closed form against the degree-5 quadrature they replace,
    # on a random P2 velocity and a random P1 potential.
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 6, 6)
    p1 = FunctionSpace.p1(mesh)
    p2 = FunctionSpace.p2(mesh)
    rng = np.random.default_rng(11)
    u = FieldVector(p2, rng.standard_normal((2, p2.n_dofs)))
    phi = FieldVector(p1, rng.standard_normal(p1.n_dofs))
    for got, want in (
        (assemble_convection(u, p1), -_quadrature_oracle(p1, field_at_quadrature(u))),
        (assemble_drift(phi), _quadrature_oracle(p1, gradient_at_quadrature(phi))),
    ):
        assert np.abs(got.toarray() - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize(
    "mesh", [build_rect_mesh((0.0, 0.0, 1.0, 1.0), 4, 4), sheared_mesh(4)], ids=["square", "sheared"]
)
def test_reference_kernels_match_the_physical_gradient_table(mesh):
    # Every kernel against the per-triangle (t, q, nloc, 2) gradient table and
    # its einsums, on Jacobians of a general affine map as well.
    p1 = FunctionSpace.p1(mesh)
    p2 = FunctionSpace.p2(mesh)
    rng = np.random.default_rng(23)
    u = FieldVector(p2, rng.standard_normal((2, p2.n_dofs)))
    phi = FieldVector(p1, rng.standard_normal(p1.n_dofs))
    (w1, g1), (w2, g2) = oracle_tables(p1), oracle_tables(p2)
    u_e = u.values[:, p2.element_dofs]

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    close(gradient_at_quadrature(u), np.einsum("tqid,cti->tqcd", g2, u_e))
    close(gradient_at_quadrature(phi), np.einsum("tqid,ti->tqd", g1, phi.values[p1.element_dofs]))
    close(element_gradient(phi), np.einsum("tid,ti->td", g1[:, 0], phi.values[p1.element_dofs]))
    for space, w, g in ((p1, w1, g1), (p2, w2, g2)):
        elem = np.einsum("tq,tqid,tqjd->tij", w, g, g)
        want = dense_assembly(space.element_dofs, space.element_dofs, elem, (space.n_dofs,) * 2)
        close(assemble_stiffness(space).toarray(), want)
    n = p2.n_dofs
    elem = np.einsum("tq,qi,tqjd->tidj", w1, p1.basis_values, g2).reshape(mesh.n_triangles, 3, -1)
    cols = np.hstack([p2.element_dofs, p2.element_dofs + n])
    close(
        assemble_div_coupling(p2, p1).toarray(),
        dense_assembly(p1.element_dofs, cols, elem, (p1.n_dofs, 2 * n)),
    )
    u_q = np.einsum("qi,cti->tqc", p2.basis_values, u_e)
    close(assemble_convection(u, p1).toarray(), -_quadrature_oracle(p1, u_q))


@pytest.mark.parametrize(
    "mesh",
    [build_rect_mesh((0.0, 0.0, 1.0, 1.0), 4, 4), sheared_mesh(4), build_rect_mesh((0.0, 0.0, 1.0, 0.75), 4, 3)],
    ids=["square", "sheared", "rectangle"],
)
def test_per_kind_kernels_match_the_quadrature_oracle(mesh):
    # The momentum forcing, the drift matrix and the drift dissipation of the xi quadratic,
    # computed per triangle kind, against the per-triangle quadrature of the oracle tables.
    p1, p2 = FunctionSpace.p1(mesh), FunctionSpace.p2(mesh)
    rng = np.random.default_rng(29)
    u = FieldVector(p2, rng.standard_normal((2, p2.n_dofs)))
    c1, c2 = (FieldVector(p1, rng.uniform(0.5, 1.5, p1.n_dofs)) for _ in range(2))
    phi = FieldVector(p1, rng.standard_normal(p1.n_dofs))
    (w1, g1), (w2, g2) = oracle_tables(p1), oracle_tables(p2)
    u_e, phi_e = u.values[:, p2.element_dofs], phi.values[p1.element_dofs]
    u_q = np.einsum("qi,cti->tqc", p2.basis_values, u_e)
    grad_u_q = np.einsum("tqid,cti->tqcd", g2, u_e)
    grad_phi_q = np.einsum("tqid,ti->tqd", g1, phi_e)
    c_q = [np.einsum("qi,ti->tq", p1.basis_values, c.values[p1.element_dofs]) for c in (c1, c2)]

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    forcing_q = np.einsum("tqd,tqcd->tqc", u_q, grad_u_q) + (c_q[0] - c_q[1])[..., None] * grad_phi_q
    elem = np.einsum("tq,tqc,qi->cti", w2, forcing_q, p2.basis_values)
    want = np.stack([np.bincount(p2.element_dofs.ravel(), e.ravel(), p2.n_dofs) for e in elem])
    ops = SimpleNamespace(
        scalar_space=p1, velocity_space=p2, stiff_p1=assemble_stiffness(p1), mass_p1=assemble_mass(p1)
    )
    close(_momentum_forcing(ops, SimpleNamespace(u=u, c1=c1, c2=c2, phi=phi)), want)

    close(assemble_drift(phi).toarray(), _quadrature_oracle(p1, grad_phi_q))

    zero = FieldVector(p2, np.zeros((2, p2.n_dofs)))
    split = SimpleNamespace(forcing=np.zeros((2, p2.n_dofs)), u1=zero, u2=zero)
    params = SchemeParams(tau=0.1, t_final=0.1, c0=1.0)
    *_, coeffs = solve_xi(ops, SimpleNamespace(r=100.0), split, c1, c2, phi, params, np.zeros((2, p1.n_dofs)))
    want = np.sum(w1 * (c_q[0] + c_q[1]) * np.sum(grad_phi_q**2, axis=-1))
    close(np.array(coeffs.drift_dissipation), want)


def test_function_space_rejects_a_mesh_whose_triangle_kinds_are_not_translates():
    # Interior vertex (2, 2) moved: its triangles are no longer translates of their kind's first one.
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 4, 4)
    vertices = mesh.vertices.copy()
    vertices[2 * (mesh.nx + 1) + 2] += (0.05, 0.03)
    moved = dataclasses.replace(mesh, vertices=vertices)
    for kind in ("p1", "p2"):
        with pytest.raises(ValueError, match="translates"):
            FunctionSpace(moved, kind)


def test_p1_and_p2_spaces_share_quadrature_points():
    # Analytic data is evaluated once per step on the P1 points and loaded on both spaces.
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 0.75), 4, 3)
    assert np.array_equal(FunctionSpace.p1(mesh).quad_xy, FunctionSpace.p2(mesh).quad_xy)


def test_spaces_on_one_mesh_share_its_triangle_geometry():
    # Computed once per mesh and read-only, the area and gradients one per triangle kind;
    # a sheared copy of a mesh gets its own.
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 4, 4)
    p1, p2 = FunctionSpace.p1(mesh), FunctionSpace.p2(mesh)
    for name in ("kind_area", "kind_gradients", "quad_xy"):
        assert getattr(p1, name) is getattr(p2, name)
        assert not getattr(p1, name).flags.writeable
    assert p1.kind_area.shape == (2,) and p1.kind_gradients.shape == (2, 2, 3)
    sheared = FunctionSpace.p1(sheared_mesh(4))
    assert not np.array_equal(sheared.kind_gradients, p1.kind_gradients)


def test_matrices_on_a_space_share_its_pattern():
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 0.75), 4, 3)
    p1 = FunctionSpace.p1(mesh)
    u = interpolate(FunctionSpace.p2(mesh), lambda x, y, t: np.stack([x * y, -y]), 0.0)
    phi = interpolate(p1, lambda x, y, t: x - y * y, 0.0)
    mats = [assemble_mass(p1), assemble_stiffness(p1), assemble_convection(u, p1), assemble_drift(phi)]
    for mat in mats:
        assert np.shares_memory(mat.indices, p1.pattern.indices)
        assert np.shares_memory(mat.indptr, p1.pattern.indptr)
        assert mat.has_sorted_indices
    # The pattern holds exactly the couplings of the triangles: no more, no fewer.
    coupled = np.zeros((p1.n_dofs, p1.n_dofs), dtype=bool)
    for tri in p1.element_dofs:
        coupled[np.ix_(tri, tri)] = True
    pattern = p1.pattern.matrix(np.ones(p1.pattern.indices.shape[0])).toarray()
    np.testing.assert_array_equal(pattern != 0, coupled)


def argsort_pattern(element_dofs: np.ndarray, n: int):
    """(indptr, indices, entries) of the element couplings by sorting all element entries."""
    t, nloc = element_dofs.shape
    keys = (np.repeat(element_dofs, nloc, axis=1).astype(np.int64) * n + np.tile(element_dofs, (1, nloc))).ravel()
    unique, slots = np.unique(keys, return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(unique // n, minlength=n))])
    return indptr, unique % n, slots.reshape(t, nloc, nloc)


@pytest.mark.parametrize("kind", ["p1", "p2"])
@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 3), (3, 2), (7, 5)])
def test_sparsity_pattern_equals_the_argsort_build(nx, ny, kind):
    space = FunctionSpace(build_rect_mesh((0.0, 0.0, float(nx), float(ny)), nx, ny), kind)
    pattern = space.pattern
    for got, want in zip((pattern.indptr, pattern.indices, pattern.entries),
                         argsort_pattern(space.element_dofs, space.n_dofs)):
        assert got.shape == want.shape
        assert got.dtype == pattern.indices.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "mesh", [build_rect_mesh((0.0, 0.0, 1.0, 0.75), 4, 3), sheared_mesh(4)], ids=["square", "sheared"]
)
def test_p2_node_coords_are_vertex_averages(mesh):
    # Each local P2 node of each triangle: a vertex, or the mean of the two ends of its edge.
    p2 = FunctionSpace.p2(mesh)
    v = mesh.vertices[mesh.triangles]
    want = np.concatenate([v, 0.5 * (v[:, [1, 2, 0]] + v[:, [2, 0, 1]])], axis=1)
    np.testing.assert_array_equal(p2.node_coords[p2.element_dofs], want)
    assert np.unique(p2.element_dofs).size == p2.n_dofs


def test_transport_kernels_reject_p2_spaces():
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 3, 3)
    p2 = FunctionSpace.p2(mesh)
    u = FieldVector(p2, np.ones((2, p2.n_dofs)))
    with pytest.raises(ValueError, match="P1"):
        assemble_convection(u, p2)
    with pytest.raises(ValueError, match="P1"):
        assemble_drift(FieldVector(p2, np.ones(p2.n_dofs)))


def test_div_coupling_on_linear_fields():
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 5, 5)
    pres = FunctionSpace.p1(mesh)
    vel = FunctionSpace.p2(mesh)
    b = assemble_div_coupling(vel, pres)
    m1 = assemble_mass(pres)
    ones = np.ones(pres.n_dofs)

    expanding = interpolate(vel, lambda x, y, t: np.stack([x, y]), 0.0)
    np.testing.assert_allclose(b @ expanding.values.ravel(), 2.0 * (m1 @ ones), atol=1e-13)

    rotating = interpolate(vel, lambda x, y, t: np.stack([-y, x]), 0.0)
    np.testing.assert_allclose(b @ rotating.values.ravel(), 0.0, atol=1e-13)


def test_load_vector_integrates_constants():
    mesh = build_rect_mesh((0.0, 0.0, 2.0, 2.0), 4, 4)
    p1 = FunctionSpace.p1(mesh)
    load = assemble_load(p1, lambda x, y, t: np.ones_like(x) * (1.0 + t), 1.0)
    assert load.values.sum() == pytest.approx(8.0, rel=1e-14)  # 2 * area


def test_quadrature_integral_of_interpolant():
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 8, 8)
    p2 = FunctionSpace.p2(mesh)
    field = interpolate(p2, lambda x, y, t: 6.0 * x * y, 0.0)
    samples = field_at_quadrature(field)
    assert quadrature_integral(p2, samples) == pytest.approx(1.5, rel=1e-13)


def test_interpolate_rejects_wrong_shape():
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 2, 2)
    p2 = FunctionSpace.p2(mesh)
    with pytest.raises(ValueError):
        interpolate(p2, lambda x, y, t: np.stack([x, y, x + y]), 0.0)
    with pytest.raises(ValueError):
        interpolate(p2, lambda x, y, t: np.stack([x[:-1], y[:-1]]), 0.0)


def test_dirichlet_elimination_pins_values_and_keeps_symmetry():
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 8, 8)
    p2 = FunctionSpace.p2(mesh)
    a = assemble_stiffness(p2)
    bdofs = p2.boundary_dofs()
    g = np.zeros(p2.n_dofs)
    g[bdofs] = 1.0 + p2.node_coords[bdofs, 0]

    system = DirichletSystem(a, bdofs)
    rhs = system.reduce_rhs(np.zeros(p2.n_dofs), g[bdofs])
    x, report = cg(system.matrix, rhs, tol=1e-12)
    assert report.converged
    np.testing.assert_allclose(x[bdofs], g[bdofs], atol=1e-12)

    diff = (system.matrix - system.matrix.T).tocoo()
    if diff.nnz:
        assert np.abs(diff.data).max() < 1e-14

    # The rows of a (2, n) load reduce row by row, returned as (2, n).
    load = np.arange(2 * p2.n_dofs, dtype=float).reshape(2, -1)
    values = np.stack([g[bdofs], -2.0 * g[bdofs]])
    stacked = system.reduce_rhs(load, values)
    assert stacked.shape == load.shape
    np.testing.assert_array_equal(stacked[0], system.reduce_rhs(load[0], g[bdofs]))
    np.testing.assert_array_equal(stacked[1], system.reduce_rhs(load[1], -2.0 * g[bdofs]))


def test_dirichlet_elimination_equals_projected_matrix():
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 8, 8)
    p2 = FunctionSpace.p2(mesh)
    a = (assemble_mass(p2) / 0.05 + assemble_stiffness(p2)).tocsr()
    bdofs = p2.boundary_dofs()
    keep = np.ones(p2.n_dofs)
    keep[bdofs] = 0.0
    want = (diags(keep) @ a @ diags(keep) + diags(1.0 - keep)).tocsr()
    want.sort_indices()

    system = DirichletSystem(a, bdofs)
    np.testing.assert_array_equal(system.matrix.indptr, want.indptr)
    np.testing.assert_array_equal(system.matrix.indices, want.indices)
    np.testing.assert_array_equal(system.matrix.data, want.data)
    assert np.all(system.matrix.data != 0.0)

    # A (2, nb) nonzero lift against the dense formula b - A[:, dofs] g.
    rng = np.random.default_rng(7)
    load = rng.standard_normal((2, p2.n_dofs))
    values = rng.standard_normal((2, bdofs.size))
    want_rhs = load - values @ a.toarray()[:, bdofs].T
    want_rhs[:, bdofs] = values
    got = system.reduce_rhs(load, values)
    assert got.shape == load.shape
    np.testing.assert_allclose(got, want_rhs, rtol=1e-13, atol=1e-13 * np.abs(a.data).max())


@pytest.mark.parametrize("nx", [8, 40])
@pytest.mark.parametrize("kind", ["mass", "helmholtz"])
def test_dirichlet_system_keeps_only_the_eliminated_matrix_and_a_slim_lift(nx, kind):
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), nx, nx)
    p2 = FunctionSpace.p2(mesh)
    matrix = assemble_mass(p2)
    if kind == "helmholtz":
        matrix = p2.pattern.matrix(matrix.data / 0.05 + assemble_stiffness(p2).data)
    bdofs = p2.boundary_dofs()
    inner = np.setdiff1d(np.arange(p2.n_dofs), bdofs)
    g = np.random.default_rng(nx).standard_normal(bdofs.size)
    want = matrix.tocsc()[:, bdofs] @ g

    given = weakref.ref(matrix)
    system = DirichletSystem(matrix, bdofs)
    del matrix
    gc.collect()
    assert given() is None  # the matrix given is not kept
    # On the free rows the lift is the column slice of the matrix, bit for bit.
    np.testing.assert_array_equal(-system.reduce_rhs(np.zeros(p2.n_dofs), g)[inner], want[inner])


def test_field_vector_validates_length():
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 2, 2)
    p1 = FunctionSpace.p1(mesh)
    with pytest.raises(ValueError):
        FieldVector(p1, np.zeros(p1.n_dofs + 1))


def test_vector_kernels_equal_scalar_kernels_on_each_row():
    # One code path: a (2, n) field gives the two scalar results, stacked.
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 5, 5)
    p2 = FunctionSpace.p2(mesh)
    rows = (
        lambda x, y, t: np.sin(np.pi * x) * np.cos(y) + t,
        lambda x, y, t: x * x * y - np.exp(y) * t,
    )

    def stacked(*fs):
        return lambda x, y, t: np.stack([f(x, y, t) for f in fs])

    def close(got, want):
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-14 * scale

    t = 0.3
    field = interpolate(p2, stacked(*rows), t)
    scalars = [interpolate(p2, f, t) for f in rows]
    assert field.values.shape == (2, p2.n_dofs)
    close(field.values, np.stack([s.values for s in scalars]))

    values_q = field_at_quadrature(field)
    close(values_q, np.stack([field_at_quadrature(s) for s in scalars], axis=-1))
    close(
        gradient_at_quadrature(field),
        np.stack([gradient_at_quadrature(s) for s in scalars], axis=-2),
    )
    close(
        load_from_quadrature(p2, values_q),
        np.stack([load_from_quadrature(p2, values_q[..., c]) for c in range(2)]),
    )
    close(
        assemble_load(p2, stacked(*rows), t).values,
        np.stack([assemble_load(p2, f, t).values for f in rows]),
    )

    # Against exact fields other than the interpolated ones, so the errors are not zero.
    exact = stacked(lambda x, y, t: np.cos(x + y), lambda x, y, t: x * y * y)
    exact_grad = lambda x, y, t: np.stack(  # noqa: E731
        [np.stack([-np.sin(x + y), -np.sin(x + y)]), np.stack([y * y, 2 * x * y])]
    )
    per_row = np.array(
        [
            error_norms(
                scalars[c],
                lambda x, y, t, c=c: exact(x, y, t)[c],
                lambda x, y, t, c=c: exact_grad(x, y, t)[c],
                t,
            )
            for c in range(2)
        ]
    )
    close(np.array(error_norms(field, exact, exact_grad, t)), np.sqrt((per_row**2).sum(axis=0)))
