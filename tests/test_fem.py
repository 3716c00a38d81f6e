"""Element-level oracles, quadrature exactness, assembly identities, norms."""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import coo_matrix, hstack

from nspnp.fem import (
    FieldVector,
    FunctionSpace,
    SparsityPattern,
    assemble_convection,
    assemble_div_coupling,
    assemble_drift,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
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


def by_triangle(values: np.ndarray) -> np.ndarray:
    """Values (..., K, q, t_k) in the oracles' layout (t, q, ...): triangle t is number t // K of kind t % K."""
    per_cell = np.moveaxis(values, (-1, -3, -2), (0, 1, 2))  # (t_k, K, q, ...)
    return per_cell.reshape((-1,) + per_cell.shape[2:])


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

    zero = FieldVector(space, np.zeros(space.n_dofs))
    l2, h1s, h1 = error_norms(zero, f, grad_f, 0.0)
    assert l2 == pytest.approx(0.5, rel=1e-10)
    assert h1s == pytest.approx(np.pi / np.sqrt(2.0), rel=1e-10)
    assert h1 == pytest.approx(np.hypot(0.5, np.pi / np.sqrt(2.0)), rel=1e-10)


def test_error_norms_rejects_an_evaluator_of_the_wrong_shape():
    # Component axes lead, so a scalar evaluator would broadcast over a vector's components:
    # every evaluator must return exactly the shape of the field's values at the points.
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 4, 4)
    p1, p2 = FunctionSpace.p1(mesh), FunctionSpace.p2(mesh)
    u = FieldVector(p2, np.zeros((2, p2.n_dofs)))
    c = FieldVector(p1, np.zeros(p1.n_dofs))

    def scalar(x, y, t):
        return x

    def scalar_grad(x, y, t):
        return np.stack([np.ones_like(x), np.zeros_like(x)])

    def vector(x, y, t):
        return np.stack([x, y])

    def vector_grad(x, y, t):
        return np.stack([scalar_grad(x, y, t)] * 2)

    # The third is a vector field whose value evaluator is right and whose gradient evaluator is not.
    for field, exact, exact_grad in ((u, scalar, scalar_grad), (c, vector, vector_grad), (u, vector, scalar_grad)):
        with pytest.raises(ValueError):
            error_norms(field, exact, exact_grad, 0.0)


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
        (assemble_convection(u, p1), -_quadrature_oracle(p1, by_triangle(field_at_quadrature(u)))),
        (assemble_drift(phi), _quadrature_oracle(p1, by_triangle(gradient_at_quadrature(phi)))),
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

    close(by_triangle(gradient_at_quadrature(u)), np.einsum("tqid,cti->tqcd", g2, u_e))
    close(by_triangle(gradient_at_quadrature(phi)), np.einsum("tqid,ti->tqd", g1, phi.values[p1.element_dofs]))
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


def test_function_space_rejects_a_clockwise_mesh():
    # Every triangle's last two vertices swapped: each kind is still a set of translates, but clockwise.
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 4, 4)
    clockwise = dataclasses.replace(mesh, triangles=mesh.triangles[:, [0, 2, 1]])
    for kind in ("p1", "p2"):
        with pytest.raises(ValueError, match="non-counterclockwise"):
            FunctionSpace(clockwise, kind)


def test_p1_and_p2_spaces_share_quadrature_points():
    # Analytic data is evaluated once per step on the P1 points and loaded on both spaces.
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 0.75), 4, 3)
    assert np.array_equal(FunctionSpace.p1(mesh).quad_xy, FunctionSpace.p2(mesh).quad_xy)
    # Laid out like the kernels' values, (2, K, q, t_k), as every evaluator sees them.
    assert FunctionSpace.p1(mesh).quad_xy.shape == (2, 2, 7, mesh.n_triangles // 2)


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


# Meshes of more than three rows of cells: the pattern and the matrices of one element matrix per kind
# are built on a strip of three rows and extended by translates.
TRANSLATED_MESHES = [(2, 4), (4, 7), (9, 6), (16, 16)]


@pytest.mark.parametrize("kind", ["p1", "p2"])
@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 3), (3, 2), (7, 5)] + TRANSLATED_MESHES)
def test_sparsity_pattern_equals_the_argsort_build(nx, ny, kind):
    space = FunctionSpace(build_rect_mesh((0.0, 0.0, float(nx), float(ny)), nx, ny), kind)
    pattern = space.pattern
    for got, want in zip((pattern.indptr, pattern.indices, pattern.entries),
                         argsort_pattern(space.element_dofs, space.n_dofs)):
        assert got.shape == want.shape
        assert got.dtype == pattern.indices.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "mesh",
    [build_rect_mesh((0.0, 0.0, float(nx), float(ny)), nx, ny) for nx, ny in TRANSLATED_MESHES] + [sheared_mesh(6)],
    ids=[f"{nx}x{ny}" for nx, ny in TRANSLATED_MESHES] + ["sheared6"],
)
def test_one_matrix_per_kind_equals_the_full_scatter(mesh, monkeypatch):
    # Each (K, r, nloc, 1) assembly, scattered again with its element matrices repeated for every
    # triangle, (K, r, nloc, t_k), which sums every triangle into csr.data: the same data bit for bit.
    # So is B, which copies its period the same way, against every triangle scattered into its slots.
    assemble = SparsityPattern.assemble
    calls = []

    def recording(pattern, element_matrices):
        calls.append((pattern, element_matrices, assemble(pattern, element_matrices)))
        return calls[-1][-1]

    monkeypatch.setattr(SparsityPattern, "assemble", recording)
    p1, p2 = FunctionSpace.p1(mesh), FunctionSpace.p2(mesh)
    for space in (p1, p2):
        assemble_mass(space)
        assemble_stiffness(space)
    b = assemble_div_coupling(p2, p1)
    assert len(calls) == 4  # B has its own slots
    for pattern, element_matrices, matrix in calls:
        assert element_matrices.shape[-1] == 1
        each = np.broadcast_to(element_matrices, element_matrices.shape[:-1] + (mesh.nx * mesh.ny,))
        np.testing.assert_array_equal(matrix.data.view(np.int64), assemble(pattern, each).data.view(np.int64))
    # B: every triangle's entries, in triangle order, into the slots of B's own (row, column) keys.
    elem = np.einsum("k,q,qi,kdqj->kdij", p2.kind_area, p2.rule.weights, p1.basis_values, p2.tables[:, 1:])
    elem = np.tile(elem, (mesh.nx * mesh.ny, 1, 1, 1))  # (t, 2, 3, 6), triangle t of kind t % 2
    columns = p2.element_dofs[:, None, None, :] + p2.n_dofs * np.arange(2)[:, None, None]
    keys = p1.element_dofs[:, None, :, None] * b.shape[1] + columns  # (t, 2, 3, 6)
    slot_keys = np.repeat(np.arange(b.shape[0]), np.diff(b.indptr)) * b.shape[1] + b.indices
    slots = np.searchsorted(slot_keys, keys)
    np.testing.assert_array_equal(slot_keys[slots], keys)
    data = np.bincount(slots.ravel(), weights=elem.ravel(), minlength=b.nnz)
    np.testing.assert_array_equal(b.data.view(np.int64), data.view(np.int64))


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


def full_pattern_div_coupling(vel: FunctionSpace, pres: FunctionSpace):
    """B as two P2-pattern assemblies of a component each, their vertex rows stacked side by side."""
    elem = np.einsum("k,q,qi,kdqj->dkij", vel.kind_area, vel.rule.weights, pres.basis_values, vel.tables[:, 1:])
    rows = np.arange(vel.n_dofs).reshape(vel.lattice_shape)[::2, ::2].ravel()
    return hstack([vel.pattern.assemble(e[..., None])[rows] for e in elem], format="csr")


# Square, rectangular, one to three rows of cells, translated (more than three rows) and sheared.
ORACLE_MESHES = [build_rect_mesh((0.0, 0.0, float(nx), float(ny)), nx, ny)
                 for nx, ny in [(1, 1), (4, 4), (2, 1), (5, 1), (1, 2), (3, 2), (4, 3), (1, 3), (5, 4), (3, 7), (9, 6)]]
ORACLE_MESHES += [build_rect_mesh((0.0, 0.0, 1.0, 0.75), 4, 3), sheared_mesh(6)]
ORACLE_IDS = [f"{m.nx}x{m.ny}" for m in ORACLE_MESHES[:-2]] + ["4x3-unit", "sheared6"]


@pytest.mark.parametrize("mesh", ORACLE_MESHES, ids=ORACLE_IDS)
def test_div_coupling_equals_the_full_pattern_construction(mesh):
    p1, p2 = FunctionSpace.p1(mesh), FunctionSpace.p2(mesh)
    got, want = assemble_div_coupling(p2, p1), full_pattern_div_coupling(p2, p1)
    assert got.shape == want.shape
    for name in ("indptr", "indices"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    np.testing.assert_array_equal(got.data.view(np.int64), want.data.view(np.int64))


@pytest.mark.parametrize("mesh", ORACLE_MESHES, ids=ORACLE_IDS)
def test_quadrature_points_equal_the_batched_matmul(mesh):
    # One (q, 3) x (3, t_k) GEMM per kind and coordinate against a (q, 3) x (3, 2) product per triangle.
    verts = mesh.vertices[mesh.triangles.reshape(-1, min(2, mesh.n_triangles), 3)]  # (t_k, K, 3, 2)
    rule = tri_quadrature_degree5()
    want = np.ascontiguousarray((rule.points @ verts).transpose(3, 1, 2, 0))
    got = FunctionSpace.p1(mesh).quad_xy
    assert got.shape == want.shape and got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


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
    close(values_q, np.stack([field_at_quadrature(s) for s in scalars]))
    close(gradient_at_quadrature(field), np.stack([gradient_at_quadrature(s) for s in scalars]))
    close(load_from_quadrature(p2, values_q), np.stack([load_from_quadrature(p2, v) for v in values_q]))
    # An evaluator's values on quad_xy are already in the layout of the load.
    for f in (*rows, stacked(*rows)):
        want = load_from_quadrature(p2, f(*p2.quad_xy, t))
        np.testing.assert_array_equal(assemble_load(p2, f, t).values, want)
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
