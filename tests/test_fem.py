"""Element-level oracles, quadrature exactness, assembly identities, norms."""

from __future__ import annotations

import math

import numpy as np
import pytest

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
    error_norms,
    field_at_quadrature,
    gradient_at_quadrature,
    interpolate,
    load_from_quadrature,
    p1_to_p2_prolongation,
    quadrature_integral,
    shape_eval,
    tri_quadrature_degree5,
)
from nspnp.mesh import StructuredTriMesh, build_rect_mesh
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
    """Single-triangle mesh equal to the reference element itself."""
    return StructuredTriMesh(
        nx=1,
        ny=1,
        bounds=(0.0, 0.0, 1.0, 1.0),
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        edges=np.array([[0, 1], [0, 2], [1, 2]]),
        triangle_edges=np.array([[2, 1, 0]]),
        vertex_on_boundary=np.array([True, True, True]),
        edge_on_boundary=np.array([True, True, True]),
        h=1.0,
    )


def element_matrix(space: FunctionSpace, kind: str) -> np.ndarray:
    """Element integral of products of basis values or gradients, triangle 0."""
    if kind == "mass":
        return np.einsum(
            "q,qi,qj->ij", space.w_area[0], space.basis_values, space.basis_values
        )
    grads = space.basis_gradients[0]  # (q, nloc, 2)
    return np.einsum("q,qid,qjd->ij", space.w_area[0], grads, grads)


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

    # The rows of a (2, n) load reduce copy by copy, returned one after the other.
    load = np.arange(2 * p2.n_dofs, dtype=float).reshape(2, -1)
    values = np.stack([g[bdofs], -2.0 * g[bdofs]])
    stacked = system.reduce_rhs(load, values)
    np.testing.assert_array_equal(stacked[: p2.n_dofs], system.reduce_rhs(load[0], g[bdofs]))
    np.testing.assert_array_equal(stacked[p2.n_dofs :], system.reduce_rhs(load[1], -2.0 * g[bdofs]))


def test_prolongation_reproduces_linear_functions():
    mesh = build_rect_mesh((-1.0, 0.0, 2.0, 3.0), 5, 5)
    p1 = FunctionSpace.p1(mesh)
    p2 = FunctionSpace.p2(mesh)
    linear = lambda x, y, t: 0.3 - 1.7 * x + 2.9 * y  # noqa: E731
    full = p1_to_p2_prolongation(mesh)
    assert full.shape == (p2.n_dofs, p1.n_dofs)
    # Exact up to the rounding of the midpoint coordinates and the 1/2 weights.
    np.testing.assert_allclose(
        full @ interpolate(p1, linear, 0.0).values, interpolate(p2, linear, 0.0).values, atol=1e-14
    )


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
