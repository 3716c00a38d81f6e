"""Manufactured cases: exact-field identities, sources, convergence plumbing."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from nspnp.mms import (
    ERROR_FIELDS,
    case_by_name,
    convergence_study,
    example1,
    example2,
    example3,
    exact_eval,
    run_case,
)
from nspnp.scheme import SchemeParams


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


def sample_points(case, rng, n=50):
    ax, ay, bx, by = case.bounds
    x = rng.uniform(ax, bx, size=n)
    y = rng.uniform(ay, by, size=n)
    t = rng.uniform(0.05, 1.0, size=n)
    return x, y, t


def test_case_lookup():
    for name in ("example1", "example2", "example3"):
        assert case_by_name(name).name == name
    with pytest.raises(ValueError):
        case_by_name("example9")


def test_case_defaults_match_published_settings():
    ex1 = example1()
    assert ex1.bounds == (-1.0, -1.0, 1.0, 1.0)
    assert (ex1.bounds[2] - ex1.bounds[0]) / ex1.nx == pytest.approx(0.05)
    assert ex1.c0 == 10.0 and ex1.t_final == 1.0
    assert ex1.taus == (1 / 10, 1 / 20, 1 / 40, 1 / 80)

    ex2 = example2()
    assert (ex2.bounds[2] - ex2.bounds[0]) / ex2.nx == pytest.approx(0.025)
    assert ex2.t_final == 0.1
    assert ex2.taus == (1 / 100, 1 / 200, 1 / 400, 1 / 800)

    ex3 = example3()
    assert ex3.bounds == (0.0, 0.0, 1.0, 1.0)
    assert (ex3.bounds[2] - ex3.bounds[0]) / ex3.nx == pytest.approx(0.01)
    assert ex3.c0 == 5.0
    assert ex3.exact is None and ex3.velocity_bc is None and ex3.sources is None


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_exact_velocity_is_divergence_free(name, rng):
    case = case_by_name(name)
    x, y, t = sample_points(case, rng)
    grad = exact_eval(case, "u", x, y, t, grad=True)
    divergence = grad[0, 0] + grad[1, 1]
    assert np.abs(divergence).max() < 1e-12


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_poisson_identity_between_exact_fields(name, rng):
    # The manufactured potential is a Laplace eigenfunction, so the charge
    # equation -lap(phi) = c1 - c2 reduces to 2 pi^2 phi = c1 - c2 exactly.
    case = case_by_name(name)
    x, y, t = sample_points(case, rng)
    phi = exact_eval(case, "phi", x, y, t)
    c1 = exact_eval(case, "c1", x, y, t)
    c2 = exact_eval(case, "c2", x, y, t)
    np.testing.assert_allclose(2.0 * np.pi**2 * phi, c1 - c2, atol=1e-12)


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_exact_velocity_trace_is_tangential(name, rng):
    case = case_by_name(name)
    ax, ay, bx, by = case.bounds
    s = rng.uniform(ay, by, size=40)
    t = np.full_like(s, 0.7)
    for x_edge in (ax, bx):
        u = exact_eval(case, "u", np.full_like(s, x_edge), s, t)
        assert np.abs(u[0]).max() < 1e-12  # normal component on x = const
    for y_edge in (ay, by):
        u = exact_eval(case, "u", s, np.full_like(s, y_edge), t)
        assert np.abs(u[1]).max() < 1e-12


def test_example1_concentration_source_at_time_zero(rng):
    # At t = 0 every sin(t) factor vanishes, so the first concentration
    # source collapses to its time-derivative part 3 cos(pi x) cos(pi y).
    case = example1()
    x, y, _ = sample_points(case, rng)
    f1, f2, fu = case.sources(x, y, np.zeros_like(x))
    np.testing.assert_allclose(f1, 3.0 * np.cos(np.pi * x) * np.cos(np.pi * y), atol=1e-13)
    np.testing.assert_allclose(f2, np.cos(np.pi * x) * np.cos(np.pi * y), atol=1e-13)
    np.testing.assert_allclose(fu, np.stack([
        np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
        -np.sin(2 * np.pi * y) * np.cos(2 * np.pi * x),
    ]), atol=1e-13)


# Exact values, gradients and sources of the published cases at three fixed
# (x, y, t), as the earlier hand-written per-case formulas gave them.  The
# finite-difference check only shows that a family is self-consistent; these
# pin its parameters (b_1, m, s, q) to the published ones.
PUBLISHED_POINTS = (
    np.array([-0.15, 0.81, -0.55]),
    np.array([0.62, 0.27, -0.33]),
    np.array([0.9, 0.2, 0.65]),
)
PUBLISHED_VALUES = {
    "example1": {
        "c1": [-0.7707969177134208, -0.32599145711908734, -0.14457592449764417],
        "grad_c1": [[-1.2338311281355687, -0.6959996377787784, 2.8676974919826668],
                    [-6.116086460898231, 1.1616501463213904, -0.7680079953096702]],
        "c2": [-0.2569323059044736, -0.10866381903969576, -0.048191974832548064],
        "grad_c2": [[-0.4112770427118562, -0.23199987925959276, 0.9558991639942223],
                    [-2.038695486966077, 0.38721671544046343, -0.2560026651032234]],
        "phi": [-0.026032685350196476, -0.011009946764198773, -0.004882867932095523],
        "grad_phi": [[-0.041671076772485584, -0.02350650237146139, 0.09685283473861575],
                     [-0.20656303982569515, 0.03923325593452605, -0.025938493043851596]],
        "u": [[0.46196548452651737, 0.02315131329165442, -0.0900941440374201],
              [0.31518465845014637, -0.07255836675019545, -0.504372746631411]],
        "grad_u": [[[-2.1088730545134355, -0.05759326851271223, 1.7422095632918082],
                    [-2.7257366756757335, 1.1514660588478156, 1.0296924270144152]],
                   [[2.7257366756757335, -1.1514660588478154, -1.0296924270144152],
                    [2.1088730545134355, 0.057593268512712216, -1.7422095632918082]]],
        "p": [0.4338144655006634, -0.18326151506817312, -0.16388063962363483],
        "grad_p": [[-1.980363615022376, 0.45589766387777586, 3.1690674309762934],
                   [2.902614744801112, 0.1454639915160345, -0.5660782020788393]],
        "f_c1": [-19.242959322749, -8.134469410127394, -3.198725944301289],
        "f_c2": [-5.801861624942737, -2.7174305492269726, -0.8770881129766053],
        "f_u": [[33.049638605469774, 2.318287862592016, -4.748640841468748],
                [30.068739163605688, -5.980819971509586, -40.07923161983538]],
    },
    "example2": {
        "c1": [0.8987380108323856, 1.0784118317897482, 1.0708348719657685],
        "grad_c1": [[-0.3221643748682088, -0.046091260757038295, 0.5784971793037484],
                    [-1.5969650354766345, 0.07692808572921851, -0.15492933275266682]],
        "c2": [1.3012619891676145, 1.121588168210252, 1.1291651280342316],
        "grad_c2": [[0.3221643748682088, 0.046091260757038295, -0.5784971793037484],
                    [1.5969650354766345, -0.07692808572921851, 0.15492933275266682]],
        "phi": [-0.02039210296467406, -0.00218733875573262, -0.0029550452935086574],
        "grad_phi": [[-0.032642075789040735, -0.004670021095470754, 0.0586140189408095],
                     [-0.16180638762992056, 0.007794444701423653, -0.015697623375417812]],
        "u": [[1.1368481189421107, 0.014449616924634518, -0.17129141624080613],
              [0.7756360552470943, -0.04528644189681473, -0.9589382640438437]],
        "grad_u": [[[-5.189713182941668, -0.03594615376512132, 3.3123744797506576],
                    [-6.707749206955327, 0.7186738498358688, 1.9577018684197127]],
                   [[6.707749206955327, -0.7186738498358688, -1.957701868419713],
                    [5.189713182941669, 0.03594615376512132, -3.3123744797506576]]],
        "p": [0.3398185446123332, -0.036408442559082974, -0.09917833526355076],
        "grad_p": [[-1.5512721104941891, 0.09057288379362947, 1.9178765280876875],
                   [2.2736962378842214, 0.028899233849269037, -0.34258283248161225]],
        "f_c1": [-6.527770274311148, -0.6906554457470931, -0.7017523277425324],
        "f_c2": [6.15196531244049, 0.6908899240332796, 0.6324746126350029],
        "f_u": [[78.92540314743506, 1.3411693472120385, -14.50551279979997],
                [76.46262987807734, -4.0059339302635, -75.06754075474693]],
    },
}


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_published_cases_match_their_closed_forms(name):
    case = case_by_name(name)
    x, y, t = PUBLISHED_POINTS
    got = {}
    for field in ERROR_FIELDS:
        got[field] = exact_eval(case, field, x, y, t)
        got[f"grad_{field}"] = exact_eval(case, field, x, y, t, grad=True)
    got["f_c1"], got["f_c2"], got["f_u"] = case.sources(x, y, t)
    assert set(got) == set(PUBLISHED_VALUES[name])
    for key, want in PUBLISHED_VALUES[name].items():
        np.testing.assert_allclose(got[key], want, rtol=1e-13, atol=0.0, err_msg=key)


def test_exact_eval_validates_field_and_gradients(rng):
    case = example1()
    with pytest.raises(ValueError):
        exact_eval(case, "vorticity", 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        exact_eval(example3(), "c1", 0.0, 0.0, 0.0)
    # Gradient closures agree with central differences of the values.
    x, y, t = sample_points(case, rng, n=10)
    step = 1e-6
    for field in ("c1", "phi", "p"):
        grad = exact_eval(case, field, x, y, t, grad=True)
        fd_x = (
            exact_eval(case, field, x + step, y, t)
            - exact_eval(case, field, x - step, y, t)
        ) / (2 * step)
        np.testing.assert_allclose(grad[0], fd_x, rtol=0.0, atol=1e-8)


def test_run_case_returns_trace_and_report():
    case = dataclasses.replace(example1(), nx=8)
    params = SchemeParams(tau=0.1, t_final=0.2, c0=10.0)
    state, records, report = run_case(case, params)
    assert len(records) == 3  # initial snapshot plus two steps
    assert state.time == pytest.approx(0.2)
    assert report is not None
    assert set(report.errors) == set(ERROR_FIELDS)
    for l2, h1s, h1 in report.errors.values():
        assert 0 < l2 < 10 and h1 >= h1s >= 0


def test_run_case_without_exact_solution_has_no_report():
    case = dataclasses.replace(example3(), nx=8)
    params = SchemeParams(tau=0.1, t_final=0.2, c0=5.0)
    _, records, report = run_case(case, params)
    assert report is None
    assert len(records) == 3


def test_convergence_study_rates_and_columns():
    case = dataclasses.replace(example1(), nx=8)
    params = SchemeParams(tau=0.1, t_final=0.2, c0=10.0)
    rows = convergence_study(case, params, [0.1, 0.05])
    assert len(rows) == 2
    assert rows[0]["rate_c1_L2"] is None
    for field in ("c1", "c2", "phi", "u"):
        assert f"e_{field}_L2" in rows[0] and f"e_{field}_H1" in rows[0]
    assert "e_p_L2" in rows[0] and "rate_p_L2" in rows[1]
    assert "e_p_H1" not in rows[0]
    expected = np.log(rows[0]["e_c1_L2"] / rows[1]["e_c1_L2"]) / np.log(2.0)
    assert rows[1]["rate_c1_L2"] == pytest.approx(expected)


def test_convergence_study_rejects_empty_and_exactless():
    case = dataclasses.replace(example1(), nx=8)
    params = SchemeParams(tau=0.1, t_final=0.2, c0=10.0)
    with pytest.raises(ValueError):
        convergence_study(case, params, [])
    with pytest.raises(ValueError):
        convergence_study(dataclasses.replace(example3(), nx=8), params, [0.1])
