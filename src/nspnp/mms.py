"""Benchmark cases: two manufactured solutions and one decay problem.

The manufactured cases (example1, example2) prescribe smooth exact fields and
carry the source terms that make them solve the coupled system exactly; the
sources were derived by hand from the strong residuals

    f_ci = dt c_i + u . grad c_i - lap c_i -+ div(c_i grad phi)
    f_u  = dt u + (u . grad) u - lap u + grad p + (c1 - c2) grad phi

and are cross-checked against finite differences of the exact fields in the
test suite (two independent routes to the same object).  The potential
equation -lap phi = c1 - c2 is satisfied identically, so it needs no source.

Both manufactured velocities are tangential to the boundary (u . n = 0) but
not zero there, so runs impose the exact trace as Dirichlet data; the decay
case (example3) is a genuine no-slip problem with no sources, used for the
structure-preservation diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fem import error_norms
from .mesh import build_rect_mesh
from .scheme import Operators, SchemeParams, SourceTerms, advance, init_state, initial_record

__all__ = [
    "ManufacturedCase",
    "ErrorReport",
    "example1",
    "example2",
    "example3",
    "case_by_name",
    "exact_eval",
    "source_eval",
    "run_case",
    "convergence_study",
]

ERROR_FIELDS = ("c1", "c2", "phi", "u", "p")


@dataclass(frozen=True)
class ManufacturedCase:
    """A benchmark configuration: domain, defaults, data, and optional truth."""

    name: str
    bounds: tuple[float, float, float, float]
    nx: int
    c0: float
    t_final: float
    taus: tuple[float, ...]
    c1_0: Callable
    c2_0: Callable
    u_0: Callable
    p_0: Callable
    sources: SourceTerms
    velocity_bc: Callable | None
    # field name -> (value evaluator, gradient evaluator); None when the case
    # has no closed-form solution.
    exact: dict | None


@dataclass(frozen=True)
class ErrorReport:
    """Errors against the exact solution at the final time."""

    case: str
    tau: float
    h: float
    time: float
    # field -> (L2, H1 seminorm, H1)
    errors: dict


def _trig(x, y):
    pi = np.pi
    return {
        "cx": np.cos(pi * x),
        "cy": np.cos(pi * y),
        "sx": np.sin(pi * x),
        "sy": np.sin(pi * y),
        "s2x": np.sin(2 * pi * x),
        "c2x": np.cos(2 * pi * x),
        "s2y": np.sin(2 * pi * y),
        "c2y": np.cos(2 * pi * y),
    }


def example1() -> ManufacturedCase:
    """Oscillating manufactured solution on (-1, 1)^2 with unit-amplitude velocity."""
    pi = np.pi

    def c1(x, y, t):
        g = _trig(x, y)
        return 3 * g["cx"] * g["cy"] * np.sin(t)

    def grad_c1(x, y, t):
        g = _trig(x, y)
        return np.array([
            -3 * pi * g["sx"] * g["cy"] * np.sin(t),
            -3 * pi * g["cx"] * g["sy"] * np.sin(t),
        ])

    def c2(x, y, t):
        g = _trig(x, y)
        return g["cx"] * g["cy"] * np.sin(t)

    def grad_c2(x, y, t):
        g = _trig(x, y)
        return np.array([
            -pi * g["sx"] * g["cy"] * np.sin(t),
            -pi * g["cx"] * g["sy"] * np.sin(t),
        ])

    def phi(x, y, t):
        g = _trig(x, y)
        return g["cx"] * g["cy"] * np.sin(t) / pi**2

    def grad_phi(x, y, t):
        g = _trig(x, y)
        return np.array([
            -g["sx"] * g["cy"] * np.sin(t) / pi,
            -g["cx"] * g["sy"] * np.sin(t) / pi,
        ])

    def u(x, y, t):
        g = _trig(x, y)
        return np.array([
            g["s2x"] * g["c2y"] * np.sin(t),
            -g["s2y"] * g["c2x"] * np.sin(t),
        ])

    def grad_u(x, y, t):
        g = _trig(x, y)
        s = np.sin(t)
        return np.array([
            [2 * pi * g["c2x"] * g["c2y"] * s, -2 * pi * g["s2x"] * g["s2y"] * s],
            [2 * pi * g["s2y"] * g["s2x"] * s, -2 * pi * g["c2y"] * g["c2x"] * s],
        ])

    def p(x, y, t):
        g = _trig(x, y)
        return g["s2x"] * g["s2y"] * np.sin(t)

    def grad_p(x, y, t):
        g = _trig(x, y)
        return np.array([
            2 * pi * g["c2x"] * g["s2y"] * np.sin(t),
            2 * pi * g["s2x"] * g["c2y"] * np.sin(t),
        ])

    def f_c1(x, y, t):
        g = _trig(x, y)
        s = np.sin(t)
        adv = g["s2x"] * g["c2y"] * g["sx"] * g["cy"] - g["s2y"] * g["c2x"] * g["cx"] * g["sy"]
        grads = g["sx"] ** 2 * g["cy"] ** 2 + g["cx"] ** 2 * g["sy"] ** 2
        return (
            3 * g["cx"] * g["cy"] * np.cos(t)
            - 3 * pi * s**2 * adv
            + 6 * pi**2 * g["cx"] * g["cy"] * s
            - 3 * s**2 * grads
            + 6 * s**2 * g["cx"] ** 2 * g["cy"] ** 2
        )

    def f_c2(x, y, t):
        g = _trig(x, y)
        s = np.sin(t)
        adv = g["s2x"] * g["c2y"] * g["sx"] * g["cy"] - g["s2y"] * g["c2x"] * g["cx"] * g["sy"]
        grads = g["sx"] ** 2 * g["cy"] ** 2 + g["cx"] ** 2 * g["sy"] ** 2
        return (
            g["cx"] * g["cy"] * np.cos(t)
            - pi * s**2 * adv
            + 2 * pi**2 * g["cx"] * g["cy"] * s
            + s**2 * grads
            - 2 * s**2 * g["cx"] ** 2 * g["cy"] ** 2
        )

    def f_u(x, y, t):
        g = _trig(x, y)
        s = np.sin(t)
        f1 = (
            g["s2x"] * g["c2y"] * np.cos(t)
            + 2 * pi * s**2 * g["s2x"] * g["c2x"]
            + 8 * pi**2 * s * g["s2x"] * g["c2y"]
            + 2 * pi * s * g["c2x"] * g["s2y"]
            - (2 * s**2 / pi) * g["sx"] * g["cx"] * g["cy"] ** 2
        )
        f2 = (
            -g["s2y"] * g["c2x"] * np.cos(t)
            + 2 * pi * s**2 * g["s2y"] * g["c2y"]
            - 8 * pi**2 * s * g["s2y"] * g["c2x"]
            + 2 * pi * s * g["s2x"] * g["c2y"]
            - (2 * s**2 / pi) * g["cx"] ** 2 * g["sy"] * g["cy"]
        )
        return np.array([f1, f2])

    return ManufacturedCase(
        name="example1",
        bounds=(-1.0, -1.0, 1.0, 1.0),
        nx=40,
        c0=10.0,
        t_final=1.0,
        taus=(1 / 10, 1 / 20, 1 / 40, 1 / 80),
        c1_0=lambda x, y, t=0.0: c1(x, y, 0.0),
        c2_0=lambda x, y, t=0.0: c2(x, y, 0.0),
        u_0=lambda x, y, t=0.0: u(x, y, 0.0),
        p_0=lambda x, y, t=0.0: p(x, y, 0.0),
        sources=SourceTerms(f_c1=f_c1, f_c2=f_c2, f_u=f_u),
        velocity_bc=u,
        exact={
            "c1": (c1, grad_c1),
            "c2": (c2, grad_c2),
            "phi": (phi, grad_phi),
            "u": (u, grad_u),
            "p": (p, grad_p),
        },
    )


def example2() -> ManufacturedCase:
    """Smooth-start variant on (-1, 1)^2: sin^2 t ramp, strictly positive ions."""
    pi = np.pi

    def q(t):
        return np.sin(t) ** 2

    def dq(t):
        return np.sin(2 * t)

    def c1(x, y, t):
        g = _trig(x, y)
        return 1.1 + g["cx"] * g["cy"] * q(t)

    def grad_c1(x, y, t):
        g = _trig(x, y)
        return np.array([
            -pi * g["sx"] * g["cy"] * q(t),
            -pi * g["cx"] * g["sy"] * q(t),
        ])

    def c2(x, y, t):
        g = _trig(x, y)
        return 1.1 - g["cx"] * g["cy"] * q(t)

    def grad_c2(x, y, t):
        g = _trig(x, y)
        return np.array([
            pi * g["sx"] * g["cy"] * q(t),
            pi * g["cx"] * g["sy"] * q(t),
        ])

    def phi(x, y, t):
        g = _trig(x, y)
        return g["cx"] * g["cy"] * q(t) / pi**2

    def grad_phi(x, y, t):
        g = _trig(x, y)
        return np.array([
            -g["sx"] * g["cy"] * q(t) / pi,
            -g["cx"] * g["sy"] * q(t) / pi,
        ])

    def u(x, y, t):
        g = _trig(x, y)
        return np.array([
            pi * g["s2x"] * g["c2y"] * q(t),
            -pi * g["s2y"] * g["c2x"] * q(t),
        ])

    def grad_u(x, y, t):
        g = _trig(x, y)
        qt = q(t)
        return np.array([
            [2 * pi**2 * g["c2x"] * g["c2y"] * qt, -2 * pi**2 * g["s2x"] * g["s2y"] * qt],
            [2 * pi**2 * g["s2y"] * g["s2x"] * qt, -2 * pi**2 * g["c2y"] * g["c2x"] * qt],
        ])

    def p(x, y, t):
        g = _trig(x, y)
        return g["s2x"] * g["s2y"] * q(t)

    def grad_p(x, y, t):
        g = _trig(x, y)
        return np.array([
            2 * pi * g["c2x"] * g["s2y"] * q(t),
            2 * pi * g["s2x"] * g["c2y"] * q(t),
        ])

    def f_c1(x, y, t):
        g = _trig(x, y)
        qt = q(t)
        adv = g["s2x"] * g["c2y"] * g["sx"] * g["cy"] - g["s2y"] * g["c2x"] * g["cx"] * g["sy"]
        grads = g["sx"] ** 2 * g["cy"] ** 2 + g["cx"] ** 2 * g["sy"] ** 2
        return (
            g["cx"] * g["cy"] * dq(t)
            - pi**2 * qt**2 * adv
            + 2 * pi**2 * g["cx"] * g["cy"] * qt
            - qt**2 * grads
            + 2.2 * g["cx"] * g["cy"] * qt
            + 2 * qt**2 * g["cx"] ** 2 * g["cy"] ** 2
        )

    def f_c2(x, y, t):
        g = _trig(x, y)
        qt = q(t)
        adv = g["s2x"] * g["c2y"] * g["sx"] * g["cy"] - g["s2y"] * g["c2x"] * g["cx"] * g["sy"]
        grads = g["sx"] ** 2 * g["cy"] ** 2 + g["cx"] ** 2 * g["sy"] ** 2
        return (
            -g["cx"] * g["cy"] * dq(t)
            + pi**2 * qt**2 * adv
            - 2 * pi**2 * g["cx"] * g["cy"] * qt
            - qt**2 * grads
            - 2.2 * g["cx"] * g["cy"] * qt
            + 2 * qt**2 * g["cx"] ** 2 * g["cy"] ** 2
        )

    def f_u(x, y, t):
        g = _trig(x, y)
        qt = q(t)
        f1 = (
            pi * g["s2x"] * g["c2y"] * dq(t)
            + 2 * pi**3 * qt**2 * g["s2x"] * g["c2x"]
            + 8 * pi**3 * qt * g["s2x"] * g["c2y"]
            + 2 * pi * qt * g["c2x"] * g["s2y"]
            - (2 * qt**2 / pi) * g["sx"] * g["cx"] * g["cy"] ** 2
        )
        f2 = (
            -pi * g["s2y"] * g["c2x"] * dq(t)
            + 2 * pi**3 * qt**2 * g["s2y"] * g["c2y"]
            - 8 * pi**3 * qt * g["s2y"] * g["c2x"]
            + 2 * pi * qt * g["s2x"] * g["c2y"]
            - (2 * qt**2 / pi) * g["cx"] ** 2 * g["sy"] * g["cy"]
        )
        return np.array([f1, f2])

    return ManufacturedCase(
        name="example2",
        bounds=(-1.0, -1.0, 1.0, 1.0),
        nx=80,
        c0=10.0,
        t_final=0.1,
        taus=(1 / 100, 1 / 200, 1 / 400, 1 / 800),
        c1_0=lambda x, y, t=0.0: c1(x, y, 0.0),
        c2_0=lambda x, y, t=0.0: c2(x, y, 0.0),
        u_0=lambda x, y, t=0.0: u(x, y, 0.0),
        p_0=lambda x, y, t=0.0: p(x, y, 0.0),
        sources=SourceTerms(f_c1=f_c1, f_c2=f_c2, f_u=f_u),
        velocity_bc=u,
        exact={
            "c1": (c1, grad_c1),
            "c2": (c2, grad_c2),
            "phi": (phi, grad_phi),
            "u": (u, grad_u),
            "p": (p, grad_p),
        },
    )


def example3() -> ManufacturedCase:
    """Source-free decay on (0, 1)^2 with no-slip walls; no exact solution.

    Orthogonal cosine ion profiles and a divergence-free initial swirl whose
    tangential trace is nonzero; the no-slip projection removes it during the
    first step, after which all monitored energies decay.
    """
    pi = np.pi

    def c1_0(x, y, t=0.0):
        return np.cos(pi * x) + 1.0

    def c2_0(x, y, t=0.0):
        return np.cos(pi * y) + 1.0

    def u_0(x, y, t=0.0):
        return np.array([
            pi * np.sin(pi * x) * np.cos(pi * y),
            -pi * np.sin(pi * y) * np.cos(pi * x),
        ])

    def p_0(x, y, t=0.0):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ManufacturedCase(
        name="example3",
        bounds=(0.0, 0.0, 1.0, 1.0),
        nx=100,
        c0=5.0,
        t_final=1.0,
        taus=(0.1, 0.05, 0.01, 0.005),
        c1_0=c1_0,
        c2_0=c2_0,
        u_0=u_0,
        p_0=p_0,
        sources=SourceTerms.none(),
        velocity_bc=None,
        exact=None,
    )


_CASES = {"example1": example1, "example2": example2, "example3": example3}


def case_by_name(name: str) -> ManufacturedCase:
    try:
        return _CASES[name]()
    except KeyError:
        raise ValueError(f"unknown case {name!r}; choose from {sorted(_CASES)}") from None


def exact_eval(case: ManufacturedCase, field: str, x, y, t, grad: bool = False):
    """Exact field (or its gradient) of a manufactured case."""
    if case.exact is None:
        raise ValueError(f"case {case.name!r} has no exact solution")
    if field not in case.exact:
        raise ValueError(f"unknown field {field!r}; choose from {sorted(case.exact)}")
    value_fn, grad_fn = case.exact[field]
    return grad_fn(x, y, t) if grad else value_fn(x, y, t)


def source_eval(case: ManufacturedCase, x, y, t):
    """(f_c1, f_c2, f_u) at the given points; zeros for source-free cases."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    zero = np.zeros(np.broadcast(x, y).shape)
    f_c1 = case.sources.f_c1(x, y, t) if case.sources.f_c1 else zero
    f_c2 = case.sources.f_c2(x, y, t) if case.sources.f_c2 else zero
    f_u = (
        case.sources.f_u(x, y, t)
        if case.sources.f_u
        else np.zeros((2,) + zero.shape)
    )
    return f_c1, f_c2, f_u


def run_case(case: ManufacturedCase, params: SchemeParams, mesh=None, ops=None):
    """Time-step one case; returns (final state, diagnostics trace, report or None).

    The diagnostics trace has one record per step plus a step-0 snapshot of
    the initial data.
    """
    if ops is None:
        if mesh is None:
            mesh = build_rect_mesh(case.bounds, case.nx, case.nx)
        ops = Operators(mesh, velocity_bc=case.velocity_bc)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)
    records = [initial_record(ops, state)]
    for _ in range(params.n_steps):
        state, record = advance(ops, state, params, case.sources)
        records.append(record)

    report = None
    if case.exact is not None:
        errors = {}
        for field in ERROR_FIELDS:
            value_fn, grad_fn = case.exact[field]
            fv = {"c1": state.c1, "c2": state.c2, "phi": state.phi, "u": state.u, "p": state.p}[field]
            errors[field] = error_norms(fv, value_fn, grad_fn, state.time)
        report = ErrorReport(
            case=case.name,
            tau=params.tau,
            h=ops.mesh.h,
            time=state.time,
            errors=errors,
        )
    return state, records, report


def convergence_study(case: ManufacturedCase, params: SchemeParams, tau_list, mesh=None, ops=None):
    """Run the case for each tau on one shared mesh; returns error-table rows.

    Each row maps column names (tau, e_<field>_<norm>, rate_<field>_<norm>)
    to floats; rates compare consecutive taus and are None in the first row.
    L2 and H1 rates are reported for c1, c2, phi, u, and the L2 rate for p.
    """
    tau_list = list(tau_list)
    if not tau_list:
        raise ValueError("tau list is empty")
    if case.exact is None:
        raise ValueError(f"case {case.name!r} has no exact solution to converge to")
    if ops is None:
        if mesh is None:
            mesh = build_rect_mesh(case.bounds, case.nx, case.nx)
        ops = Operators(mesh, velocity_bc=case.velocity_bc)
    rows = []
    previous = None
    for tau in tau_list:
        run_params = replace(params, tau=tau)
        _, _, report = run_case(case, run_params, ops=ops)
        row = {"tau": tau}
        for field in ERROR_FIELDS:
            l2, _, h1 = report.errors[field]
            norms = {"L2": l2} if field == "p" else {"L2": l2, "H1": h1}
            for norm, err in norms.items():
                row[f"e_{field}_{norm}"] = err
                rate = None
                if previous is not None:
                    rate = float(
                        np.log(previous[f"e_{field}_{norm}"] / err)
                        / np.log(previous["tau"] / tau)
                    )
                row[f"rate_{field}_{norm}"] = rate
        rows.append(row)
        previous = row
    return rows
