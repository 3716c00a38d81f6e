"""Benchmark cases: two manufactured solutions and one decay problem.

The manufactured cases are two members of one smooth family on (-1, 1)^2.
With G = cos(pi x) cos(pi y) and a time profile q(t),

    c_i = m + b_i G q,  b_2 = b_1 - 2       phi = G q / pi^2
    u   = s q (sin 2pi x cos 2pi y, -sin 2pi y cos 2pi x)
    p   = sin 2pi x sin 2pi y q

    example1: m = 0,   b_1 = 3, s = 1,  q = sin t,    q' = cos t
    example2: m = 1.1, b_1 = 1, s = pi, q = sin^2 t,  q' = sin 2t

-lap G = 2 pi^2 G, so -lap phi = 2 G q = c1 - c2 and the potential equation
needs no source.  u is divergence free and tangential to the boundary
(u . n = 0) but not zero there, so runs impose its trace as Dirichlet data.
The sources are the strong residuals (sigma_1 = +1, sigma_2 = -1)

    f_ci = dt c_i + u . grad c_i - lap c_i - sigma_i div(c_i grad phi)
    f_u  = dt u + (u . grad) u - lap u + grad p + (c1 - c2) grad phi,

derived once for the family: with u . grad G = -pi s q A, grad phi =
q grad G / pi^2 and lap phi = -2 G q, they weigh three modes by q', q, q^2,

    f_ci = q' b_i G + q (2 pi^2 b_i + 2 sigma_i m) G
           + q^2 b_i (-pi s A - sigma_i (|grad G|^2 / pi^2 - 2 G^2)),
    A    = sin 2pi x cos 2pi y sin pi x cos pi y - sin 2pi y cos 2pi x cos pi x sin pi y,

and f_u follows from -lap u = 8 pi^2 u and (u . grad) u = 2 pi s^2 q^2
(sin 2pi x cos 2pi x, sin 2pi y cos 2pi y).  A case's sources are a
SeparableSources: weights(t) = (q', q, q^2), and modes(x, y), which evaluates
the trigonometric factors once and yields the three (f_c1, f_c2, f_u) in
turn; Operators.source_loads builds their loads once per mesh.  Tests check
the sources against finite differences and the published cases against fixed
values.  The decay case (example3) is a no-slip problem with no sources
(``sources`` is None), used for the structure-preservation diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fem import error_norms
from .mesh import build_rect_mesh
from .scheme import Operators, SchemeParams, advance, init_state, initial_record

__all__ = [
    "CASES",
    "ManufacturedCase",
    "SeparableSources",
    "ErrorReport",
    "example1",
    "example2",
    "example3",
    "case_by_name",
    "exact_eval",
    "case_operators",
    "run_case",
    "convergence_study",
]

ERROR_FIELDS = ("c1", "c2", "phi", "u", "p")


@dataclass(frozen=True)
class SeparableSources:
    """Sources sum_k w_k(t) F_k(x, y): weights(t) gives the K factors w_k,
    modes(x, y) yields the K triples F_k = (f_c1, f_c2, f_u) one at a time."""

    weights: Callable
    modes: Callable

    def __call__(self, x, y, t):
        """(f_c1, f_c2, f_u) at the points (x, y) and the times t, a scalar or an array."""
        terms = [[w * f for f in mode] for w, mode in zip(self.weights(t), self.modes(x, y))]
        return tuple(sum(column) for column in zip(*terms))


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
    # None for a source-free case.
    sources: SeparableSources | None
    velocity_bc: Callable | None
    # field name -> (value evaluator, gradient evaluator); None when the case
    # has no closed-form solution.
    exact: dict | None


@dataclass(frozen=True)
class ErrorReport:
    """Errors against the exact solution at the final time."""

    # field -> (L2, H1 seminorm, H1)
    errors: dict


def _trig(x, y):
    """(sin, cos) of pi x and of pi y."""
    return np.sin(np.pi * x), np.cos(np.pi * x), np.sin(np.pi * y), np.cos(np.pi * y)


def _double(sx, cx, sy, cy):
    """(sin, cos) of 2 pi x and of 2 pi y from those of pi x and pi y, by the double-angle identities."""
    return 2 * sx * cx, 2 * cx * cx - 1, 2 * sy * cy, 2 * cy * cy - 1


def _family(name, m, b1, s, q, dq, **settings) -> ManufacturedCase:
    """Family member (m, b1, s, q, q' = dq) of the module docstring; settings: nx, t_final, taus."""
    pi = np.pi

    def species(b):
        def value(x, y, t):
            return m + b * np.cos(pi * x) * np.cos(pi * y) * q(t)

        def grad(x, y, t):
            sx, cx, sy, cy = _trig(x, y)
            a = -pi * b * q(t)
            return np.array([a * sx * cy, a * cx * sy])

        return value, grad

    b2 = b1 - 2.0
    c1, grad_c1 = species(b1)
    c2, grad_c2 = species(b2)

    def phi(x, y, t):
        return np.cos(pi * x) * np.cos(pi * y) * q(t) / pi**2

    def grad_phi(x, y, t):
        sx, cx, sy, cy = _trig(x, y)
        a = -q(t) / pi
        return np.array([a * sx * cy, a * cx * sy])

    def u(x, y, t):
        s2x, c2x, s2y, c2y = _double(*_trig(x, y))
        a = s * q(t)
        return np.array([a * s2x * c2y, -a * s2y * c2x])

    def grad_u(x, y, t):
        s2x, c2x, s2y, c2y = _double(*_trig(x, y))
        a = 2 * pi * s * q(t)
        cc, ss = a * c2x * c2y, a * s2x * s2y
        return np.array([[cc, -ss], [ss, -cc]])

    def p(x, y, t):
        s2x, s2y = _double(*_trig(x, y))[::2]
        return s2x * s2y * q(t)

    def grad_p(x, y, t):
        s2x, c2x, s2y, c2y = _double(*_trig(x, y))
        a = 2 * pi * q(t)
        return np.array([a * c2x * s2y, a * s2x * c2y])

    def modes(x, y):
        sx, cx, sy, cy = _trig(x, y)
        s2x, c2x, s2y, c2y = _double(sx, cx, sy, cy)
        # All that the modes need, in less memory than the eight factors.
        g, ux, uy, gx, gy = cx * cy, s2x * c2y, s2y * c2x, sx * cy, cx * sy
        vx, vy = s2x * c2x, s2y * c2y
        del sx, cx, sy, cy, s2x, c2x, s2y, c2y
        yield b1 * g, b2 * g, s * np.array([ux, -uy])  # q'
        yield (2 * pi**2 * b1 + 2 * m) * g, (2 * pi**2 * b2 - 2 * m) * g, np.array([  # q
            8 * pi**2 * s * ux + 2 * pi * uy, 2 * pi * ux - 8 * pi**2 * s * uy])
        f_u = np.array([2 * pi * s * s * vx - (2 / pi) * g * gx, 2 * pi * s * s * vy - (2 / pi) * g * gy])
        # q^2: the convection -pi s A and the drift |grad G|^2 / pi^2 - 2 G^2
        advect, drift = -pi * s * (ux * gx - uy * gy), gx * gx + gy * gy - 2 * g * g
        f_c = b1 * (advect - drift), b2 * (advect + drift)
        del g, ux, uy, gx, gy, vx, vy, advect, drift  # hold only this mode while it is used
        yield *f_c, f_u

    return ManufacturedCase(
        name=name,
        bounds=(-1.0, -1.0, 1.0, 1.0),
        c0=10.0,
        c1_0=c1,
        c2_0=c2,
        u_0=u,
        p_0=p,
        sources=SeparableSources(lambda t: (dq(t), q(t), q(t) ** 2), modes),
        velocity_bc=u,
        exact={
            "c1": (c1, grad_c1),
            "c2": (c2, grad_c2),
            "phi": (phi, grad_phi),
            "u": (u, grad_u),
            "p": (p, grad_p),
        },
        **settings,
    )


def example1() -> ManufacturedCase:
    """Oscillating manufactured solution with unit-amplitude velocity: q = sin t."""
    return _family(
        "example1", m=0.0, b1=3.0, s=1.0, q=np.sin, dq=np.cos,
        nx=40, t_final=1.0, taus=(1 / 10, 1 / 20, 1 / 40, 1 / 80),
    )


def example2() -> ManufacturedCase:
    """Smooth-start variant with strictly positive ions: q = sin^2 t, m = 1.1."""
    return _family(
        "example2", m=1.1, b1=1.0, s=np.pi, q=lambda t: np.sin(t) ** 2, dq=lambda t: np.sin(2 * t),
        nx=80, t_final=0.1, taus=(1 / 100, 1 / 200, 1 / 400, 1 / 800),
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
        sources=None,
        velocity_bc=None,
        exact=None,
    )


# Case name -> constructor; the one list of the published cases.
CASES = {"example1": example1, "example2": example2, "example3": example3}


def case_by_name(name: str) -> ManufacturedCase:
    try:
        return CASES[name]()
    except KeyError:
        raise ValueError(f"unknown case {name!r}; choose from {sorted(CASES)}") from None


def exact_eval(case: ManufacturedCase, field: str, x, y, t, grad: bool = False):
    """Exact field (or its gradient) of a manufactured case."""
    if case.exact is None:
        raise ValueError(f"case {case.name!r} has no exact solution")
    if field not in case.exact:
        raise ValueError(f"unknown field {field!r}; choose from {sorted(case.exact)}")
    value_fn, grad_fn = case.exact[field]
    return grad_fn(x, y, t) if grad else value_fn(x, y, t)


def case_operators(case: ManufacturedCase, nx: int | None = None, ny: int | None = None):
    """Operators on the case's rectangle, nx by ny cells; nx defaults to case.nx, ny to nx."""
    nx = case.nx if nx is None else nx
    ny = nx if ny is None else ny
    return Operators(build_rect_mesh(case.bounds, nx, ny), velocity_bc=case.velocity_bc)


def run_case(case: ManufacturedCase, params: SchemeParams, ops=None):
    """Time-step one case; returns (final state, diagnostics trace, report or None).

    The diagnostics trace has one record per step plus a step-0 snapshot of
    the initial data.
    """
    if ops is None:
        ops = case_operators(case)
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
            errors[field] = error_norms(getattr(state, field), value_fn, grad_fn, state.time)
        report = ErrorReport(errors)
    return state, records, report


def convergence_study(case: ManufacturedCase, params: SchemeParams, tau_list, ops=None):
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
        ops = case_operators(case)
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
