"""Masses, energies, extrema, and the serialized diagnostics row layout."""

from __future__ import annotations

import numpy as np
import pytest

from nspnp.diagnostics import (
    DIAG_COLUMNS,
    DiagRecord,
    discrete_energy,
    extrema,
    mass,
    original_energy,
)
from nspnp.fem import interpolate
from nspnp.mesh import build_rect_mesh
from nspnp.mms import example3
from nspnp.scheme import Operators, SchemeParams, init_state


def test_diag_columns_schema():
    assert DIAG_COLUMNS == (
        "step",
        "time",
        "mass_c1",
        "mass_c2",
        "min_c1",
        "max_c1",
        "min_c2",
        "max_c2",
        "E_h",
        "E_orig",
        "diss_u",
        "diss_charge",
        "diss_drift",
        "xi",
        "r",
    )
    assert DiagRecord.field_names() == DIAG_COLUMNS


def test_diag_record_row_excludes_bookkeeping_extras():
    record = DiagRecord(
        step=1,
        time=0.5,
        mass_c1=1.0,
        mass_c2=1.0,
        min_c1=0.0,
        max_c1=2.0,
        min_c2=0.0,
        max_c2=2.0,
        E_h=3.0,
        E_orig=1.0,
        diss_u=0.1,
        diss_charge=0.2,
        diss_drift=0.3,
        xi=0.99,
        r=2.2,
        energy_residual=1e-15,
    )
    row = record.as_row()
    assert len(row) == len(DIAG_COLUMNS)
    assert row[0] == 1 and row[-1] == 2.2
    assert 1e-15 not in row


@pytest.fixture(scope="module")
def ops():
    mesh = build_rect_mesh((0.0, 0.0, 1.0, 1.0), 8, 8)
    return Operators(mesh)


def test_mass_of_interpolated_fields(ops):
    one = interpolate(ops.scalar_space, lambda x, y, t: np.ones_like(x), 0.0)
    assert mass(one, ops.mass_p1) == pytest.approx(1.0, rel=1e-13)
    linear = interpolate(ops.scalar_space, lambda x, y, t: x, 0.0)
    assert mass(linear, ops.mass_p1) == pytest.approx(0.5, rel=1e-13)


def test_extrema(ops):
    field = interpolate(ops.scalar_space, lambda x, y, t: x - y, 0.0)
    lo, hi = extrema(field)
    assert lo == -1.0 and hi == 1.0


def test_energies_match_independent_decomposition(ops):
    case = example3()
    params = SchemeParams(tau=0.05, t_final=0.1, c0=5.0)
    state = init_state(ops, case.c1_0, case.c2_0, case.u_0, case.p_0, params)

    u, p = state.u.values, state.p.values
    u_norm_sq = float(np.vdot(u, state.mass_u))
    e = discrete_energy(state, params, u_norm_sq=u_norm_sq, stiff_p1=ops.stiff_p1)
    kinetic = 0.5 * (u[0] @ (ops.mass_p2 @ u[0]) + u[1] @ (ops.mass_p2 @ u[1]))
    assert 0.5 * u_norm_sq == pytest.approx(kinetic, rel=1e-13)
    pressure = 0.5 * params.tau**2 * (p @ (ops.stiff_p1 @ p))
    assert e == pytest.approx(kinetic + pressure + state.r**2, abs=1e-12 * max(1.0, e))

    e0 = original_energy(state, u_norm_sq=u_norm_sq, stiff_p1=ops.stiff_p1)
    phi = state.phi.values
    assert e0 == pytest.approx(
        kinetic + 0.5 * phi @ (ops.stiff_p1 @ phi), abs=1e-12 * max(1.0, e0)
    )
    # r^2 >= 0 and E_h >= r^2 by construction.
    assert e >= state.r**2 >= 0.0
