"""The benchmark's workloads: their inputs, one timed solve each, and its correctness gate.

A unit is one solve to the workload's final answer on a freshly built
``Operators``: warm starts and tau-keyed systems cached on an ``Operators``
would otherwise carry from one repetition into the next and change its
iteration counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from nspnp import mms
from nspnp.mesh import build_rect_mesh
from nspnp.scheme import Operators, SchemeParams

# Final-time errors that the unchanged solver produces on the manufactured
# workloads; the gate compares against these, not against the paper's tables.
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Relative tolerance on every final-time error of a manufactured run.  Moving
# the Krylov tolerance from 1e-10 to 1e-12 moves these errors by at most 3e-6
# relative; a change of discretisation moves them by far more than 1e-4.
ERROR_RTOL = 1e-4

# Relax gate: per-step energy-identity residual relative to E_h at t = 0, and
# relative drift of each ion mass.
ENERGY_RESIDUAL_RTOL = 1e-10
MASS_DRIFT_RTOL = 1e-9

RELAX_TAU = 0.05
RELAX_STEPS = 4

# Seeded relax inputs: c1_0 is multiplied by 1 + sum a_kl cos(k pi x) cos(l pi y)
# and c2_0 by the mirrored modes.  l >= 2 even makes each mode integrate to zero
# against 1 + cos(pi x), exactly also on the triangulation, so both ion masses
# and the zero total charge are kept; the factor keeps the zero of the profile
# on its wall and every concentration non-negative.
PERTURBATION_MODES = ((0, 2), (1, 2), (2, 2), (0, 4), (1, 4), (2, 4))
PERTURBATION_AMPLITUDE = 0.005


@dataclass(frozen=True)
class Outcome:
    """What one unit produced: its accuracy figure and any gate failures."""

    err_L2_max: float
    problems: tuple[str, ...]


def _modulated(profile, coeffs, swap: bool):
    pi = np.pi

    def c0(x, y, t=0.0):
        a, b = (y, x) if swap else (x, y)
        factor = 1.0
        for (k, l), coeff in zip(PERTURBATION_MODES, coeffs):
            factor = factor + coeff * np.cos(k * pi * a) * np.cos(l * pi * b)
        return profile(x, y, t) * factor

    return c0


def relax_case(seed: int) -> mms.ManufacturedCase:
    """example3; seed 0 is the published data, other seeds perturb the ions."""
    case = mms.example3()
    if seed == 0:
        return case
    rng = np.random.default_rng(seed)
    scale = PERTURBATION_AMPLITUDE / len(PERTURBATION_MODES)
    a = rng.uniform(-scale, scale, len(PERTURBATION_MODES))
    b = rng.uniform(-scale, scale, len(PERTURBATION_MODES))
    return replace(
        case,
        c1_0=_modulated(case.c1_0, a, swap=False),
        c2_0=_modulated(case.c2_0, b, swap=True),
    )


def reference(name: str):
    """Seed values of the final-time errors of a manufactured workload."""
    return json.loads(REFERENCE_PATH.read_text())[name]


def _relative_misses(label: str, got: dict, want: dict) -> list[str]:
    return [
        f"{label} {key} = {got[key]!r}, seed value {value!r}"
        for key, value in want.items()
        if not abs(got[key] - value) <= ERROR_RTOL * abs(value)
    ]


class Workload:
    """A case at its published resolution and the solve that answers it."""

    name: str

    def __init__(self, case: mms.ManufacturedCase, params: SchemeParams):
        self.case = case
        self.params = params

    def build(self, recorder) -> Operators:
        """Mesh and operators, each under its own set-up span."""
        case = self.case
        with recorder.span("setup.mesh"):
            mesh = build_rect_mesh(case.bounds, case.nx, case.nx)
        with recorder.span("setup.operators"):
            return Operators(mesh, velocity_bc=case.velocity_bc)

    def setup(self, recorder):
        """One full set-up: mesh, operators and the initial state."""
        with recorder.span("setup"):
            ops = self.build(recorder)
            c = self.case
            mms.init_state(ops, c.c1_0, c.c2_0, c.u_0, c.p_0, self.params)

    def solve(self, ops: Operators) -> Outcome:
        raise NotImplementedError


class Relax(Workload):
    """example3 at nx=100, tau=0.05 for RELAX_STEPS steps; the seed perturbs the ions."""

    name = "relax-ex3-n100"

    def __init__(self, seed: int):
        case = relax_case(seed)
        super().__init__(case, SchemeParams(tau=RELAX_TAU, t_final=RELAX_TAU * RELAX_STEPS, c0=case.c0))

    def solve(self, ops: Operators) -> Outcome:
        state, records, _ = mms.run_case(self.case, self.params, ops=ops)
        return Outcome(steady_state_distance(ops, state), tuple(relax_problems(records)))


class Ladder(Workload):
    """convergence_study of example1 at nx=40 over its published tau ladder."""

    name = "ladder-ex1-n40"

    def __init__(self, seed: int):
        case = mms.example1()
        super().__init__(case, SchemeParams(tau=case.taus[0], t_final=case.t_final, c0=case.c0))
        self.reference = reference(self.name)

    def solve(self, ops: Operators) -> Outcome:
        rows = mms.convergence_study(self.case, self.params, self.case.taus, ops=ops)
        problems = []
        for row, want in zip(rows, self.reference, strict=True):
            got = {key: float(value) for key, value in row.items() if key.startswith("e_")}
            problems += _relative_misses(f"tau={row['tau']}", got, want)
        finest = rows[-1]
        err = max(float(finest[f"e_{f}_L2"]) for f in mms.ERROR_FIELDS)
        return Outcome(err, tuple(problems))


class Manufactured(Workload):
    """example2 at nx=80, tau=0.01 to its published final time."""

    name = "mms-ex2-n80"

    def __init__(self, seed: int):
        case = mms.example2()
        super().__init__(case, SchemeParams(tau=case.taus[0], t_final=case.t_final, c0=case.c0))
        self.reference = reference(self.name)

    def solve(self, ops: Operators) -> Outcome:
        _, _, report = mms.run_case(self.case, self.params, ops=ops)
        got = {
            f"{field}_{norm}": float(values[k])
            for field, values in report.errors.items()
            for k, norm in ((0, "L2"), (2, "H1"))
        }
        err = max(float(values[0]) for values in report.errors.values())
        return Outcome(err, tuple(_relative_misses("final", got, self.reference)))


WORKLOADS = {w.name: w for w in (Relax, Ladder, Manufactured)}


def steady_state_distance(ops: Operators, state) -> float:
    """Largest L2 error of a final field against the uniform rest state.

    The decay has no exact solution; it relaxes to c_i = mean c_i and
    phi = u = p = 0, so this distance is the answer the run computes.  The
    norms go through the same error_norms that the manufactured runs use.
    """

    def constant(value, shape=()):
        return lambda x, y, t: np.full(shape + np.shape(x), value)

    rest = (
        (state.c1, ops.integral_mean(state.c1.values), ()),
        (state.c2, ops.integral_mean(state.c2.values), ()),
        (state.phi, 0.0, ()),
        (state.u, 0.0, (2,)),
        (state.p, 0.0, ()),
    )
    return max(
        float(mms.error_norms(field, constant(value, shape), constant(0.0, (2,) + shape), state.time)[0])
        for field, value, shape in rest
    )


def relax_problems(records) -> list[str]:
    """Structure the scheme guarantees on a source-free no-slip run."""
    problems = []
    e0 = records[0].E_h
    for before, after in zip(records, records[1:]):
        if not after.E_h <= before.E_h:
            problems.append(f"E_h rose {before.E_h!r} -> {after.E_h!r} at step {after.step}")
        if not abs(after.energy_residual) <= ENERGY_RESIDUAL_RTOL * e0:
            problems.append(f"energy residual {after.energy_residual!r} at step {after.step}")
    for attr in ("mass_c1", "mass_c2"):
        initial = getattr(records[0], attr)
        drift = max(abs(getattr(r, attr) - initial) for r in records) / abs(initial)
        if not drift <= MASS_DRIFT_RTOL:
            problems.append(f"{attr} drifted by {drift:.3e} relative")
    low = min(min(r.min_c1, r.min_c2) for r in records)
    if not low >= 0.0:
        problems.append(f"concentration fell to {low!r}")
    return problems
