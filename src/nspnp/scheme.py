"""First-order decoupled projection scheme with a scalar auxiliary variable.

One time step advances (c1, c2, phi, u, p, r) through five decoupled stages,
each a linear solve with constant matrices except for the convection and
drift blocks:

1. Ion transport, implicit diffusion with explicit-velocity convection and
   explicit-potential drift (solved per species with BiCGStab):
       (M/tau + A + K(u^n) + s_i D(phi^n)) c_i = M c_i^n / tau + (f_i, theta)
   where K[i,j] = -int c_j (u . grad theta_i) and D[i,j] = int c_j
   (grad phi . grad theta_i), s_1 = +1, s_2 = -1.
2. Electric potential, a pure Neumann Poisson solve:
       (grad phi, grad psi) = (c1 - c2, psi),  int phi = 0.
   A_p, the P1 stiffness, is factored once per mesh with one dof pinned;
   this and the pressure solve are each two triangular solves.
3. Tentative velocity, split into a forcing-free part and a unit response to
   the explicit momentum coupling N = (u^n . grad u^n + (c1^n - c2^n) grad
   phi^n, v):
       (M_v/tau + A_v) u1 = M_v u^n / tau + B^T p^n + (f_u, v)
       (M_v/tau + A_v) u2 = -N
   with u_hat = u1 + xi u2.  M_v/tau + A_v is two copies of one scalar P2
   block; CG solves both components at once, preconditioned by a two-level
   cycle whose coarse space is P1 on the same mesh.
4. The auxiliary scalar r tracks sqrt(E(phi) + C0); eliminating r^{n+1} from
   its update equation against the split gives a scalar quadratic
       a xi^2 - b xi + c = 0,
       a = 2 E(phi^{n+1}) - tau (N, u2)
       b = 2 r^n sqrt(E(phi^{n+1})) + tau (N, u1)
       c = tau (||c1 - c2||_M^2 + int (c1 + c2) |grad phi|^2
             - (f_1 - f_2, phi))     [all at t^{n+1}]
   whose root nearest 1 is xi, and r^{n+1} = xi sqrt(E(phi^{n+1})).
5. Pressure correction (pure Neumann, through the same factor of A_p) and an
   L2 velocity projection that keeps the velocity in the
   boundary-condition-satisfying subspace:
       A_p p^{n+1} = A_p p^n - (1/tau) B u_hat,  int p = 0
       M_v u^{n+1} = M_v u_hat + tau B^T (p^{n+1} - p^n).

The decoupling is what makes each solve linear and symmetric (except stage
1); the xi scaling is what transfers the explicit coupling's energy into the
auxiliary variable so that the modified energy
    E_h = 0.5 ||u||^2 + (tau^2/2) ||grad p||^2 + r^2
decreases every step regardless of tau.  advance() also evaluates the exact
per-step energy balance so tests can assert the identity to solver precision.

Boundary data: velocity Dirichlet values come from ``Operators.velocity_bc``
(homogeneous when None).  Manufactured solutions with nonzero tangential
boundary velocity pass their exact trace; since u2 always carries zero data,
u_hat = u1 + xi u2 satisfies the condition for every xi.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import copysign, sqrt

import numpy as np

from .diagnostics import DiagRecord, discrete_energy, extrema, mass, original_energy
from .fem import (
    DirichletSystem,
    FieldVector,
    FunctionSpace,
    assemble_convection,
    assemble_div_coupling,
    assemble_drift,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    field_at_quadrature,
    gradient_at_quadrature,
    interpolate,
    load_from_quadrature,
    p1_to_p2_prolongation,
    quadrature_integral,
)
from .mesh import StructuredTriMesh
from .sparse import NeumannSolver, RepeatedBlock, TwoLevelPreconditioner, bicgstab, cg

__all__ = [
    "SchemeParams",
    "SourceTerms",
    "State",
    "VelocitySplit",
    "SplitCoefficients",
    "Operators",
    "init_state",
    "step_concentrations",
    "step_potential",
    "compute_velocity_split",
    "solve_xi",
    "pressure_projection",
    "advance",
]

# Relative threshold below which quadratic coefficients count as degenerate.
_DEGENERATE = 1e-14


@dataclass(frozen=True)
class SchemeParams:
    """Time step, horizon, energy shift C0 > 0, and solver controls."""

    tau: float
    t_final: float
    c0: float
    tol: float = 1e-10
    max_iter: int = 200_000

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        if not self.t_final > 0:
            raise ValueError(f"t_final must be positive, got {self.t_final!r}")
        if not self.c0 > 0:
            raise ValueError(f"c0 must be positive, got {self.c0!r}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        n = round(self.t_final / self.tau)
        if n < 1 or abs(n * self.tau - self.t_final) > 1e-9 * self.t_final:
            raise ValueError(
                f"t_final={self.t_final!r} is not an integer multiple of tau={self.tau!r}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.tau)


@dataclass(frozen=True)
class SourceTerms:
    """Analytic source evaluators; None means the term is absent."""

    f_c1: object = None
    f_c2: object = None
    f_u: object = None

    @classmethod
    def none(cls) -> "SourceTerms":
        return cls()

    @property
    def has_concentration_sources(self) -> bool:
        return self.f_c1 is not None or self.f_c2 is not None


@dataclass
class State:
    """Discrete solution at one time level and its modified energy E_h."""

    c1: FieldVector
    c2: FieldVector
    phi: FieldVector
    u_hat: FieldVector   # tentative velocity that produced u (equal to u at t=0)
    u: FieldVector
    p: FieldVector
    r: float
    step_index: int
    time: float
    E_h: float = float("nan")  # set by init_state and advance


@dataclass(frozen=True)
class VelocitySplit:
    """Forcing-free and unit-coupling parts of the tentative velocity.

    forcing is the assembled explicit momentum load N, kept so the scalar
    products in the xi quadratic use exactly the vector the solves saw.
    """

    u1: FieldVector
    u2: FieldVector
    forcing: np.ndarray


@dataclass(frozen=True)
class SplitCoefficients:
    """Quadratic a xi^2 - b xi + c = 0 and how it was resolved."""

    a: float
    b: float
    c: float
    discriminant: float
    xi: float
    charge_norm_sq: float     # ||c1 - c2||_M^2 at t^{n+1}, a part of c
    drift_dissipation: float  # int (c1 + c2) |grad phi|^2 at t^{n+1}, a part of c
    degenerate: str | None = None


class Operators:
    """Assembled matrices and reusable eliminated systems for one mesh.

    Holds everything that does not change between time steps: the P1 mass
    and stiffness matrices with the stiffness's pinned factor, the velocity
    ones as two copies of the scalar P2 block (one per component of a (2, n)
    velocity), the divergence coupling, and the Dirichlet eliminations for
    the velocity systems.  The systems that depend on tau are built for the
    tau last asked for and kept until another tau is asked for.
    """

    def __init__(self, mesh: StructuredTriMesh, velocity_bc=None):
        self.mesh = mesh
        self.scalar_space = FunctionSpace.p1(mesh)
        self.velocity_space = FunctionSpace.p2(mesh)
        self.mass_p1 = assemble_mass(self.scalar_space)
        self.stiff_p1 = assemble_stiffness(self.scalar_space)
        self._neumann = NeumannSolver(self.stiff_p1)
        self.mass_vec = RepeatedBlock(assemble_mass(self.velocity_space))
        self.stiff_vec = RepeatedBlock(assemble_stiffness(self.velocity_space))
        self.div = assemble_div_coupling(self.velocity_space, self.scalar_space)
        self.div_t = self.div.T.tocsr()
        self.velocity_bc = velocity_bc
        self.area = self.scalar_space.domain_area()
        # ones^T M as a vector: integral of a P1 field is mass_row @ values.
        self.mass_row = self.mass_p1 @ np.ones(self.scalar_space.n_dofs)

        self.velocity_dirichlet = self.velocity_space.boundary_dofs()
        self._bnode_coords = self.velocity_space.node_coords[self.velocity_dirichlet]
        self.projection_system = DirichletSystem(self.mass_vec.block, self.velocity_dirichlet)
        # Coarse space: P1 functions that vanish on the boundary.
        self.prolongation = p1_to_p2_prolongation(mesh)[:, ~mesh.vertex_on_boundary]
        self._velocity_system = (None, None)
        self._transport_base = (None, None)

    def velocity_system(self, params: SchemeParams):
        """(scalar-block DirichletSystem of M/tau + A, its two-level preconditioner)."""
        if self._velocity_system[0] != params.tau:
            system = DirichletSystem(
                (self.mass_vec.block / params.tau + self.stiff_vec.block).tocsr(),
                self.velocity_dirichlet,
            )
            preconditioner = TwoLevelPreconditioner(system.matrix, self.prolongation, system.dofs)
            self._velocity_system = (params.tau, (system, preconditioner))
        return self._velocity_system[1]

    def transport_base(self, params: SchemeParams):
        if self._transport_base[0] != params.tau:
            self._transport_base = (params.tau, (self.mass_p1 / params.tau + self.stiff_p1).tocsr())
        return self._transport_base[1]

    def boundary_values(self, t: float) -> np.ndarray:
        """Velocity Dirichlet data at time t, shape (2, nb), ordered like velocity_dirichlet."""
        if self.velocity_bc is None:
            return np.zeros((2, self.velocity_dirichlet.shape[0]))
        x = self._bnode_coords[:, 0]
        y = self._bnode_coords[:, 1]
        g = np.asarray(self.velocity_bc(x, y, t), dtype=float)
        if g.shape != (2,) + x.shape:
            raise ValueError(f"velocity boundary evaluator returned shape {g.shape}")
        return g

    def integral_mean(self, values: np.ndarray) -> float:
        return float(self.mass_row @ values) / self.area

    def solve_neumann(self, rhs: np.ndarray) -> np.ndarray:
        """The zero-mean x with stiff_p1 @ x = rhs, rhs first losing its mean."""
        x = self._neumann(rhs)
        x -= self.integral_mean(x)
        return x


def _require_converged(report, label: str):
    if not report.converged:
        raise RuntimeError(
            f"{label} solve failed: {report.iterations} iterations, "
            f"residual {report.residual:.3e}"
        )


def init_state(ops: Operators, c1_0, c2_0, u_0, p_0, params: SchemeParams) -> State:
    """Interpolate initial data and bootstrap phi and r from the ion densities."""
    c1 = interpolate(ops.scalar_space, c1_0, 0.0)
    c2 = interpolate(ops.scalar_space, c2_0, 0.0)
    for name, c in (("c1", c1), ("c2", c2)):
        lo = c.values.min()
        if lo < 0:
            warnings.warn(
                f"initial {name} interpolant dips below zero (min {lo:.3e})",
                RuntimeWarning,
            )
    u = interpolate(ops.velocity_space, u_0, 0.0)
    p = interpolate(ops.scalar_space, p_0, 0.0)
    p.values -= ops.integral_mean(p.values)
    phi = step_potential(ops, c1, c2)
    energy = 0.5 * float(phi.values @ (ops.stiff_p1 @ phi.values)) + params.c0
    state = State(
        c1=c1,
        c2=c2,
        phi=phi,
        u_hat=u.copy(),
        u=u,
        p=p,
        r=sqrt(energy),
        step_index=0,
        time=0.0,
    )
    state.E_h = discrete_energy(state, params, mass_vec=ops.mass_vec, stiff_p1=ops.stiff_p1)
    return state


def step_concentrations(
    ops: Operators, state: State, params: SchemeParams, sources: SourceTerms, t_next: float
):
    """Implicit transport solves for both species at t_next."""
    base = ops.transport_base(params)
    convection = assemble_convection(state.u, ops.scalar_space)
    drift = assemble_drift(state.phi)
    out = []
    for name, c_old, sgn, f in (
        ("c1", state.c1, +1.0, sources.f_c1),
        ("c2", state.c2, -1.0, sources.f_c2),
    ):
        system = (base + convection + sgn * drift).tocsr()
        rhs = ops.mass_p1 @ c_old.values / params.tau
        if f is not None:
            rhs = rhs + assemble_load(ops.scalar_space, f, t_next).values
        x, report = bicgstab(
            system, rhs, x0=c_old.values, tol=params.tol, max_iter=params.max_iter
        )
        _require_converged(report, f"transport ({name})")
        out.append(FieldVector(ops.scalar_space, x))
    return out[0], out[1]


def step_potential(ops: Operators, c1_next: FieldVector, c2_next: FieldVector):
    """Pure Neumann Poisson solve (grad phi, grad psi) = (c1 - c2, psi), int phi = 0."""
    rhs = ops.mass_p1 @ (c1_next.values - c2_next.values)
    total = abs(rhs.sum())
    if total > 1e-8 * max(1.0, float(np.linalg.norm(rhs))):
        warnings.warn(
            f"net charge {total:.3e} makes the potential problem incompatible; "
            "projecting it out",
            RuntimeWarning,
        )
    return FieldVector(ops.scalar_space, ops.solve_neumann(rhs))


def _momentum_forcing(ops: Operators, state: State) -> np.ndarray:
    """Explicit coupling load N_i = (u . grad u + (c1 - c2) grad phi, v_i) at t^n."""
    u_q = field_at_quadrature(state.u)            # (t, q, 2)
    grad_u_q = gradient_at_quadrature(state.u)    # (t, q, comp, partial)
    advect = np.einsum("tqd,tqcd->tqc", u_q, grad_u_q)
    charge_q = field_at_quadrature(state.c1) - field_at_quadrature(state.c2)
    grad_phi_q = gradient_at_quadrature(state.phi)
    return load_from_quadrature(
        ops.velocity_space, advect + charge_q[..., None] * grad_phi_q
    )


def compute_velocity_split(
    ops: Operators, state: State, params: SchemeParams, sources: SourceTerms, t_next: float
) -> VelocitySplit:
    """Solve the two tentative-velocity systems sharing one eliminated matrix.

    u1 starts from u^n with its boundary entries set to the new data, so CG
    never changes them and u_hat keeps the boundary values exactly; u2
    starts from zero.
    """
    system, preconditioner = ops.velocity_system(params)
    matrix = RepeatedBlock(system.matrix)
    forcing = _momentum_forcing(ops, state)

    rhs1 = ops.mass_vec @ state.u.values.ravel() / params.tau + ops.div_t @ state.p.values
    if sources.f_u is not None:
        rhs1 = rhs1 + assemble_load(ops.velocity_space, sources.f_u, t_next).values.ravel()
    g = ops.boundary_values(t_next)
    x0 = state.u.values.copy()
    x0[:, ops.velocity_dirichlet] = g
    u1, report = cg(
        matrix,
        system.reduce_rhs(rhs1, g),
        x0=x0.ravel(),
        tol=params.tol,
        max_iter=params.max_iter,
        preconditioner=preconditioner,
    )
    _require_converged(report, "tentative velocity (forcing-free part)")

    u2, report = cg(
        matrix,
        system.reduce_rhs(-forcing),
        tol=params.tol,
        max_iter=params.max_iter,
        preconditioner=preconditioner,
    )
    _require_converged(report, "tentative velocity (coupling part)")

    return VelocitySplit(
        u1=FieldVector(ops.velocity_space, u1.reshape(2, -1)),
        u2=FieldVector(ops.velocity_space, u2.reshape(2, -1)),
        forcing=forcing,
    )


def _stable_roots(a: float, b: float, c: float, disc: float) -> tuple[float, float]:
    """Both roots of a x^2 - b x + c with the cancellation-free formula."""
    sq = sqrt(disc)
    q = b + copysign(sq, b) if b != 0.0 else sq
    if q == 0.0:
        return 0.0, 0.0
    return q / (2.0 * a), 2.0 * c / q


def solve_xi(
    ops: Operators,
    state: State,
    split: VelocitySplit,
    c1_next: FieldVector,
    c2_next: FieldVector,
    phi_next: FieldVector,
    params: SchemeParams,
    sources: SourceTerms,
    t_next: float,
):
    """Resolve the auxiliary-variable quadratic; returns (xi, r_next, coeffs)."""
    energy = 0.5 * float(phi_next.values @ (ops.stiff_p1 @ phi_next.values)) + params.c0
    sqrt_energy = sqrt(energy)
    tau = params.tau

    coupling_u1 = float(np.vdot(split.forcing, split.u1.values))
    coupling_u2 = float(np.vdot(split.forcing, split.u2.values))
    a = 2.0 * energy - tau * coupling_u2
    b = 2.0 * state.r * sqrt_energy + tau * coupling_u1

    charge = c1_next.values - c2_next.values
    charge_norm_sq = float(charge @ (ops.mass_p1 @ charge))
    total_q = field_at_quadrature(c1_next) + field_at_quadrature(c2_next)
    grad_phi_q = gradient_at_quadrature(phi_next)
    drift_dissipation = quadrature_integral(
        ops.scalar_space, total_q * np.sum(grad_phi_q**2, axis=-1)
    )
    c = tau * (charge_norm_sq + drift_dissipation)
    if sources.has_concentration_sources:
        work = np.zeros(ops.scalar_space.n_dofs)
        if sources.f_c1 is not None:
            work += assemble_load(ops.scalar_space, sources.f_c1, t_next).values
        if sources.f_c2 is not None:
            work -= assemble_load(ops.scalar_space, sources.f_c2, t_next).values
        c -= tau * float(work @ phi_next.values)

    disc = b * b - 4.0 * a * c
    degenerate = None
    if abs(a) <= _DEGENERATE * max(abs(b), 1.0):
        if abs(b) <= _DEGENERATE * max(abs(c), 1.0):
            warnings.warn(
                "xi quadratic fully degenerate; falling back to xi = 1", RuntimeWarning
            )
            xi = 1.0
            degenerate = "constant"
        else:
            xi = c / b
            degenerate = "linear"
    else:
        if disc < 0.0:
            warnings.warn(
                f"negative discriminant {disc:.3e} in xi quadratic; clamping to zero",
                RuntimeWarning,
            )
            disc = 0.0
            degenerate = "clamped"
        r1, r2 = _stable_roots(a, b, c, disc)
        # Root nearest 1; on a tie take the larger for determinism.
        d1, d2 = abs(r1 - 1.0), abs(r2 - 1.0)
        if d1 < d2:
            xi = r1
        elif d2 < d1:
            xi = r2
        else:
            xi = max(r1, r2)

    coeffs = SplitCoefficients(
        a=a, b=b, c=c, discriminant=disc, xi=xi, charge_norm_sq=charge_norm_sq,
        drift_dissipation=drift_dissipation, degenerate=degenerate,
    )
    return xi, xi * sqrt_energy, coeffs


def pressure_projection(ops: Operators, u_hat_next: FieldVector, state: State, params: SchemeParams):
    """Pressure update (pure Neumann) and L2 projection of the velocity."""
    tau = params.tau
    t_next = state.time + tau
    u_hat = u_hat_next.values.ravel()
    p_vals = ops.solve_neumann(ops.stiff_p1 @ state.p.values - (ops.div @ u_hat) / tau)

    delta = p_vals - state.p.values
    rhs_u = ops.mass_vec @ u_hat + tau * (ops.div_t @ delta)
    g = ops.boundary_values(t_next)
    u_vals, report = cg(
        RepeatedBlock(ops.projection_system.matrix),
        ops.projection_system.reduce_rhs(rhs_u, g),
        x0=u_hat,
        tol=params.tol,
        max_iter=params.max_iter,
    )
    _require_converged(report, "velocity projection")
    return (
        FieldVector(ops.scalar_space, p_vals),
        FieldVector(ops.velocity_space, u_vals.reshape(2, -1)),
    )


def advance(ops: Operators, state: State, params: SchemeParams, sources: SourceTerms | None = None):
    """One full time step; returns (new state, diagnostics record)."""
    if sources is None:
        sources = SourceTerms.none()
    tau = params.tau
    t_next = state.time + tau

    c1_next, c2_next = step_concentrations(ops, state, params, sources, t_next)
    phi_next = step_potential(ops, c1_next, c2_next)
    split = compute_velocity_split(ops, state, params, sources, t_next)
    xi, r_next, coeffs = solve_xi(
        ops, state, split, c1_next, c2_next, phi_next, params, sources, t_next
    )
    u_hat = FieldVector(ops.velocity_space, split.u1.values + xi * split.u2.values)
    p_next, u_next = pressure_projection(ops, u_hat, state, params)

    new_state = State(
        c1=c1_next,
        c2=c2_next,
        phi=phi_next,
        u_hat=u_hat,
        u=u_next,
        p=p_next,
        r=r_next,
        step_index=state.step_index + 1,
        time=t_next,
    )

    # Dissipation terms of the energy identity, all at the new time level.
    uh = u_hat.values.ravel()
    diss_u = tau * float(uh @ (ops.stiff_vec @ uh))
    diss_charge = tau * coeffs.charge_norm_sq
    diss_drift = tau * coeffs.drift_dissipation

    # Exact discrete energy balance (source-free, homogeneous boundary data):
    # E_new - E_old = -diss_u - diss_charge - diss_drift
    #                 - 0.5 ||u_hat - u_old||_M^2 - (r_new - r_old)^2
    #                 - 0.5 (||w||_M^2 - ||u_new||_M^2)
    # where w = u_hat - tau grad(dp) is the unprojected end-of-step velocity.
    new_state.E_h = discrete_energy(new_state, params, mass_vec=ops.mass_vec, stiff_p1=ops.stiff_p1)
    du = uh - state.u.values.ravel()
    increment_u = 0.5 * float(du @ (ops.mass_vec @ du))
    increment_r = (r_next - state.r) ** 2
    delta_p = p_next.values - state.p.values
    w_norm_sq = (
        float(uh @ (ops.mass_vec @ uh))
        + 2.0 * tau * float(delta_p @ (ops.div @ uh))
        + tau**2 * float(delta_p @ (ops.stiff_p1 @ delta_p))
    )
    u_new_norm_sq = float(np.vdot(u_next.values, ops.mass_vec @ u_next.values.ravel()))
    projection_defect = 0.5 * (w_norm_sq - u_new_norm_sq)
    residual = (
        new_state.E_h
        - state.E_h
        + diss_u
        + diss_charge
        + diss_drift
        + increment_u
        + increment_r
        + projection_defect
    )

    min_c1, max_c1 = extrema(c1_next)
    min_c2, max_c2 = extrema(c2_next)
    record = DiagRecord(
        step=new_state.step_index,
        time=t_next,
        mass_c1=mass(c1_next, ops.mass_p1),
        mass_c2=mass(c2_next, ops.mass_p1),
        min_c1=min_c1,
        max_c1=max_c1,
        min_c2=min_c2,
        max_c2=max_c2,
        E_h=new_state.E_h,
        E_orig=original_energy(new_state, mass_vec=ops.mass_vec, stiff_p1=ops.stiff_p1),
        diss_u=diss_u,
        diss_charge=diss_charge,
        diss_drift=diss_drift,
        xi=xi,
        r=r_next,
        energy_residual=residual,
    )
    return new_state, record


def initial_record(ops: Operators, state: State) -> DiagRecord:
    """Step-0 diagnostics row so traces include the initial condition."""
    min_c1, max_c1 = extrema(state.c1)
    min_c2, max_c2 = extrema(state.c2)
    return DiagRecord(
        step=0,
        time=state.time,
        mass_c1=mass(state.c1, ops.mass_p1),
        mass_c2=mass(state.c2, ops.mass_p1),
        min_c1=min_c1,
        max_c1=max_c1,
        min_c2=min_c2,
        max_c2=max_c2,
        E_h=state.E_h,
        E_orig=original_energy(state, mass_vec=ops.mass_vec, stiff_p1=ops.stiff_p1),
        diss_u=0.0,
        diss_charge=0.0,
        diss_drift=0.0,
        xi=1.0,
        r=state.r,
    )
