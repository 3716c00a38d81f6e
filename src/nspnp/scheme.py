"""First-order decoupled projection scheme with a scalar auxiliary variable.

One time step advances (c1, c2, phi, u, p, r) through five decoupled stages,
each a linear solve with constant matrices except for the convection and
drift blocks:

1. Ion transport, implicit diffusion with explicit-velocity convection and
   explicit-potential drift:
       (M/tau + A + K(u^n) + s_i D(phi^n)) c_i = M c_i^n / tau + (f_i, theta)
   where K[i,j] = -int c_j (u . grad theta_i) and D[i,j] = int c_j
   (grad phi . grad theta_i), s_1 = +1, s_2 = -1.  K and D are assembled
   in closed form on the fixed P1 pattern, so the system is the data of
   M/tau + A plus theirs.  BiCGStab is right-preconditioned by the grid
   solve of M/tau + A with the mass lumped, corrected by a constant that
   keeps the ion mass: a handful of iterations per species.
2. Electric potential, a pure Neumann Poisson solve:
       (grad phi, grad psi) = (c1 - c2, psi),  int phi = 0.
   A_p, the P1 stiffness, is exactly M⊗K + K⊗M of the 1-D grid lines, so
   this and the pressure solve are each one direct grid solve
   (sparse.GridSolver, fast diagonalization), exact to round-off.
3. Tentative velocity, split into a forcing-free part and a unit response to
   the explicit momentum coupling N = (u^n . grad u^n + (c1^n - c2^n) grad
   phi^n, v):
       (M_v/tau + A_v) u1 = M_v u^n / tau + B^T p^n + (f_u, v)
       (M_v/tau + A_v) u2 = -N
   with u_hat = u1 + xi u2.  M_v/tau + A_v is one scalar P2 block acting on
   both rows of the (2, n) velocity; CG solves both components at once, its
   Dirichlet dofs held at their start values (cg's fixed),
   preconditioned by the exact inverse of the alias blocks of M_v/tau + A_v
   in the sine modes of the h/2 lattice of the P2 nodes: two sine
   transforms per axis and one symmetric 4x4 block per vertex mode
   (sparse.LatticeSolver), 2 to 4 iterations per solve.  u1 starts from
   u^n, or from zero when u^n's boundary layer from the projection makes
   that start worse than zero (sparse.cg drops it); M_v u^n is State.mass_u.
4. The auxiliary scalar r tracks sqrt(E(phi) + C0); eliminating r^{n+1} from
   its update equation against the split gives a scalar quadratic
       a xi^2 - b xi + c = 0,
       a = 2 E(phi^{n+1}) - tau (N, u2)
       b = 2 r^n sqrt(E(phi^{n+1})) + tau (N, u1)
       c = tau (||c1 - c2||_M^2 + int (c1 + c2) |grad phi|^2
             - (f_1 - f_2, phi))     [all at t^{n+1}]
   whose root nearest 1 is xi, and r^{n+1} = xi sqrt(E(phi^{n+1})).
5. Pressure correction (pure Neumann, the grid solve of stage 2) and an
   L2 velocity projection that keeps the velocity in the
   boundary-condition-satisfying subspace:
       A_p p^{n+1} = A_p p^n - (1/tau) B u_hat,  int p = 0
       M_v u^{n+1} = M_v u_hat + tau B^T (p^{n+1} - p^n),
   Jacobi-CG on M_v from u_hat, its Dirichlet dofs held at u_hat's values.
   M_v u_hat and B u_hat also give the energy identity's ||w||_M^2, and
   M_v u_hat with State.mass_u its ||u_hat - u^n||_M^2.

The decoupling is what makes each solve linear and symmetric (except stage
1); the xi scaling is what transfers the explicit coupling's energy into the
auxiliary variable so that the modified energy
    E_h = 0.5 ||u||^2 + (tau^2/2) ||grad p||^2 + r^2
decreases every step regardless of tau.  advance() also evaluates the exact
per-step energy balance so tests can assert the identity to solver precision.

Case data: the sources are separable, sum_k w_k(t) F_k(x, y), and
``Operators.source_loads`` keeps the loads of the modes F_k, evaluated once
per mesh at the quadrature points that the P1 and P2 spaces share; a step
weighs them by w_k(t^{n+1}).  advance() gets the loads and the velocity
Dirichlet values (``Operators.boundary_values``, homogeneous when
``velocity_bc`` is None) at t^{n+1} once for all stages.  Manufactured
solutions with nonzero tangential boundary velocity pass their exact trace.
No matrix is eliminated: u1 starts from g and u2 from zero, cg keeps those
entries (fixed), so u_hat = u1 + xi u2 carries g for every xi.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import copysign, isfinite, sqrt
from numbers import Integral

import numpy as np

from .diagnostics import DiagRecord, discrete_energy, extrema, mass, original_energy
from .fem import (
    FieldVector,
    FunctionSpace,
    assemble_convection,
    assemble_div_coupling,
    assemble_drift,
    assemble_load,  # not called here; perfbench/spans.py wraps it through this module
    assemble_mass,
    assemble_stiffness,
    field_at_quadrature,  # not called here; perfbench/spans.py wraps it through this module
    gradient_at_quadrature,  # not called here; perfbench/spans.py wraps it through this module
    interpolate,
    load_from_quadrature,
    quadrature_integral,  # not called here; perfbench/spans.py wraps it through this module
)
from .mesh import StructuredTriMesh
from .sparse import GridSolver, LatticeSolver, bicgstab, cg, jacobi, matvec

__all__ = [
    "SchemeParams",
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
        for name in ("tau", "t_final", "c0", "tol"):
            value = getattr(self, name)
            if not (isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (isinstance(self.max_iter, Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")
        if not isfinite(self.t_final / self.tau):
            raise ValueError(f"t_final={self.t_final!r} / tau={self.tau!r} overflows")
        n = round(self.t_final / self.tau)
        if n < 1 or abs(n * self.tau - self.t_final) > 1e-9 * self.t_final:
            raise ValueError(
                f"t_final={self.t_final!r} is not an integer multiple of tau={self.tau!r}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.tau)


@dataclass
class State:
    """Discrete solution at one time level, its modified energy E_h and the product M_v u behind E_h."""

    c1: FieldVector
    c2: FieldVector
    phi: FieldVector
    u_hat: FieldVector   # tentative velocity that produced u (equal to u at t=0)
    u: FieldVector
    mass_u: np.ndarray   # M_v u, also the next step's M_v u^n and initial_record's
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
    """Assembled matrices and reusable solvers for one mesh.

    Holds, once each, what does not change between time steps: the P1 mass
    and stiffness matrices on the P1 pattern, the grid solver of their
    pure Neumann stiffness (vertex_grid), the scalar P2 mass and stiffness
    that act on each row of a (2, n) velocity with their LatticeSolver
    (velocity_lattice), the divergence coupling B and B^T (div_t, its
    transposed view), the velocity's Dirichlet dofs, which the solves pass
    to cg as fixed, and the Jacobi preconditioner of the projection on the
    P2 mass.  The systems that depend on tau (M/tau + A of the velocity and
    of the transport, each preconditioned by its solver shifted to sigma =
    1/tau) are built for the tau last asked for and kept until another tau
    is asked for, on the patterns and the solvers' modes built here.  The
    mesh must be the uniform grid of its bounds, as build_rect_mesh makes it.
    """

    def __init__(self, mesh: StructuredTriMesh, velocity_bc=None):
        lines = (np.linspace(*mesh.bounds[0::2], mesh.nx + 1), np.linspace(*mesh.bounds[1::2], mesh.ny + 1))
        if np.abs(mesh.vertices - np.stack(np.meshgrid(*lines), -1).reshape(-1, 2)).max() > 1e-12 * mesh.h:
            raise ValueError("the mesh's vertices are not the uniform grid of its bounds")
        self.mesh = mesh
        self.scalar_space = FunctionSpace.p1(mesh)
        self.velocity_space = FunctionSpace.p2(mesh)
        self.mass_p1 = assemble_mass(self.scalar_space)
        self.stiff_p1 = assemble_stiffness(self.scalar_space)
        # stiff_p1 is exactly M⊗K + K⊗M of the grid lines (see sparse.GridSolver).
        self.vertex_grid = GridSolver(mesh.nx, mesh.ny, mesh.h)
        self.mass_p2 = assemble_mass(self.velocity_space)
        self.stiff_p2 = assemble_stiffness(self.velocity_space)
        self.velocity_lattice = LatticeSolver(self.mass_p2, self.stiff_p2, self.velocity_space.lattice_shape, mesh.h)
        self.div = assemble_div_coupling(self.velocity_space, self.scalar_space)
        self.div_t = self.div.T
        self.velocity_bc = velocity_bc
        # ones^T M as a vector: integral of a P1 field is mass_row @ values.
        self.mass_row = self.mass_p1 @ np.ones(self.scalar_space.n_dofs)
        self.area = float(self.mass_row.sum())

        self.velocity_dirichlet = self.velocity_space.boundary_dofs()
        self._bnode_coords = self.velocity_space.node_coords[self.velocity_dirichlet]
        self.projection_preconditioner = jacobi(self.mass_p2)
        self._velocity_system = (None, None)
        self._transport_base = (None, None)
        self._source_modes = (None, None)

    def velocity_system(self, params: SchemeParams):
        """(the scalar P2 M/tau + A on mass_p2's pattern, uneliminated, the lattice solve preconditioning it)."""
        if self._velocity_system[0] != params.tau:
            system = self.velocity_space.pattern.matrix(self.mass_p2.data / params.tau + self.stiff_p2.data)
            solve = self.velocity_lattice.shifted(1.0 / params.tau)  # on the velocity lattice's modes
            self._velocity_system = (params.tau, (system, solve))
        return self._velocity_system[1]

    def transport_base(self, params: SchemeParams):
        """(M/tau + A on the P1 pattern, the _MassKeepingSolve that preconditions it)."""
        if self._transport_base[0] != params.tau:
            base = self.scalar_space.pattern.matrix(self.mass_p1.data / params.tau + self.stiff_p1.data)
            solve = _MassKeepingSolve(self.vertex_grid, self.mass_row, params.tau)
            self._transport_base = (params.tau, (base, solve))
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

    def source_loads(self, sources, t: float):
        """The (2, n) ion loads (f_i(t), theta) and the (2, n) momentum load (f_u(t), v).

        sources are sum_k w_k(t) F_k(x, y) (mms.SeparableSources).  The first
        call for a sources object turns each mode F_k into its loads before
        evaluating the next; they are kept until another object is asked for.
        """
        if sources is None:
            return np.zeros((2, self.scalar_space.n_dofs)), np.zeros((2, self.velocity_space.n_dofs))
        if self._source_modes[0] is not sources:
            def mode_loads(mode):
                ion = [load_from_quadrature(self.scalar_space, f) for f in mode[:2]]
                return ion, load_from_quadrature(self.velocity_space, mode[2])

            # The P1 and P2 spaces of a mesh share their quadrature points.
            loads = zip(*map(mode_loads, sources.modes(*self.scalar_space.quad_xy)))
            self._source_modes = (sources, [np.stack(kind) for kind in loads])
        weights = np.array(sources.weights(t), dtype=float)
        return tuple(np.tensordot(weights, kind, 1) for kind in self._source_modes[1])

    def divergence(self, u: np.ndarray) -> np.ndarray:
        """B u of a (2, n) velocity: (div u, q_i) for each P1 function q_i."""
        return self.div @ u.ravel()

    def pressure_load(self, p: np.ndarray) -> np.ndarray:
        """B^T p of a P1 pressure as a (2, n) load: (p, div v_i) for each P2 v_i."""
        return (self.div_t @ p).reshape(2, -1)

    def integral_mean(self, values: np.ndarray) -> float:
        return float(self.mass_row @ values) / self.area

    def solve_neumann(self, rhs: np.ndarray) -> np.ndarray:
        """The zero-mean x with stiff_p1 @ x = rhs, rhs first losing its mean."""
        x = self.vertex_grid(rhs - rhs.mean())
        x -= self.integral_mean(x)
        return x


class _MassKeepingSolve:
    """The grid solve z of M_lumped/tau + A plus the constant that makes 1^T M z / tau = 1^T r.

    1^T annihilates A, K and D, so 1^T S z = 1^T r for every transport matrix S, as
    with an exact solve of M/tau + A: BiCGStab preconditioned by it keeps the mass.
    """

    def __init__(self, vertex_grid: GridSolver, mass_row: np.ndarray, tau: float):
        self.grid = vertex_grid.shifted(1.0 / tau)  # on the vertex grid's bases
        self.mass_row, self.tau = mass_row, tau
        self.area = float(mass_row.sum())

    def __call__(self, r: np.ndarray) -> np.ndarray:
        z = self.grid(r)
        z += (self.tau * r.sum() - self.mass_row @ z) / self.area
        return z


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
        mass_u=matvec(ops.mass_p2, u.values),
        p=p,
        r=sqrt(energy),
        step_index=0,
        time=0.0,
    )
    u_norm_sq = float(np.vdot(u.values, state.mass_u))
    state.E_h = discrete_energy(state, params, u_norm_sq=u_norm_sq, stiff_p1=ops.stiff_p1)
    return state


def step_concentrations(ops: Operators, state: State, params: SchemeParams, loads: np.ndarray):
    """Implicit transport solves for both species at t^{n+1}.

    loads holds the source loads (f_i(t^{n+1}), theta) as rows of a (2, n)
    array.  All matrices share the P1 pattern, so each system is one sum of
    data arrays; the mass-keeping grid solve of the lumped M/tau + A
    preconditions BiCGStab on the right.
    """
    base, preconditioner = ops.transport_base(params)
    convection = assemble_convection(state.u, ops.scalar_space)
    drift = assemble_drift(state.phi)
    out = []
    for name, c_old, sgn, load in (
        ("c1", state.c1, +1.0, loads[0]),
        ("c2", state.c2, -1.0, loads[1]),
    ):
        system = ops.scalar_space.pattern.matrix(base.data + convection.data + sgn * drift.data)
        rhs = ops.mass_p1 @ c_old.values / params.tau + load
        x, report = bicgstab(
            system,
            rhs,
            x0=c_old.values,
            tol=params.tol,
            max_iter=params.max_iter,
            preconditioner=preconditioner,
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
    """Explicit coupling load N_i = (u . grad u + (c1 - c2) grad phi, v_i) at t^n.

    One gather and one GEMM per kind (FunctionSpace.at_quadrature) give u and
    its partials, and c1 - c2 and grad phi; the forcing is (2, K, q, t_k).
    """
    jet = ops.velocity_space.at_quadrature(state.u.values)  # (2, K, 3, q, t_k): value, d/dx, d/dy
    forcing = jet[0, :, 0] * jet[:, :, 1]
    forcing += jet[1, :, 0] * jet[:, :, 2]
    del jet  # not held through the load
    p1 = ops.scalar_space.at_quadrature(np.stack([state.c1.values - state.c2.values, state.phi.values]))
    forcing += p1[0, :, 0] * np.moveaxis(p1[1, :, 1:], 1, 0)  # (c1 - c2) grad phi
    return load_from_quadrature(ops.velocity_space, forcing)


def compute_velocity_split(
    ops: Operators, state: State, params: SchemeParams, momentum_load: np.ndarray, g: np.ndarray
) -> VelocitySplit:
    """Solve the two tentative-velocity systems sharing one matrix, M/tau + A.

    momentum_load is the (2, n) source load (f_u(t^{n+1}), v) and g the
    boundary values at t^{n+1}, shaped like ops.boundary_values.  u1 starts
    from u^n with its boundary entries set to g (or from zero, if cg finds
    that start worse) and u2 from zero; cg holds the boundary entries
    (fixed=ops.velocity_dirichlet), so u_hat keeps the boundary values
    exactly.  M_v u^n is state.mass_u, the last step's product.
    """
    system, preconditioner = ops.velocity_system(params)
    forcing = _momentum_forcing(ops, state)

    rhs1 = state.mass_u / params.tau + ops.pressure_load(state.p.values)
    rhs1 += momentum_load
    x0 = state.u.values.copy()
    x0[:, ops.velocity_dirichlet] = g
    solver = dict(tol=params.tol, max_iter=params.max_iter, preconditioner=preconditioner,
                  fixed=ops.velocity_dirichlet)
    u1, report = cg(system, rhs1, x0=x0, **solver)
    _require_converged(report, "tentative velocity (forcing-free part)")
    u2, report = cg(system, -forcing, **solver)
    _require_converged(report, "tentative velocity (coupling part)")

    return VelocitySplit(
        u1=FieldVector(ops.velocity_space, u1),
        u2=FieldVector(ops.velocity_space, u2),
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
    loads: np.ndarray,
):
    """Resolve the auxiliary-variable quadratic; returns (xi, r_next, coeffs).

    loads are the (2, n) ion source loads at t^{n+1}, as for step_concentrations.
    """
    energy = 0.5 * float(phi_next.values @ (ops.stiff_p1 @ phi_next.values)) + params.c0
    sqrt_energy = sqrt(energy)
    tau = params.tau

    coupling_u1 = float(np.vdot(split.forcing, split.u1.values))
    coupling_u2 = float(np.vdot(split.forcing, split.u2.values))
    a = 2.0 * energy - tau * coupling_u2
    b = 2.0 * state.r * sqrt_energy + tau * coupling_u1

    charge = c1_next.values - c2_next.values
    charge_norm_sq = float(charge @ (ops.mass_p1 @ charge))
    # P1 fields: |grad phi|^2 is constant on a triangle and c1 + c2 linear,
    # so each triangle gives area |grad phi|^2 (mean of c1 + c2 at its vertices).
    sp = ops.scalar_space
    total = sp.gather(c1_next.values + c2_next.values).mean(axis=1)  # (K, t_k)
    grad_phi = sp.kind_gradients @ sp.gather(phi_next.values)  # (K, 2, t_k)
    drift_dissipation = float(sp.kind_area @ np.sum(total * np.sum(grad_phi**2, axis=1), axis=1))
    c = tau * (charge_norm_sq + drift_dissipation)
    c -= tau * float((loads[0] - loads[1]) @ phi_next.values)

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
    """Pressure update (pure Neumann) and L2 projection onto the velocities with u_hat's boundary values.

    Returns (p^{n+1}, u^{n+1}, ||w||_M^2, M_v u_hat), w = u_hat - tau grad(p^{n+1} - p^n) the velocity it projects.
    """
    tau = params.tau
    u_hat = u_hat_next.values
    div_u_hat, mass_u_hat = ops.divergence(u_hat), matvec(ops.mass_p2, u_hat)
    p_vals = ops.solve_neumann(ops.stiff_p1 @ state.p.values - div_u_hat / tau)

    delta = p_vals - state.p.values
    rhs_u = mass_u_hat + tau * ops.pressure_load(delta)
    u_vals, report = cg(
        ops.mass_p2,
        rhs_u,
        x0=u_hat,
        tol=params.tol,
        max_iter=params.max_iter,
        preconditioner=ops.projection_preconditioner,
        fixed=ops.velocity_dirichlet,
    )
    _require_converged(report, "velocity projection")
    w_norm_sq = (
        float(np.vdot(u_hat, mass_u_hat))
        + 2.0 * tau * float(delta @ div_u_hat)
        + tau**2 * float(delta @ (ops.stiff_p1 @ delta))
    )
    return FieldVector(ops.scalar_space, p_vals), FieldVector(ops.velocity_space, u_vals), w_norm_sq, mass_u_hat


def advance(ops: Operators, state: State, params: SchemeParams, sources=None):
    """One full time step; returns (new state, diagnostics record).

    sources are the case's separable analytic sources (see
    Operators.source_loads), None for a source-free case.
    """
    tau = params.tau
    t_next = state.time + tau
    # The case data at t^{n+1}, evaluated once for all stages.
    loads, momentum_load = ops.source_loads(sources, t_next)
    g = ops.boundary_values(t_next)

    c1_next, c2_next = step_concentrations(ops, state, params, loads)
    phi_next = step_potential(ops, c1_next, c2_next)
    split = compute_velocity_split(ops, state, params, momentum_load, g)
    xi, r_next, coeffs = solve_xi(ops, state, split, c1_next, c2_next, phi_next, params, loads)
    u_hat = FieldVector(ops.velocity_space, split.u1.values + xi * split.u2.values)
    p_next, u_next, w_norm_sq, mass_u_hat = pressure_projection(ops, u_hat, state, params)

    new_state = State(
        c1=c1_next,
        c2=c2_next,
        phi=phi_next,
        u_hat=u_hat,
        u=u_next,
        mass_u=matvec(ops.mass_p2, u_next.values),
        p=p_next,
        r=r_next,
        step_index=state.step_index + 1,
        time=t_next,
    )

    # Dissipation terms of the energy identity, all at the new time level.
    uh = u_hat.values
    diss_u = tau * float(np.vdot(uh, matvec(ops.stiff_p2, uh)))
    diss_charge = tau * coeffs.charge_norm_sq
    diss_drift = tau * coeffs.drift_dissipation

    # Exact discrete energy balance (source-free, homogeneous boundary data):
    # E_new - E_old = -diss_u - diss_charge - diss_drift
    #                 - 0.5 ||u_hat - u_old||_M^2 - (r_new - r_old)^2
    #                 - 0.5 (||w||_M^2 - ||u_new||_M^2)
    # where w = u_hat - tau grad(dp) is the unprojected end-of-step velocity.
    u_new_norm_sq = float(np.vdot(u_next.values, new_state.mass_u))
    new_state.E_h = discrete_energy(
        new_state, params, u_norm_sq=u_new_norm_sq, stiff_p1=ops.stiff_p1
    )
    increment_u = 0.5 * float(np.vdot(uh - state.u.values, mass_u_hat - state.mass_u))
    increment_r = (r_next - state.r) ** 2
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
    return new_state, _record(
        ops, new_state, u_new_norm_sq, diss_u=diss_u, diss_charge=diss_charge,
        diss_drift=diss_drift, xi=xi, energy_residual=residual,
    )


def _record(ops: Operators, state: State, u_norm_sq: float, **step_terms) -> DiagRecord:
    """The diagnostics row of a state of ||u||_M^2 = u_norm_sq; step_terms are a step's fields."""
    min_c1, max_c1 = extrema(state.c1)
    min_c2, max_c2 = extrema(state.c2)
    return DiagRecord(
        step=state.step_index,
        time=state.time,
        mass_c1=mass(state.c1, ops.mass_p1),
        mass_c2=mass(state.c2, ops.mass_p1),
        min_c1=min_c1,
        max_c1=max_c1,
        min_c2=min_c2,
        max_c2=max_c2,
        E_h=state.E_h,
        E_orig=original_energy(state, u_norm_sq=u_norm_sq, stiff_p1=ops.stiff_p1),
        r=state.r,
        **step_terms,
    )


def initial_record(ops: Operators, state: State) -> DiagRecord:
    """Step-0 diagnostics row so traces include the initial condition."""
    u_norm_sq = float(np.vdot(state.u.values, state.mass_u))
    return _record(ops, state, u_norm_sq, diss_u=0.0, diss_charge=0.0, diss_drift=0.0, xi=1.0)
