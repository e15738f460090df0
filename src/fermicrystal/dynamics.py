"""Coupled evolution of the electron cloud and the ion lattice.

The state X = (psi, q, p) carries a CI vector psi, displacements q(n) of
each ion from its lattice site n, and conjugate momenta p(n).  The flow

    i psi_dot = K psi - e Phi tensor psi,
    q_dot     = p / M,
    p_dot(n)  = -(grad Phi, sigma(. - n - q(n))),

with Phi = G rho the torus Coulomb potential of the total charge density,
is Hamiltonian for the energy

    E(X) = <K psi, psi> + (1/2)(rho, G rho) + sum_n |p(n)|^2 / (2 M),

so the charge Q = ||psi||^2 and E are conserved.  All spatial pairings are
evaluated spectrally on the retained frequencies; because forces, the
potential action and the energy derive from one truncated Coulomb sum, the
truncation preserves the Hamiltonian structure instead of merely
approximating it.

The default integrator is the implicit midpoint rule, which is symplectic
and conserves Q exactly (as it does every quadratic invariant).  Its stage
X_mid = X_0 + (dt/2) F(X_mid) is solved by fixed-point iteration with the
diagonal kinetic term K inverted exactly: writing F_c = -i K c + G(X) with
G the coupling, each iterate sets

    c_mid = c_0 + (dt/2) R (G(X_mid) - i K c_0),   R = 1 / (1 + i (dt/2) K),

whose fixed point is the midpoint stage itself, so the scheme is unchanged
while the contraction rate is set by the coupling alone, not by dt K.
Classical RK4 is available as an independent cross-check, and a Strang
splitting takes the kinetic phases as exact free flight and iterates its
midpoint stage on the coupling only.

Every evaluation goes through a flow plan (``_FlowPlan``): the arrays fixed
by the basis and sigma, with rho, the right-hand side and the energy
computed on raw (c, q, p) arrays.  ``evolve`` builds one plan per call.
The plan's ``ion_phases`` is the one place the phases exp(i xi (n + q(n)))
are formed (the second variation takes them at q = r), and its Coulomb
weight is the frequency table's ``coulomb_weight``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .density import IonDensityModel
from .errors import DimensionMismatchError, IntegratorError
from .fermions import CIVector
from .torus import FourierScalarField, frequency_table, lattice_points

METHODS = ("implicit_midpoint", "rk4", "splitting")


@dataclass(eq=False)
class IonState:
    """Displacements and momenta of the ion lattice, rows in lattice order."""

    q: np.ndarray
    p: np.ndarray
    mass: float

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.q.shape != self.p.shape:
            raise DimensionMismatchError("q and p must have matching shapes")
        if self.mass <= 0.0:
            raise ValueError("ion mass must be positive")

    @classmethod
    def resting(cls, spec, mass: float) -> "IonState":
        shape = (spec.n_ions, spec.dimension)
        return cls(np.zeros(shape), np.zeros(shape), mass)


@dataclass(eq=False)
class CrystalState:
    """Full dynamical state (psi, q, p)."""

    psi: CIVector
    ions: IonState

    def __post_init__(self):
        spec = self.psi.basis.spec
        expected = (spec.n_ions, spec.dimension)
        if self.ions.q.shape != expected:
            raise DimensionMismatchError(
                f"ion arrays must have shape {expected}, got {self.ions.q.shape}"
            )

    @property
    def spec(self):
        return self.psi.basis.spec

    def charge(self) -> float:
        return self.psi.charge()

    def canonicalized(self) -> "CrystalState":
        """Wrap displacements into [0, N) per component."""
        n = self.spec.cells_per_axis
        return CrystalState(
            self.psi.copy(),
            IonState(np.mod(self.ions.q, n), self.ions.p.copy(), self.ions.mass),
        )


class _FlowPlan:
    """Fixed arrays of the flow for one (basis, sigma), and the flow on raw arrays."""

    def __init__(self, basis, sigma: IonDensityModel):
        spec = basis.spec
        if sigma.spec != spec:
            raise DimensionMismatchError("density model lives on a different torus")
        table = frequency_table(spec)
        self.substitutions = basis.substitutions()
        self.ixi = 1j * table.xi
        self.sites = lattice_points(spec).astype(float)
        self.sigma_hat = sigma.field.values
        self.conj_sigma_hat = np.conj(sigma.field.values)
        self.coulomb_weight = table.coulomb_weight
        self.kinetic = basis.kinetic
        self.volume = spec.volume
        self.e = sigma.e

    def ion_phases(self, q: np.ndarray) -> np.ndarray:
        """exp(i xi (n + q(n))) as an (n_freq, n_ions) array."""
        return np.exp(self.ixi @ (self.sites + q).T)

    def rho(self, c: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """Total charge density: electron cloud plus the displaced ion sum."""
        electrons = -self.e * self.substitutions.transition_values(c, c)
        return electrons + self.sigma_hat * phases.sum(axis=1)

    def forces(self, phi: np.ndarray, phases: np.ndarray) -> np.ndarray:
        weights = self.ixi * (phi * self.conj_sigma_hat)[:, None]
        return (np.conj(phases).T @ weights).real / self.volume

    def energy(self, c, q, p, mass) -> float:
        kinetic_e = float((self.kinetic * np.abs(c) ** 2).sum())
        rho = self.rho(c, self.ion_phases(q))
        terms = np.abs(rho) ** 2 * self.coulomb_weight
        coulomb = float(terms.sum() / (2.0 * self.volume))
        kinetic_i = float((p**2).sum() / (2.0 * mass))
        return kinetic_e + coulomb + kinetic_i


def _rhs_raw(plan: _FlowPlan, c, q, p, mass):
    """Right-hand side (c_dot, q_dot, p_dot) of the flow on raw arrays."""
    phases = plan.ion_phases(q)
    phi = plan.rho(c, phases) * plan.coulomb_weight
    coupling = plan.substitutions.potential_values(c, phi)
    c_dot = -1j * (plan.kinetic * c - plan.e * coupling)
    return c_dot, p / mass, plan.forces(phi, phases)


def assemble_rho(state: CrystalState, sigma: IonDensityModel) -> FourierScalarField:
    """Total charge density: displaced ion sum plus the electron cloud."""
    plan = _FlowPlan(state.psi.basis, sigma)
    rho = plan.rho(state.psi.values, plan.ion_phases(state.ions.q))
    return FourierScalarField(state.spec, rho)


def energy(state: CrystalState, sigma: IonDensityModel) -> float:
    """Conserved energy of the state.

    The Coulomb term keeps only xi != 0, matching the Green operator on the
    torus; a state off the charge-neutral manifold therefore has a finite
    energy and the same gradient structure, which the stability probes rely
    on.
    """
    plan = _FlowPlan(state.psi.basis, sigma)
    return plan.energy(state.psi.values, state.ions.q, state.ions.p, state.ions.mass)


def forces(state: CrystalState, sigma: IonDensityModel) -> np.ndarray:
    """f(n) = -(grad Phi, sigma(. - n - q(n))), one row per ion.

    Equal to -dE/dq(n) for the truncated energy, which is what the
    finite-difference cross-checks verify.
    """
    plan = _FlowPlan(state.psi.basis, sigma)
    phases = plan.ion_phases(state.ions.q)
    phi = plan.rho(state.psi.values, phases) * plan.coulomb_weight
    return plan.forces(phi, phases)


@dataclass(eq=False)
class StateDerivative:
    psi_dot: CIVector
    q_dot: np.ndarray
    p_dot: np.ndarray


def rhs(state: CrystalState, sigma: IonDensityModel) -> StateDerivative:
    """Right-hand side of the coupled flow at the given state."""
    basis = state.psi.basis
    c_dot, q_dot, p_dot = _rhs_raw(_FlowPlan(basis, sigma), state.psi.values,
                                   state.ions.q, state.ions.p, state.ions.mass)
    return StateDerivative(CIVector(basis, c_dot), q_dot, p_dot)


@dataclass(eq=False)
class EvolutionLog:
    """Per-step record of conserved quantities and solver diagnostics."""

    t: np.ndarray
    energy: np.ndarray
    charge: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray

    @property
    def energy_drift(self) -> np.ndarray:
        return self.energy - self.energy[0]

    @property
    def charge_drift(self) -> np.ndarray:
        return self.charge - self.charge[0]

    def max_energy_drift(self) -> float:
        return float(np.abs(self.energy_drift).max())

    def max_charge_drift(self) -> float:
        return float(np.abs(self.charge_drift).max())


def evolve(
    state: CrystalState,
    sigma: IonDensityModel,
    dt: float,
    duration: float,
    method: str = "implicit_midpoint",
    fp_tol: float = 1e-13,
    max_iterations: int = 50,
    observer: Optional[Callable] = None,
) -> tuple[CrystalState, EvolutionLog]:
    """Integrate the flow for ``duration`` in steps of ``dt``.

    ``duration`` is rounded to a whole number of steps; negative ``dt``
    integrates backwards.  ``observer(t, state)`` runs after every step.
    The midpoint stages solve their implicit equation by fixed-point
    iteration to ``fp_tol`` (or the round-off floor), the midpoint method
    with the kinetic term inverted exactly; failure to converge raises
    :class:`IntegratorError` with step diagnostics.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    n_steps = int(round(duration / dt))
    if n_steps < 0:
        raise ValueError("duration and dt must have the same sign")

    basis = state.psi.basis
    mass = state.ions.mass
    plan = _FlowPlan(basis, sigma)
    c = state.psi.values.copy()
    q = state.ions.q.astype(float).copy()
    p = state.ions.p.astype(float).copy()

    t_log, e_log, q_log, r_log, i_log = [], [], [], [], []

    def record(time, residual, iterations):
        t_log.append(time)
        e_log.append(plan.energy(c, q, p, mass))
        q_log.append(float((np.abs(c) ** 2).sum()))
        r_log.append(residual)
        i_log.append(iterations)
        if observer is not None:
            observer(time, CrystalState(CIVector(basis, c.copy()),
                                        IonState(q.copy(), p.copy(), mass)))

    record(0.0, 0.0, 0)

    def rhs_of(c_, q_, p_):
        return _rhs_raw(plan, c_, q_, p_, mass)

    free = 1j * basis.kinetic

    def coupling_of(c_, q_, p_):
        # the non-free part of the flow: (i e Phi tensor psi, p / M, f)
        c_dot, q_dot, p_dot = rhs_of(c_, q_, p_)
        return c_dot + free * c_, q_dot, p_dot

    def step_midpoint(c_, q_, p_, step, time):
        def field(cm, qm, pm):
            # R (c_dot + iK (c_mid - c0)) = R (G - iK c0): K inverted exactly
            c_dot, q_dot, p_dot = rhs_of(cm, qm, pm)
            return resolvent * (c_dot + free * (cm - c_)), q_dot, p_dot

        cm, qm, pm, residual, iterations = _fixed_point_midpoint(
            c_, q_, p_, dt, field, fp_tol, max_iterations, step, time
        )
        return 2.0 * cm - c_, 2.0 * qm - q_, 2.0 * pm - p_, residual, iterations

    def step_rk4(c_, q_, p_, step, time):
        return _step_rk4(c_, q_, p_, dt, rhs_of)

    half_phase = np.exp(-0.5j * dt * basis.kinetic)
    resolvent = 1.0 / (1.0 + 0.5j * dt * basis.kinetic)

    def step_splitting(c_, q_, p_, step, time):
        # exact free flight on the kinetic phases, midpoint on the coupling
        cm, qm, pm, residual, iterations = _fixed_point_midpoint(
            half_phase * c_, q_, p_, dt, coupling_of, fp_tol, max_iterations,
            step, time,
        )
        return (half_phase * (2.0 * cm - half_phase * c_),
                2.0 * qm - q_, 2.0 * pm - p_, residual, iterations)

    stepper = {
        "implicit_midpoint": step_midpoint,
        "rk4": step_rk4,
        "splitting": step_splitting,
    }[method]

    time = 0.0
    for step in range(1, n_steps + 1):
        c, q, p, residual, iterations = stepper(c, q, p, step, time)
        q = np.mod(q, state.spec.cells_per_axis)
        time = step * dt
        record(time, residual, iterations)

    final = CrystalState(CIVector(basis, c), IonState(q, p, mass))
    log = EvolutionLog(
        np.array(t_log), np.array(e_log), np.array(q_log),
        np.array(r_log), np.array(i_log),
    )
    return final, log


def _fixed_point_midpoint(c, q, p, dt, vector_field, fp_tol, max_iterations,
                          step, time):
    """Solve X_mid = X_0 + (dt/2) F(X_mid) by damped-free fixed point."""
    cd, qd, pd = vector_field(c, q, p)
    cm, qm, pm = c + 0.5 * dt * cd, q + 0.5 * dt * qd, p + 0.5 * dt * pd
    previous = np.inf
    for iteration in range(1, max_iterations + 1):
        cd, qd, pd = vector_field(cm, qm, pm)
        cn, qn, pn = c + 0.5 * dt * cd, q + 0.5 * dt * qd, p + 0.5 * dt * pd
        residual = max(
            float(np.abs(cn - cm).max(initial=0.0)),
            float(np.abs(qn - qm).max(initial=0.0)),
            float(np.abs(pn - pm).max(initial=0.0)),
        )
        cm, qm, pm = cn, qn, pn
        if residual <= fp_tol:
            return cm, qm, pm, residual, iteration
        if residual >= 0.9 * previous and residual <= 1e4 * fp_tol:
            # round-off floor: no further contraction is possible
            return cm, qm, pm, residual, iteration
        previous = residual
    raise IntegratorError(
        "implicit midpoint iteration did not converge",
        step=step, time=time, residual=previous,
    )


def _step_rk4(c, q, p, dt, rhs_of):
    k1 = rhs_of(c, q, p)
    k2 = rhs_of(c + 0.5 * dt * k1[0], q + 0.5 * dt * k1[1], p + 0.5 * dt * k1[2])
    k3 = rhs_of(c + 0.5 * dt * k2[0], q + 0.5 * dt * k2[1], p + 0.5 * dt * k2[2])
    k4 = rhs_of(c + dt * k3[0], q + dt * k3[1], p + dt * k3[2])
    c1 = c + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    q1 = q + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    p1 = p + dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    return c1, q1, p1, 0.0, 0
