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
are formed (the second variation takes them at q = r).  They are laid out
ions first, (n_ions, n_freq), so the ion sum of rho and the force
contraction run over contiguous frequencies, and they are cos + i sin of a
real angle, the bits of the complex exp without a complex product.  The
Coulomb weight is the table's ``pairing_weight`` 1/(|xi|^2 |T|), so the
forces and the potential action take phi = rho * it, which is Phi_hat / |T|.

A stage evaluation, ``_rhs_raw``, returns the coupling part of the flow,
(G, q_dot, p_dot) with G = i e Phi tensor psi, and gathers the source
coefficients of the substitution entries once for both sparse passes.  The
midpoint stage needs only G, as above; the splitting iterates on G alone;
RK4 and the public ``rhs`` add -i K c (``_full_rhs``).  Each step reuses
the density that the energy of the previous record computed at the same
state for its first stage evaluation.

``evolve`` also steps a batch: a sequence of R states on one basis and one
mass, in lock-step.  The raw arrays then carry a leading row axis (c is
(R, B), q and p are (R, n_ions, d)), every plan formula works row by row
with the bits of a single row, and the stage solve stops and freezes each
row by its own rule.  One call thus advances a whole stability sweep with
one set of numpy calls per step instead of one per trajectory, which is
what sets the cost at the small bases of a sweep.  The observer still
sees one ``CrystalState`` per row, a copy wrapped without re-running the
constructors' checks that the batch passed on entry, and the log keeps one
energy and charge per row, but one residual and iteration count per step.
A batch observer sees each record once, as the stacked (c, q, p) arrays
themselves, so a measurement over all rows, such as the stability sweep's
distance to the ground-state manifold, needs no copies and no re-stacking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .density import IonDensityModel
from .errors import AdmissibilityError, DimensionMismatchError, IntegratorError
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


def _row_state(basis, c: np.ndarray, q: np.ndarray, p: np.ndarray,
               mass: float) -> CrystalState:
    """One row of ``evolve``'s arrays as a state, its arrays taken as they are.

    ``evolve`` checked the batch on entry (one basis, one positive mass,
    c complex of the basis size, q and p float of the lattice shape) and its
    steps keep those shapes and dtypes, so the constructors' checks are not
    run again.
    """
    psi = object.__new__(CIVector)
    psi.basis, psi.values = basis, c
    ions = object.__new__(IonState)
    ions.q, ions.p, ions.mass = q, p, mass
    state = object.__new__(CrystalState)
    state.psi, state.ions = psi, ions
    return state


class _FlowPlan:
    """Fixed arrays of the flow for one (basis, sigma), and the flow on raw arrays.

    Every formula takes an optional leading row axis: c of shape (B,) or
    (R, B), q and p of shape (n_ions, d) or (R, n_ions, d).  Rows never mix,
    and each row gets the bits of its own single-row evaluation.
    """

    def __init__(self, basis, sigma: IonDensityModel):
        spec = basis.spec
        if sigma.spec != spec:
            raise DimensionMismatchError("density model lives on a different torus")
        table = frequency_table(spec)
        self.substitutions = basis.substitutions()
        self.ixi = 1j * table.xi
        # the frequencies up to xi = 0, one column each: ion_phases
        self.xi_low_t = np.ascontiguousarray(table.xi[: table.zero + 1].T)
        self.sites = lattice_points(spec).astype(float)
        self.phases_shape = (spec.n_ions, table.size)
        self.sigma_hat = sigma.field.values
        self.conj_sigma_hat = np.conj(sigma.field.values)
        self.pairing_weight = table.pairing_weight
        self.kinetic = basis.kinetic
        self.free = 1j * basis.kinetic  # c_dot = G - free * c
        self.ie = 1j * sigma.e  # G = ie (Phi tensor psi)
        self.e = sigma.e

    def ion_phases(self, q: np.ndarray) -> np.ndarray:
        """exp(i xi (n + q(n))) as an ([R,] n_ions, n_freq) array, ions first.

        The table is sorted and centrally symmetric, so position
        n_freq - 1 - f holds -xi_f and xi = 0 sits in the middle.  Only the
        positions up to xi = 0 are computed, as cos + i sin of the real
        angle xi (n + q(n)), the bits of exp of i times it; the rest are
        the conjugates of their mirror positions, the values at -xi (a zero
        imaginary part may differ in sign).
        """
        angle = (self.sites + q) @ self.xi_low_t
        split = angle.shape[-1]  # positions 0 .. zero
        phases = np.empty(angle.shape[:-2] + self.phases_shape, complex)
        low = phases[..., :split]
        np.cos(angle, out=low.real)
        np.sin(angle, out=low.imag)
        # positions zero + 1 .. n_freq - 1 mirror zero - 1 .. 0
        np.conjugate(low[..., -2::-1], out=phases[..., split:])
        return phases

    def rho(self, c: np.ndarray, phases: np.ndarray, gathered=None) -> np.ndarray:
        """Total charge density: electron cloud plus the displaced ion sum.

        ``gathered`` is ``substitutions.gather(c)`` when the caller has it.
        """
        electrons = -self.e * self.substitutions.transition_values(c, c, gathered)
        return electrons + self.sigma_hat * phases.sum(axis=-2)

    def density(self, c: np.ndarray, q: np.ndarray, gathered=None) -> tuple:
        """The ion phases at q and the total charge density of (c, q)."""
        phases = self.ion_phases(q)
        return phases, self.rho(c, phases, gathered)

    def forces(self, phi: np.ndarray, phases: np.ndarray) -> np.ndarray:
        weights = self.ixi * (phi * self.conj_sigma_hat)[..., None]
        return (phases.conj() @ weights).real

    def energy(self, c, rho, p, mass) -> np.ndarray:
        """E of the rows (c, p) whose total charge density is rho."""
        kinetic_e = (self.kinetic * np.abs(c) ** 2).sum(axis=-1)
        terms = np.abs(rho) ** 2 * self.pairing_weight
        coulomb = terms.sum(axis=-1) / 2.0
        momenta = (p**2).reshape(p.shape[:-2] + (-1,))
        kinetic_i = momenta.sum(axis=-1) / (2.0 * mass)
        return kinetic_e + coulomb + kinetic_i


def _rhs_raw(plan: _FlowPlan, c, q, p, mass, density=None):
    """The coupling part (G, q_dot, p_dot) of the flow on raw arrays.

    G = i e (Phi tensor psi) is c_dot without its kinetic term: the full
    c_dot is G - i K c, which ``_full_rhs`` adds.  ``density`` is
    ``plan.density(c, q)`` when the caller already has it.  The source
    coefficients of the substitution entries are gathered once, for the
    density and the potential action both.
    """
    gathered = plan.substitutions.gather(c)
    phases, rho = plan.density(c, q, gathered) if density is None else density
    phi = rho * plan.pairing_weight
    coupling = plan.substitutions.potential_values(c, phi, gathered)
    return plan.ie * coupling, p / mass, plan.forces(phi, phases)


def _full_rhs(plan: _FlowPlan, c, q, p, mass, density=None):
    """Right-hand side (c_dot, q_dot, p_dot) of the flow on raw arrays."""
    g, q_dot, p_dot = _rhs_raw(plan, c, q, p, mass, density)
    return g - plan.free * c, q_dot, p_dot


def assemble_rho(state: CrystalState, sigma: IonDensityModel) -> FourierScalarField:
    """Total charge density: displaced ion sum plus the electron cloud."""
    plan = _FlowPlan(state.psi.basis, sigma)
    _, rho = plan.density(state.psi.values, state.ions.q)
    return FourierScalarField(state.spec, rho)


def energy(state: CrystalState, sigma: IonDensityModel) -> float:
    """Conserved energy of the state.

    The Coulomb term keeps only xi != 0, matching the Green operator on the
    torus; a state off the charge-neutral manifold therefore has a finite
    energy and the same gradient structure, which the stability probes rely
    on.
    """
    plan = _FlowPlan(state.psi.basis, sigma)
    _, rho = plan.density(state.psi.values, state.ions.q)
    return float(plan.energy(state.psi.values, rho, state.ions.p, state.ions.mass))


def forces(state: CrystalState, sigma: IonDensityModel) -> np.ndarray:
    """f(n) = -(grad Phi, sigma(. - n - q(n))), one row per ion.

    Equal to -dE/dq(n) for the truncated energy, which is what the
    finite-difference cross-checks verify.
    """
    plan = _FlowPlan(state.psi.basis, sigma)
    phases, rho = plan.density(state.psi.values, state.ions.q)
    return plan.forces(rho * plan.pairing_weight, phases)


@dataclass(eq=False)
class StateDerivative:
    psi_dot: CIVector
    q_dot: np.ndarray
    p_dot: np.ndarray


def rhs(state: CrystalState, sigma: IonDensityModel) -> StateDerivative:
    """Right-hand side of the coupled flow at the given state."""
    basis = state.psi.basis
    c_dot, q_dot, p_dot = _full_rhs(_FlowPlan(basis, sigma), state.psi.values,
                                    state.ions.q, state.ions.p, state.ions.mass)
    return StateDerivative(CIVector(basis, c_dot), q_dot, p_dot)


@dataclass(eq=False)
class EvolutionLog:
    """Per-step record of conserved quantities and solver diagnostics.

    ``energy`` and ``charge`` have one entry per step for a single state and
    one row of R entries per step for a batch of R.  ``residual`` and
    ``iterations`` stay one entry per step: the largest row residual and
    the batch's sweep count, which is the largest row count.
    """

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
    state: Union[CrystalState, Sequence[CrystalState]],
    sigma: IonDensityModel,
    dt: float,
    duration: float,
    method: str = "implicit_midpoint",
    fp_tol: float = 1e-13,
    max_iterations: int = 50,
    observer: Optional[Callable] = None,
    batch_observer: Optional[Callable] = None,
) -> tuple:
    """Integrate the flow for ``duration`` in steps of ``dt``.

    ``state`` is one :class:`CrystalState` or a sequence of R states that
    share one basis and one ion mass.  A sequence is a batch stepped in
    lock-step: each step advances every row with one set of array calls,
    and each row's trajectory has the bits of its own single-state run.  A
    single state is a batch of one, run by the same code with the row axis
    dropped.  Returns the final state (a list of R
    for a sequence) and an :class:`EvolutionLog`.

    ``duration`` is rounded to a whole number of steps; negative ``dt``
    integrates backwards.  ``observer(t, state)`` runs at t = 0 and after
    every step, once per row in row order, with a copy of that row's state.
    ``batch_observer(t, c, q, p)`` runs at the same times, once per record
    and before the row observers, with the stacked arrays of every row: c
    of shape (R, B), q and p of shape (R, n_ions, d), R = 1 for a single
    state.  They are the integrator's own arrays, not copies, so it may
    only read them, and must not keep them past its return.
    The midpoint stages solve their implicit equation by fixed-point
    iteration to ``fp_tol`` (or the round-off floor), the midpoint method
    with the kinetic term inverted exactly.  Each row stops on its own
    rule and is then frozen for the rest of the step; a row that does not
    converge raises :class:`IntegratorError` naming the row, its step and
    its time.  A row whose initial energy or charge is not finite, such as
    one whose ion momenta overflow when squared, raises
    :class:`AdmissibilityError` before the first step.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    n_steps = int(round(duration / dt))
    if n_steps < 0:
        raise ValueError("duration and dt must have the same sign")
    batch = not isinstance(state, CrystalState)
    states = list(state) if batch else [state]
    if not states:
        raise ValueError("evolve needs at least one state")
    basis = states[0].psi.basis
    mass = states[0].ions.mass
    if any(s.psi.basis is not basis for s in states):
        raise DimensionMismatchError("batched states must share one basis")
    if any(s.ions.mass != mass for s in states):
        raise ValueError("batched states must share one ion mass")

    plan = _FlowPlan(basis, sigma)
    rows = len(states)
    n_cells = basis.spec.cells_per_axis
    c = np.stack([s.psi.values for s in states]).astype(complex, copy=False)
    q = np.stack([s.ions.q for s in states]).astype(float, copy=False)
    p = np.stack([s.ions.p for s in states]).astype(float, copy=False)
    stacked = q.shape  # (R, n_ions, d)
    if rows == 1:
        # a batch of one drops its row axis: the same code on unstacked
        # arrays skips numpy's broadcasting set-up in every call
        c, q, p = c[0], q[0], p[0]

    t_log, e_log, q_log, r_log, i_log = [], [], [], [], []
    density = None  # of the last recorded state, where the next step starts

    def record(time, residual, iterations):
        nonlocal density
        density = plan.density(c, q)
        t_log.append(time)
        e_log.append(plan.energy(c, density[1], p, mass))
        q_log.append((np.abs(c) ** 2).sum(axis=-1))
        r_log.append(residual)
        i_log.append(iterations)
        if batch_observer is not None:
            batch_observer(time, c.reshape(rows, -1), q.reshape(stacked),
                           p.reshape(stacked))
        if observer is not None:
            cs = c.reshape(rows, -1).copy()
            qs, ps = q.reshape(stacked).copy(), p.reshape(stacked).copy()
            for c_row, q_row, p_row in zip(cs, qs, ps):
                observer(time, _row_state(basis, c_row, q_row, p_row, mass))

    with np.errstate(over="ignore", invalid="ignore"):
        record(0.0, 0.0, 0)
    energies, charges = np.reshape(e_log[0], rows), np.reshape(q_log[0], rows)
    finite = np.isfinite(energies + charges)  # one check per row
    if not finite.all():
        row = int(np.argmin(finite))
        raise AdmissibilityError(
            f"initial state of row {row} has energy {energies[row]:.3g} and "
            f"charge {charges[row]:.3g}; both must be finite")

    def rhs_of(c_, q_, p_, density_=None):
        return _full_rhs(plan, c_, q_, p_, mass, density_)

    free = plan.free
    half_phase = np.exp(-0.5j * dt * basis.kinetic)
    resolvent = 1.0 / (1.0 + 0.5j * dt * basis.kinetic)

    def kinetic_exact(c0, cm, qm, pm, density_=None):
        # R (G - iK c0): the kinetic term at X_mid inverted exactly
        g, q_dot, p_dot = _rhs_raw(plan, cm, qm, pm, mass, density_)
        return resolvent * (g - free * c0), q_dot, p_dot

    def coupling(c0, cm, qm, pm):
        # the non-free part of the flow: (i e Phi tensor psi, p / M, f)
        return _rhs_raw(plan, cm, qm, pm, mass)

    def step_midpoint(c_, q_, p_, step, time):
        # the predictor reuses the density that record() computed at X0
        first = kinetic_exact(c_, c_, q_, p_, density)
        cm, qm, pm, residual, iterations = _fixed_point_midpoint(
            c_, q_, p_, dt, kinetic_exact, first, fp_tol, max_iterations,
            step, time,
        )
        return 2.0 * cm - c_, 2.0 * qm - q_, 2.0 * pm - p_, residual, iterations

    def step_rk4(c_, q_, p_, step, time):
        return _step_rk4(c_, q_, p_, dt, rhs_of, rhs_of(c_, q_, p_, density))

    def step_splitting(c_, q_, p_, step, time):
        # exact free flight on the kinetic phases, midpoint on the coupling
        c_half = half_phase * c_
        cm, qm, pm, residual, iterations = _fixed_point_midpoint(
            c_half, q_, p_, dt, coupling, coupling(c_half, c_half, q_, p_),
            fp_tol, max_iterations, step, time,
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
        q = np.mod(q, n_cells)
        time = step * dt
        record(time, residual, iterations)

    finals = [_row_state(basis, c_row, q_row, p_row, mass) for c_row, q_row, p_row
              in zip(c.reshape(rows, -1), q.reshape(stacked), p.reshape(stacked))]
    energies = np.array(e_log).reshape(-1, rows)
    charges = np.array(q_log).reshape(-1, rows)
    if not batch:
        finals, energies, charges = finals[0], energies[:, 0], charges[:, 0]
    log = EvolutionLog(np.array(t_log), energies, charges,
                       np.array(r_log), np.array(i_log))
    return finals, log


def _fixed_point_midpoint(c, q, p, dt, vector_field, first, fp_tol,
                          max_iterations, step, time):
    """Solve X_mid = X_0 + (dt/2) F(X_mid) row by row, by damped-free fixed point.

    ``vector_field(c0, c, q, p)`` is F at the rows (c, q, p) whose stage
    starts from c0, and ``first`` is F at X_0, the predictor's field.
    Each row stops on its own rule, at ``fp_tol`` or at the round-off
    floor, and is then frozen: only the rows still running are evaluated,
    so every row's iterate is that of its own single-row solve.  The
    arrays may carry a leading row axis or none.  Returns the stage, the
    largest row residual and the number of sweeps (the largest row count).
    """
    h = 0.5 * dt
    cd, qd, pd = first
    cm, qm, pm = c + h * cd, q + h * qd, p + h * pd
    last = np.full(c.shape[:-1], np.inf)  # each row's latest residual
    every = active = Ellipsis  # every row, until the first one stops
    for iteration in range(1, max_iterations + 1):
        c0, q0, p0 = c[active], q[active], p[active]
        ca, qa, pa = cm[active], qm[active], pm[active]
        cd, qd, pd = vector_field(c0, ca, qa, pa)
        cn, qn, pn = c0 + h * cd, q0 + h * qd, p0 + h * pd
        # q and p share a shape: one reduction takes both
        change = np.maximum(
            np.abs(cn - ca).max(axis=-1, initial=0.0),
            np.maximum(np.abs(qn - qa), np.abs(pn - pa)).max(axis=(-2, -1),
                                                            initial=0.0))
        # the round-off floor: no further contraction is possible
        stop = (change <= fp_tol) | ((change >= 0.9 * last[active])
                                     & (change <= 1e4 * fp_tol))
        last[active] = change
        if active is every:
            cm, qm, pm = cn, qn, pn
        else:
            cm[active], qm[active], pm[active] = cn, qn, pn
        # count_nonzero: numpy's all() and any() cost more on few rows
        stopped = np.count_nonzero(stop)
        if stopped == stop.size:
            return cm, qm, pm, float(last.max()), iteration
        if stopped:
            active = np.arange(last.size)[active][~stop]
    row = 0 if active is every else int(active[0])
    raise IntegratorError(
        "implicit midpoint iteration did not converge",
        row=row, step=step, time=time, residual=last.reshape(-1)[row],
    )


def _step_rk4(c, q, p, dt, rhs_of, k1):
    k2 = rhs_of(c + 0.5 * dt * k1[0], q + 0.5 * dt * k1[1], p + 0.5 * dt * k1[2])
    k3 = rhs_of(c + 0.5 * dt * k2[0], q + 0.5 * dt * k2[1], p + 0.5 * dt * k2[2])
    k4 = rhs_of(c + dt * k3[0], q + dt * k3[1], p + dt * k3[2])
    c1 = c + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    q1 = q + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    p1 = p + dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    return c1, q1, p1, 0.0, 0
